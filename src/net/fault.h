// Deterministic fault injection for the serving stack's transport layer.
//
// FaultProxy is an in-process, frame-aware relay: the coordinator (or a
// test) dials the proxy instead of the worker, and the proxy forwards
// whole frames in both directions, re-encoded canonically (EncodeFrame is
// deterministic, so an unfaulted forwarded frame is byte-identical to the
// original). A seeded schedule decides which frames get hurt and how:
//
//   kDelay     hold the frame `delay_ms` before forwarding it
//   kDrop      silently swallow the frame (the receiver sees a hang, not
//              an error -- exactly what a deadline must catch)
//   kHang      stop forwarding in BOTH directions, connections held open
//              (the transport analogue of a SIGSTOP'd worker)
//   kTruncate  forward half the frame's bytes, then close both ends
//              (a torn frame: the receiver's CRC/length check fires)
//   kFlipBit   flip one payload bit and forward (CRC mismatch at the
//              receiver; the connection must be poisoned, never re-read)
//   kReset     close both ends immediately (mid-scatter connection reset)
//
// Rules address frames by a per-direction, proxy-global frame index, so a
// given schedule plus deterministic traffic faults exactly the same frame
// every run -- the property the fault gauntlet
// (tests/fault_injection_test.cc) builds its bit-identical-twin assertions
// on. An optional probabilistic mode (delay_probability / delay_ms / seed)
// serves the bench harness's flaky-link percentile runs; it is seeded
// splitmix64, so it is also reproducible.
//
// The proxy is transparent until a scheduled fault fires: it never hurts a
// connection the schedule did not name. Each accepted connection dials the
// upstream with ConnectWithRetry pacing, so an upstream still binding its
// listener (a worker forked a moment ago) is waited for, not answered with
// an unscheduled reset; the retry stops once Stop() is requested. Two
// cases close a client unasked, both bounded: an upstream that never comes
// up within the dial budget (a direct dial would fail too), and a receiver
// that stops draining for the forward deadline (see fault.cc).
//
// The proxy never interprets payloads and keeps no protocol state beyond
// frame reassembly: it can sit on any pvcdb connection (coordinator ->
// worker RPCs, client -> front-end commands) without knowing which.

#ifndef PVCDB_NET_FAULT_H_
#define PVCDB_NET_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/socket.h"

namespace pvcdb {

/// Which half of the conversation a rule applies to. "Requests" flow from
/// the dialing side (coordinator / client) to the upstream (worker /
/// server); "replies" flow back.
enum class FaultDirection : uint8_t { kRequests = 0, kReplies = 1 };

enum class FaultType : uint8_t {
  kDelay,
  kDrop,
  kHang,
  kTruncate,
  kFlipBit,
  kReset,
};

/// One injected fault: hurt the `frame_index`-th frame (0-based, counted
/// per direction across the proxy's whole lifetime) observed flowing in
/// `direction`.
struct FaultRule {
  FaultDirection direction = FaultDirection::kRequests;
  uint64_t frame_index = 0;
  FaultType type = FaultType::kDelay;
  uint64_t delay_ms = 0;  ///< kDelay only.
};

struct FaultSchedule {
  std::vector<FaultRule> rules;
  /// Probabilistic flaky-link mode (bench): independently of `rules`,
  /// delay each forwarded frame by `delay_ms` with this probability,
  /// drawn from a splitmix64 stream seeded with `seed`.
  double delay_probability = 0.0;
  uint64_t delay_ms = 0;
  uint64_t seed = 0x5eedf417;
};

class FaultProxy {
 public:
  FaultProxy() = default;
  ~FaultProxy();

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  /// Listens on `listen_address`; every accepted connection dials
  /// `upstream_address` (retrying while it binds) and relays frames under
  /// `schedule`. False + `*error` when the listener cannot bind.
  bool Start(const std::string& listen_address,
             const std::string& upstream_address, FaultSchedule schedule,
             std::string* error);

  /// Stops accepting, closes every relay (abandoning any upstream dial
  /// still retrying), joins all threads. Idempotent.
  void Stop();

  const std::string& address() const { return listen_address_; }

  /// Appends a rule to the live schedule. Lets a test flow known-clean
  /// traffic first, read frames_seen() to learn the next frame's index,
  /// and then arm a fault for exactly that frame -- deterministic without
  /// hard-coding protocol frame counts.
  void AddRule(const FaultRule& rule);

  /// Whole frames forwarded (faulted delay/flip frames count; dropped,
  /// truncated and reset ones do not).
  uint64_t frames_forwarded(FaultDirection direction) const {
    return frames_forwarded_[static_cast<size_t>(direction)].load();
  }
  /// Frames observed in `direction` so far == the index the next frame in
  /// that direction will be matched under (faulted frames count).
  uint64_t frames_seen(FaultDirection direction) const {
    return next_index_[static_cast<size_t>(direction)].load();
  }
  uint64_t faults_injected() const { return faults_injected_.load(); }

 private:
  void AcceptLoop();
  void RelayLoop(Socket client);
  /// Copies out the first rule matching (direction, index); false when the
  /// frame passes clean.
  bool MatchRule(FaultDirection direction, uint64_t index, FaultRule* out);
  bool ProbabilisticDelay();

  std::string listen_address_;
  std::string upstream_;
  FaultSchedule schedule_;
  Listener listener_;
  std::thread accept_thread_;
  std::mutex mu_;  ///< Guards relay_threads_, schedule_.rules, rng_state_.
  std::vector<std::thread> relay_threads_;
  uint64_t rng_state_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> hung_{false};  ///< A kHang rule fired (proxy-global).
  std::atomic<uint64_t> next_index_[2]{};
  std::atomic<uint64_t> frames_forwarded_[2]{};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace pvcdb

#endif  // PVCDB_NET_FAULT_H_
