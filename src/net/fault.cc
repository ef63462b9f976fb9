#include "src/net/fault.h"

#include <poll.h>

#include <utility>

#include "src/net/backoff.h"
#include "src/net/frame.h"

namespace pvcdb {
namespace {

// Forwards are bounded so a relay thread can never wedge Stop(): if the
// receiving end stops draining for this long, the relay closes both sides
// (indistinguishable from kReset to the endpoints, which must already
// handle resets).
constexpr int kForwardDeadlineMs = 10000;

// Upstream dial budget: ConnectWithRetry's default pacing (delays capped
// at 50ms) over this many attempts gives an upstream a few seconds to bind
// its listener -- the same budget the front end grants its workers.
constexpr int kUpstreamDialAttempts = 100;

constexpr uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

FaultProxy::~FaultProxy() { Stop(); }

bool FaultProxy::Start(const std::string& listen_address,
                       const std::string& upstream_address,
                       FaultSchedule schedule, std::string* error) {
  listener_ = Listener::Listen(listen_address, error);
  if (!listener_.valid()) return false;
  listen_address_ = listen_address;
  upstream_ = upstream_address;
  schedule_ = std::move(schedule);
  rng_state_ = schedule_.seed;
  stop_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void FaultProxy::Stop() {
  stop_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> relays;
  {
    std::lock_guard<std::mutex> lock(mu_);
    relays.swap(relay_threads_);
  }
  for (std::thread& t : relays) {
    if (t.joinable()) t.join();
  }
  listener_.UnlinkSocketFile();
}

void FaultProxy::AcceptLoop() {
  while (!stop_.load()) {
    // Poll the listener so the loop notices stop_ without a connection.
    struct pollfd pfd;
    pfd.fd = listener_.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    Socket client = listener_.Accept();
    if (!client.valid()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    relay_threads_.emplace_back(
        [this](Socket sock) { RelayLoop(std::move(sock)); },
        std::move(client));
  }
}

void FaultProxy::AddRule(const FaultRule& rule) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_.rules.push_back(rule);
}

bool FaultProxy::MatchRule(FaultDirection direction, uint64_t index,
                           FaultRule* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FaultRule& rule : schedule_.rules) {
    if (rule.direction == direction && rule.frame_index == index) {
      *out = rule;
      return true;
    }
  }
  return false;
}

bool FaultProxy::ProbabilisticDelay() {
  if (schedule_.delay_probability <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  double unit = static_cast<double>(SplitMix64(&rng_state_) >> 11) /
                9007199254740992.0;
  return unit < schedule_.delay_probability;
}

void FaultProxy::RelayLoop(Socket client) {
  // The upstream may still be binding (a freshly forked worker): retry
  // the dial rather than reset a client no schedule asked to hurt. The
  // retry gives up as soon as Stop() is requested, so Stop() stays bounded
  // even when the upstream never comes up.
  std::string error;
  Socket upstream =
      ConnectWithRetry(upstream_, kUpstreamDialAttempts, &error,
                       kForwardDeadlineMs, BackoffPolicy(), nullptr, &stop_);
  if (!upstream.valid()) return;

  FrameParser parsers[2];
  Socket* from[2] = {&client, &upstream};
  Socket* to[2] = {&upstream, &client};
  char buffer[64 * 1024];

  while (!stop_.load()) {
    if (hung_.load()) {
      // A kHang rule fired: both connections stay open, nothing moves --
      // the endpoints' deadlines are the only way out. Park until Stop().
      Clock::Real()->SleepMillis(20);
      continue;
    }
    struct pollfd pfds[2];
    for (int d = 0; d < 2; ++d) {
      pfds[d].fd = from[d]->fd();
      pfds[d].events = POLLIN;
      pfds[d].revents = 0;
    }
    int ready = ::poll(pfds, 2, 50);
    if (ready < 0) return;
    if (ready == 0) continue;
    for (int d = 0; d < 2; ++d) {
      if ((pfds[d].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      ssize_t n = from[d]->RecvSome(buffer, sizeof(buffer));
      if (n == 0 || n == -1) return;  // Peer closed / error: drop the pair.
      if (n == kIoWouldBlock) continue;
      parsers[d].Feed(buffer, static_cast<size_t>(n));
      uint8_t kind = 0;
      std::string payload;
      FrameResult r;
      while ((r = parsers[d].Next(&kind, &payload)) == FrameResult::kOk) {
        FaultDirection direction = static_cast<FaultDirection>(d);
        uint64_t index =
            next_index_[static_cast<size_t>(direction)].fetch_add(1);
        FaultRule rule;
        bool faulted = MatchRule(direction, index, &rule);
        std::string wire;
        EncodeFrame(&wire, kind, payload);
        if (faulted) {
          faults_injected_.fetch_add(1);
          switch (rule.type) {
            case FaultType::kDelay:
              Clock::Real()->SleepMillis(rule.delay_ms);
              break;  // Then forward normally below.
            case FaultType::kDrop:
              continue;  // Swallow silently; the stream stays aligned here.
            case FaultType::kHang:
              hung_.store(true);
              continue;  // Nothing (including this frame) moves again.
            case FaultType::kTruncate:
              to[d]->SendAllDeadline(wire.data(), wire.size() / 2,
                                     kForwardDeadlineMs);
              return;  // Torn frame, then both ends close.
            case FaultType::kFlipBit:
              wire.back() = static_cast<char>(wire.back() ^ 0x01);
              break;  // Forward the corrupted bytes (CRC catches it).
            case FaultType::kReset:
              return;  // Close both ends mid-conversation.
          }
        }
        if (ProbabilisticDelay()) {
          faults_injected_.fetch_add(1);
          Clock::Real()->SleepMillis(schedule_.delay_ms);
        }
        if (hung_.load()) break;
        if (to[d]->SendAllDeadline(wire.data(), wire.size(),
                                   kForwardDeadlineMs) != IoStatus::kOk) {
          return;
        }
        frames_forwarded_[static_cast<size_t>(direction)].fetch_add(1);
      }
      if (r == FrameResult::kCorrupt) return;
    }
  }
}

}  // namespace pvcdb
