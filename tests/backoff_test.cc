// Unit tests for the fault-tolerance plane's timing primitives
// (src/net/backoff.h): the exponential-backoff schedule (exact without
// jitter, bounded and seed-deterministic with it), the circuit breaker's
// sliding failure window, and ConnectWithRetry's use of both through a
// mock clock -- no test here ever sleeps for real.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/backoff.h"
#include "src/net/socket.h"

namespace pvcdb {
namespace {

/// Deterministic clock: NowMillis reads a settable value, SleepMillis
/// advances it and records the requested delay.
class MockClock : public Clock {
 public:
  uint64_t NowMillis() override { return now_ms_; }
  void SleepMillis(uint64_t ms) override {
    sleeps.push_back(ms);
    now_ms_ += ms;
  }
  void Advance(uint64_t ms) { now_ms_ += ms; }

  std::vector<uint64_t> sleeps;

 private:
  uint64_t now_ms_ = 1000;
};

// ---------------------------------------------------------------------------
// ExponentialBackoff.
// ---------------------------------------------------------------------------

TEST(BackoffTest, ExactScheduleWithoutJitter) {
  BackoffPolicy policy;
  policy.base_ms = 2;
  policy.max_ms = 20;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  ExponentialBackoff backoff(policy);
  // 2, 4, 8, 16, then capped at 20 forever.
  EXPECT_EQ(backoff.NextDelayMs(), 2u);
  EXPECT_EQ(backoff.NextDelayMs(), 4u);
  EXPECT_EQ(backoff.NextDelayMs(), 8u);
  EXPECT_EQ(backoff.NextDelayMs(), 16u);
  EXPECT_EQ(backoff.NextDelayMs(), 20u);
  EXPECT_EQ(backoff.NextDelayMs(), 20u);
  EXPECT_EQ(backoff.attempts(), 6);
}

TEST(BackoffTest, JitterStaysWithinTheConfiguredBand) {
  BackoffPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 100000;
  policy.multiplier = 1.0;  // Every nominal delay is exactly base_ms.
  policy.jitter = 0.5;
  ExponentialBackoff backoff(policy);
  for (int i = 0; i < 200; ++i) {
    uint64_t delay = backoff.NextDelayMs();
    // jitter = 0.5 draws uniformly from [50, 100] (rounded).
    EXPECT_GE(delay, 50u);
    EXPECT_LE(delay, 100u);
  }
}

TEST(BackoffTest, SameSeedSameSchedule) {
  BackoffPolicy policy;
  policy.base_ms = 3;
  policy.max_ms = 500;
  policy.jitter = 0.5;
  policy.seed = 42;
  ExponentialBackoff a(policy);
  ExponentialBackoff b(policy);
  std::vector<uint64_t> schedule;
  for (int i = 0; i < 32; ++i) {
    uint64_t delay = a.NextDelayMs();
    EXPECT_EQ(delay, b.NextDelayMs()) << "diverged at step " << i;
    schedule.push_back(delay);
  }
  // A different seed jitters differently somewhere in 32 draws.
  policy.seed = 43;
  ExponentialBackoff c(policy);
  bool differs = false;
  for (uint64_t delay : schedule) differs |= (c.NextDelayMs() != delay);
  EXPECT_TRUE(differs);
}

TEST(BackoffTest, ResetReplaysTheScheduleFromTheTop) {
  BackoffPolicy policy;
  policy.base_ms = 5;
  policy.max_ms = 1000;
  policy.jitter = 0.5;
  policy.seed = 7;
  ExponentialBackoff backoff(policy);
  std::vector<uint64_t> first;
  for (int i = 0; i < 8; ++i) first.push_back(backoff.NextDelayMs());
  backoff.Reset();
  EXPECT_EQ(backoff.attempts(), 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(backoff.NextDelayMs(), first[static_cast<size_t>(i)]);
  }
}

TEST(BackoffTest, DelaysNeverUnderflowToZero) {
  BackoffPolicy policy;
  policy.base_ms = 1;
  policy.max_ms = 1;
  policy.jitter = 0.5;
  ExponentialBackoff backoff(policy);
  for (int i = 0; i < 50; ++i) EXPECT_GE(backoff.NextDelayMs(), 1u);
}

// ---------------------------------------------------------------------------
// CircuitBreaker.
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, OpensAtMaxFailuresWithinWindow) {
  MockClock clock;
  CircuitBreaker breaker(3, 1000, &clock);
  EXPECT_FALSE(breaker.open());
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.failures_in_window(), 2);
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.failures_in_window(), 3);
}

TEST(CircuitBreakerTest, ClosesAsFailuresAgeOutOfTheWindow) {
  MockClock clock;
  CircuitBreaker breaker(2, 1000, &clock);
  breaker.RecordFailure();
  clock.Advance(500);
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.open());
  // The first failure ages out at +1001ms; only one remains in-window.
  clock.Advance(600);
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.failures_in_window(), 1);
  clock.Advance(600);
  EXPECT_EQ(breaker.failures_in_window(), 0);
}

TEST(CircuitBreakerTest, SuccessClearsTheWindowImmediately) {
  MockClock clock;
  CircuitBreaker breaker(2, 60000, &clock);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.open());
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.failures_in_window(), 0);
  // The breaker re-arms from scratch after the success.
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.open());
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.open());
}

// ---------------------------------------------------------------------------
// ConnectWithRetry through the mock clock.
// ---------------------------------------------------------------------------

TEST(ConnectWithRetryTest, SleepsTheBackoffScheduleBetweenAttempts) {
  MockClock clock;
  BackoffPolicy policy;
  policy.base_ms = 2;
  policy.max_ms = 16;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  std::string error;
  // Nothing listens here: every attempt fails, so the clock records the
  // full schedule (attempts - 1 sleeps; no sleep before the first try).
  Socket sock = ConnectWithRetry("/nonexistent/pvcdb-backoff-test.sock", 5,
                                 &error, kNoDeadline, policy, &clock);
  EXPECT_FALSE(sock.valid());
  EXPECT_FALSE(error.empty());
  ASSERT_EQ(clock.sleeps.size(), 4u);
  EXPECT_EQ(clock.sleeps[0], 2u);
  EXPECT_EQ(clock.sleeps[1], 4u);
  EXPECT_EQ(clock.sleeps[2], 8u);
  EXPECT_EQ(clock.sleeps[3], 16u);
}

TEST(ConnectWithRetryTest, SingleAttemptNeverSleeps) {
  MockClock clock;
  std::string error;
  Socket sock = ConnectWithRetry("/nonexistent/pvcdb-backoff-test.sock", 1,
                                 &error, kNoDeadline, BackoffPolicy(),
                                 &clock);
  EXPECT_FALSE(sock.valid());
  EXPECT_TRUE(clock.sleeps.empty());
}

TEST(ConnectWithRetryTest, CancelStopsRetryingBeforeTheNextAttempt) {
  // Raise the cancel flag during the second backoff sleep: the attempt
  // after it must not run, so exactly two sleeps are recorded out of a
  // long schedule and the error names the cancellation.
  class CancellingClock : public MockClock {
   public:
    explicit CancellingClock(std::atomic<bool>* cancel) : cancel_(cancel) {}
    void SleepMillis(uint64_t ms) override {
      MockClock::SleepMillis(ms);
      if (sleeps.size() == 2) cancel_->store(true);
    }

   private:
    std::atomic<bool>* cancel_;
  };
  std::atomic<bool> cancel{false};
  CancellingClock clock(&cancel);
  std::string error;
  Socket sock = ConnectWithRetry("/nonexistent/pvcdb-backoff-test.sock", 100,
                                 &error, kNoDeadline, BackoffPolicy(), &clock,
                                 &cancel);
  EXPECT_FALSE(sock.valid());
  EXPECT_EQ(clock.sleeps.size(), 2u);
  EXPECT_NE(error.find("cancelled"), std::string::npos);
}

}  // namespace
}  // namespace pvcdb
