// Waiting policies and backoff helpers: spin/spin-then-park/park semantics,
// the yield-aware oversubscription-safe spin variant, the spin-budget seed,
// and backoff bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/platform/calibrate.h"
#include "src/platform/sysinfo.h"
#include "src/platform/thread_registry.h"
#include "src/rng/xorshift.h"
#include "src/waiting/backoff.h"
#include "src/waiting/policy.h"

namespace malthus {
namespace {

// Scoped EffectiveCpuCount() override; restores the measured value on exit.
class ForcedEffectiveCpus {
 public:
  explicit ForcedEffectiveCpus(int n) { SetEffectiveCpuCountForTesting(n); }
  ~ForcedEffectiveCpus() { SetEffectiveCpuCountForTesting(0); }
};

template <typename Policy>
void ExpectAwaitReturnsOnFlagFlip() {
  std::atomic<std::uint32_t> flag{0};
  Parker parker;
  std::thread waiter([&] {
    Policy::Await(flag, 0u, parker, 100);
    EXPECT_EQ(flag.load(), 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  flag.store(1, std::memory_order_release);
  Policy::Wake(parker);
  waiter.join();
}

TEST(WaitPolicy, SpinReturnsOnFlagFlip) { ExpectAwaitReturnsOnFlagFlip<SpinPolicy>(); }

TEST(WaitPolicy, SpinThenParkReturnsOnFlagFlip) {
  ExpectAwaitReturnsOnFlagFlip<SpinThenParkPolicy>();
}

TEST(WaitPolicy, ParkReturnsOnFlagFlip) { ExpectAwaitReturnsOnFlagFlip<ParkPolicy>(); }

TEST(WaitPolicy, SpinThenParkActuallyParksAfterBudget) {
  std::atomic<std::uint32_t> flag{0};
  Parker parker;
  const std::uint64_t kernel_before = parker.kernel_waits();
  std::thread waiter([&] { SpinThenParkPolicy::Await(flag, 0u, parker, 10); });
  // Give the waiter ample time to burn its 10-iteration budget and block.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  flag.store(1, std::memory_order_release);
  SpinThenParkPolicy::Wake(parker);
  waiter.join();
  EXPECT_GT(parker.kernel_waits(), kernel_before);
}

TEST(WaitPolicy, SpinThenParkWithZeroBudgetIsParkPolicy) {
  std::atomic<std::uint32_t> flag{0};
  Parker parker;
  std::thread waiter([&] { SpinThenParkPolicy::Await(flag, 0u, parker, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  flag.store(1, std::memory_order_release);
  parker.Unpark();
  waiter.join();
  EXPECT_GT(parker.kernel_waits(), 0u);
}

TEST(WaitPolicy, StalePermitDoesNotBreakAwait) {
  // The paper's litmus test: permits from previous grant cycles may linger;
  // Await must re-check the flag and keep waiting.
  std::atomic<std::uint32_t> flag{0};
  Parker parker;
  parker.Unpark();  // Stale permit.
  std::thread waiter([&] { SpinThenParkPolicy::Await(flag, 0u, parker, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Waiter must still be waiting (the stale permit only caused a re-check).
  flag.store(1, std::memory_order_release);
  parker.Unpark();
  waiter.join();
  EXPECT_EQ(flag.load(), 1u);
}

TEST(WaitPolicy, YieldingSpinReturnsOnFlagFlip) {
  ExpectAwaitReturnsOnFlagFlip<YieldingSpinPolicy>();
}

TEST(WaitPolicy, YieldingSpinNeverEscalatesWithSpareCpus) {
  // With the effective CPU count comfortably above the spinner population,
  // the policy must remain pure spinning: no escalations, ever.
  ForcedEffectiveCpus forced(64);
  const std::uint64_t escalations_before = TotalSpinYieldEscalations();
  std::atomic<std::uint32_t> flag{0};
  Parker parker;
  std::thread waiter([&] { YieldingSpinPolicy::Await(flag, 0u, parker, 100); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  flag.store(1, std::memory_order_release);
  waiter.join();
  EXPECT_EQ(TotalSpinYieldEscalations(), escalations_before);
}

TEST(WaitPolicy, YieldingSpinEscalatesUnderForcedOversubscription) {
  // Simulate a 1-CPU host and run 4x that many spinners: every one of them
  // must abandon pure spinning for the sched_yield loop, and the wait must
  // still terminate promptly when the flags flip.
  ForcedEffectiveCpus forced(1);
  constexpr int kSpinners = 4;  // threads = 4x effective cores
  const std::uint64_t escalations_before = TotalSpinYieldEscalations();
  std::vector<std::atomic<std::uint32_t>> flags(kSpinners);
  std::vector<std::thread> waiters;
  for (int t = 0; t < kSpinners; ++t) {
    waiters.emplace_back([&, t] {
      Parker parker;
      YieldingSpinPolicy::Await(flags[static_cast<std::size_t>(t)], 0u, parker, 100);
    });
  }
  // Give every spinner time to cross its probe slice and observe the
  // oversubscribed gauge.
  while (ActiveSpinners() < static_cast<std::uint32_t>(kSpinners)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (auto& flag : flags) {
    flag.store(1, std::memory_order_release);
  }
  for (auto& w : waiters) {
    w.join();
  }
  EXPECT_GE(TotalSpinYieldEscalations() - escalations_before,
            static_cast<std::uint64_t>(kSpinners));
  EXPECT_EQ(ActiveSpinners(), 0u);
}

TEST(YieldingBackoff, BurstDecaysGeometricallyToFloor) {
  YieldingBackoff backoff(1024, 64);
  EXPECT_EQ(backoff.burst(), 1024u);
  backoff.Pause();
  EXPECT_EQ(backoff.burst(), 512u);
  backoff.Pause();
  EXPECT_EQ(backoff.burst(), 256u);
  backoff.Pause();
  backoff.Pause();
  EXPECT_EQ(backoff.burst(), 64u);
  backoff.Pause();
  EXPECT_EQ(backoff.burst(), 64u);  // Floored.
  EXPECT_EQ(backoff.yields(), 5u);
}

TEST(YieldingBackoff, ResetRestoresInitialBurst) {
  YieldingBackoff backoff(512, 32);
  backoff.Pause();
  backoff.Pause();
  backoff.Reset();
  EXPECT_EQ(backoff.burst(), 512u);
  EXPECT_EQ(backoff.yields(), 2u);  // Reset does not erase the yield count.
}

TEST(EffectiveCpus, SaneAndCached) {
  const int n = EffectiveCpuCount();
  EXPECT_GE(n, 1);
  EXPECT_LE(n, LogicalCpuCount());
  EXPECT_EQ(EffectiveCpuCount(), n);
}

TEST(EffectiveCpus, TestingOverrideRoundTrips) {
  const int measured = EffectiveCpuCount();
  SetEffectiveCpuCountForTesting(3);
  EXPECT_EQ(EffectiveCpuCount(), 3);
  SetEffectiveCpuCountForTesting(0);
  EXPECT_EQ(EffectiveCpuCount(), measured);
}

TEST(SpinBudget, SeedSpinsOneParkWakeRoundTrip) {
  // The seed is 100 µs, one park-and-wake round trip on a virtual machine,
  // in spin-loop iterations, so its duration must not depend on the host's
  // iteration cost.
  const std::uint32_t seed = SeedSpinBudget();
  EXPECT_GE(seed, 1u);
  const double spin_us = static_cast<double>(seed) * SpinIterationNs() / 1000.0;
  EXPECT_GE(spin_us, 50.0) << "seed " << seed << " x " << SpinIterationNs() << " ns";
  EXPECT_LE(spin_us, 200.0) << "seed " << seed << " x " << SpinIterationNs() << " ns";
  EXPECT_EQ(SeedSpinBudget(), seed);  // Cached.
}

TEST(Backoff, ExponentialCeilingDoublesAndSaturates) {
  ExponentialBackoff backoff(16, 64);
  XorShift64 rng(1);
  EXPECT_EQ(backoff.ceiling(), 16u);
  backoff.Pause(rng);
  EXPECT_EQ(backoff.ceiling(), 32u);
  backoff.Pause(rng);
  EXPECT_EQ(backoff.ceiling(), 64u);
  backoff.Pause(rng);
  EXPECT_EQ(backoff.ceiling(), 64u);  // Truncated.
}

TEST(Backoff, ResetRestoresInitialCeiling) {
  ExponentialBackoff backoff(8, 1024);
  XorShift64 rng(2);
  backoff.Pause(rng);
  backoff.Pause(rng);
  backoff.Reset();
  EXPECT_EQ(backoff.ceiling(), 8u);
}

TEST(Backoff, ProportionalScalesWithDistance) {
  // Behavioural smoke: longer distances must take longer (measured
  // coarsely; generous margins keep this robust under CI noise).
  const auto t0 = std::chrono::steady_clock::now();
  ProportionalBackoff(1, 64);
  const auto t1 = std::chrono::steady_clock::now();
  ProportionalBackoff(2000, 64);
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_GT((t2 - t1).count(), (t1 - t0).count());
}

}  // namespace
}  // namespace malthus
