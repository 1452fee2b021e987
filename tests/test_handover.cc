// Wake-ahead succession (anticipatory handover): Parker's
// WakeAhead()/elided-wake accounting, PrepareHandover() across the lock
// families, the HandoverLockGuard opt-in, and the ParkFor timeout/permit
// race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/cr_semaphore.h"
#include "src/core/lifocr.h"
#include "src/core/loiter.h"
#include "src/core/mcscr.h"
#include "src/locks/any_lock.h"
#include "src/locks/handover_guard.h"
#include "src/locks/mcs.h"
#include "src/locks/pthread_style.h"
#include "src/platform/park.h"
#include "tests/contention.h"

namespace malthus {
namespace {

using namespace std::chrono_literals;

using test::AwaitKernelParksAbove;

// A spin budget that will not expire within any test's lifetime, used to
// hold a waiter in the spinning phase deterministically.
constexpr std::uint32_t kHugeSpinBudget = 4'000'000'000u;

// ---------------------------------------------------------------------------
// Parker::WakeAhead semantics.

TEST(ParkerWakeAhead, OnParkedOwnerIssuesKernelWake) {
  Parker p;
  const std::uint64_t parks_before = TotalKernelParks();
  std::thread owner([&] { p.Park(); });
  AwaitKernelParksAbove(parks_before);
  // The owner has advertised (and most likely entered) the kernel wait.
  p.WakeAhead();
  owner.join();
  EXPECT_EQ(p.wake_aheads(), 1u);
  EXPECT_EQ(p.kernel_wakes() + p.elided_wakes(), 1u);  // Exactly one post.
  EXPECT_GT(p.kernel_waits(), 0u);
}

TEST(ParkerWakeAhead, OnRunnableOwnerElidesSyscallAndLeavesPermit) {
  Parker p;
  EXPECT_FALSE(p.WakeAhead());  // Nobody parked: no kernel wake.
  EXPECT_EQ(p.elided_wakes(), 1u);
  EXPECT_EQ(p.kernel_wakes(), 0u);
  EXPECT_TRUE(p.PermitPending());
  p.Park();  // Consumes the hint without entering the kernel.
  EXPECT_EQ(p.fast_path_parks(), 1u);
  EXPECT_EQ(p.kernel_waits(), 0u);
}

TEST(ParkerWakeAhead, RedundantHintsCollapse) {
  Parker p;
  p.WakeAhead();
  p.WakeAhead();
  p.Unpark();
  EXPECT_TRUE(p.PermitPending());
  p.Park();
  EXPECT_FALSE(p.PermitPending());  // All posts collapsed into one permit.
  EXPECT_EQ(p.fast_path_parks(), 1u);
}

// The paper's litmus test: a no-op Park/Unpark pair (stale permit) may only
// degrade the consumer to spinning, never break it.
TEST(ParkerWakeAhead, StaleHintOnlyDegradesToRespin) {
  McsStpLock lock;
  lock.set_spin_budget(0);  // Park promptly.
  std::atomic<bool> acquired{false};
  lock.lock();
  std::thread waiter([&] {
    // A stale permit from some previous grant cycle is pending when this
    // thread starts waiting: Park() must consume it, re-check, and go
    // back to waiting rather than treat it as a grant.
    Self().parker.Unpark();
    lock.lock();
    acquired.store(true, std::memory_order_release);
    lock.unlock();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
}

// ---------------------------------------------------------------------------
// ParkFor: a permit racing the timeout is never lost.

TEST(ParkForRace, PermitConcurrentWithTimeoutIsNeverLost) {
  Parker p;
  constexpr int kRounds = 300;
  std::atomic<int> consumed{0};
  std::thread owner([&] {
    for (int i = 0; i < kRounds; ++i) {
      // Short timeout chosen to collide with the poster's cadence.
      if (p.ParkFor(std::chrono::microseconds(50 + (i % 7) * 37))) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      } else if (p.ParkFor(std::chrono::seconds(5))) {
        // The round's permit must still arrive; a lost permit times out
        // here and fails the test.
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(30 + (i % 5) * 41));
    p.Unpark();
    // One permit per round: wait for it to be consumed before posting the
    // next, so permits cannot legitimately collapse.
    while (consumed.load(std::memory_order_relaxed) <= i) {
      std::this_thread::sleep_for(100us);
    }
  }
  owner.join();
  EXPECT_EQ(consumed.load(), kRounds);
}

TEST(ParkForRace, PermitAfterTimeoutStaysPending) {
  Parker p;
  EXPECT_FALSE(p.ParkFor(1ms));
  p.Unpark();
  EXPECT_TRUE(p.PermitPending());
  const std::uint64_t fast_before = p.fast_path_parks();
  p.Park();  // Must consume the pending permit without blocking.
  EXPECT_EQ(p.fast_path_parks(), fast_before + 1);
}

TEST(ParkForRace, TimeoutWithoutPermitReturnsFalse) {
  Parker p;
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.ParkFor(5ms));
  EXPECT_GE(std::chrono::steady_clock::now() - begin, 4ms);
}

// ---------------------------------------------------------------------------
// PrepareHandover through the lock protocol.

TEST(PrepareHandover, ParkedSuccessorIsWokenAhead) {
  McsStpLock lock;
  lock.set_spin_budget(0);  // Successor parks promptly.
  lock.lock();
  std::atomic<bool> acquired{false};
  const std::uint64_t parks_before = TotalKernelParks();
  std::thread waiter([&] {
    lock.lock();
    acquired.store(true, std::memory_order_release);
    lock.unlock();
  });
  AwaitKernelParksAbove(parks_before);

  const std::uint64_t aheads_before = TotalWakeAheads();
  const std::uint64_t wakes_before = TotalKernelWakes();
  lock.PrepareHandover();
  EXPECT_EQ(TotalWakeAheads() - aheads_before, 1u);
  // The successor was blocked in the kernel, so the hint paid the wake —
  // inside our critical section, where it overlaps remaining work.
  EXPECT_EQ(TotalKernelWakes() - wakes_before, 1u);
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  // The grant itself must not have issued a second kernel wake: the heir
  // was runnable (or holding the collapsed permit) by then.
  EXPECT_LE(TotalKernelWakes() - wakes_before, 1u);
}

TEST(PrepareHandover, SpinningSuccessorCostsNoSyscall) {
  McsStpLock lock;
  lock.set_spin_budget(kHugeSpinBudget);  // Successor never parks.
  lock.lock();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock.lock();
    acquired.store(true, std::memory_order_release);
    lock.unlock();
  });
  // Wait until the successor is enqueued (spinning on its node).
  std::this_thread::sleep_for(50ms);

  const std::uint64_t wakes_before = TotalKernelWakes();
  const std::uint64_t elided_before = TotalElidedKernelWakes();
  lock.PrepareHandover();
  EXPECT_EQ(TotalKernelWakes() - wakes_before, 0u);
  EXPECT_EQ(TotalElidedKernelWakes() - elided_before, 1u);
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  // Grant to a spinning successor: still zero syscalls end to end.
  EXPECT_EQ(TotalKernelWakes() - wakes_before, 0u);
}

TEST(PrepareHandover, NoSuccessorIsANoOp) {
  McsStpLock lock;
  lock.lock();
  const std::uint64_t aheads_before = TotalWakeAheads();
  lock.PrepareHandover();
  EXPECT_EQ(TotalWakeAheads(), aheads_before);
  lock.unlock();
}

TEST(PrepareHandover, WorksAcrossLockFamilies) {
  // Smoke: every family's PrepareHandover() fires on a parked successor and
  // the handover still completes. With this PR that is *all* the parking
  // locks — the composite LOITER and the competitive-succession
  // PthreadStyleMutex included.
  const std::uint64_t aheads_before = TotalWakeAheads();

  McscrLock<SpinThenParkPolicy> mcscr{McscrOptions{.spin_budget = 0}};
  LifoCrLock<SpinThenParkPolicy> lifocr{LifoCrOptions{.spin_budget = 0}};
  LoiterOptions loiter_opts;
  loiter_opts.fast_spin_attempts = 1;  // Contenders go straight to standby.
  LoiterLock loiter{loiter_opts};
  PthreadStyleMutex pthread_style;
  pthread_style.set_spin_budget(0);

  auto run = [](auto& lock) {
    lock.lock();
    std::atomic<bool> acquired{false};
    const std::uint64_t parks_before = TotalKernelParks();
    std::thread waiter([&] {
      lock.lock();
      acquired.store(true, std::memory_order_release);
      lock.unlock();
    });
    AwaitKernelParksAbove(parks_before);
    lock.PrepareHandover();
    lock.unlock();
    waiter.join();
    EXPECT_TRUE(acquired.load());
  };
  run(mcscr);
  run(lifocr);
  run(loiter);
  run(pthread_style);
  EXPECT_GE(TotalWakeAheads() - aheads_before, 4u);
}

// ---------------------------------------------------------------------------
// PthreadStyleMutex wake-ahead.

TEST(PthreadStyleHandover, ParkedWaiterIsWokenAheadAndGrantElidesSyscall) {
  PthreadStyleMutex lock;
  lock.set_spin_budget(0);  // Contenders park promptly.
  lock.lock();
  std::atomic<bool> acquired{false};
  const std::uint64_t parks_before = TotalKernelParks();
  std::thread waiter([&] {
    lock.lock();
    acquired.store(true, std::memory_order_release);
    lock.unlock();
  });
  AwaitKernelParksAbove(parks_before);

  const std::uint64_t aheads_before = TotalWakeAheads();
  const std::uint64_t wakes_before = TotalKernelWakes();
  lock.PrepareHandover();
  EXPECT_EQ(TotalWakeAheads() - aheads_before, 1u);
  // The waiter was blocked in the kernel: the hint paid the futex wake
  // inside our critical section.
  EXPECT_EQ(TotalKernelWakes() - wakes_before, 1u);
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  // The pop-and-unpark at release must not have issued a second kernel
  // wake: the waiter was re-spinning on its node (or still held the
  // collapsed permit).
  EXPECT_LE(TotalKernelWakes() - wakes_before, 1u);
}

TEST(PthreadStyleHandover, EmptyStackIsANoOp) {
  PthreadStyleMutex lock;
  lock.lock();
  const std::uint64_t aheads_before = TotalWakeAheads();
  lock.PrepareHandover();
  EXPECT_EQ(TotalWakeAheads(), aheads_before);
  lock.unlock();
}

TEST(PthreadStyleHandover, GuardedContentionStaysCorrect) {
  // Wake-ahead on every release under real contention: exclusion, progress,
  // and node-lifecycle integrity (pops, abandons, re-enqueues) must hold
  // with hints interleaved at arbitrary points.
  PthreadStyleMutex lock;
  lock.set_spin_budget(16);  // Exercise the park path hard.
  std::uint64_t counter = 0;
  constexpr int kThreads = 6;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        HandoverLockGuard<PthreadStyleMutex> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Type-erased dispatch: the registry's virtual PrepareHandover() must reach
// the newly covered locks, including through HandoverLockGuard<AnyLock>.

TEST(PrepareHandover, DispatchesThroughTypeErasedRegistry) {
  for (const std::string name : {"pthread-style", "loiter"}) {
    auto lock = MakeLock(name);
    ASSERT_NE(lock, nullptr) << name;
    std::atomic<bool> acquired{false};
    const std::uint64_t parks_before = TotalKernelParks();
    const std::uint64_t aheads_before = TotalWakeAheads();
    std::thread waiter;
    {
      HandoverLockGuard<AnyLock> guard(*lock);
      waiter = std::thread([&] {
        lock->lock();
        acquired.store(true, std::memory_order_release);
        lock->unlock();
      });
      AwaitKernelParksAbove(parks_before);
    }  // Guard fires PrepareHandover() through the vtable, then unlock().
    waiter.join();
    EXPECT_TRUE(acquired.load()) << name;
    EXPECT_GE(TotalWakeAheads() - aheads_before, 1u) << name;
  }
}

TEST(PrepareHandover, GuardFiresBeforeUnlock) {
  McsStpLock lock;
  lock.set_spin_budget(0);
  std::atomic<bool> acquired{false};
  const std::uint64_t parks_before = TotalKernelParks();
  const std::uint64_t aheads_before = TotalWakeAheads();
  std::thread waiter;
  {
    HandoverLockGuard<McsStpLock> guard(lock);
    waiter = std::thread([&] {
      lock.lock();
      acquired.store(true, std::memory_order_release);
      lock.unlock();
    });
    AwaitKernelParksAbove(parks_before);
  }
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(TotalWakeAheads() - aheads_before, 1u);
}

TEST(PrepareHandover, GuardIsANoOpForSpinLocks) {
  McsSpinLock lock;
  {
    HandoverLockGuard<McsSpinLock> guard(lock);  // Must compile and not wake anything.
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// CrSemaphore::PreparePost.

TEST(PreparePost, WakesHeadWaiterAhead) {
  CrSemaphore sem(0, CrSemaphoreOptions{.append_probability = 1.0, .spin_budget = 0});
  std::atomic<bool> got{false};
  const std::uint64_t parks_before = TotalKernelParks();
  std::thread waiter([&] {
    sem.Wait();
    got.store(true, std::memory_order_release);
  });
  AwaitKernelParksAbove(parks_before);
  const std::uint64_t aheads_before = TotalWakeAheads();
  sem.PreparePost();
  EXPECT_EQ(TotalWakeAheads() - aheads_before, 1u);
  sem.Post();
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(PreparePost, NoWaitersIsANoOp) {
  CrSemaphore sem(0);
  const std::uint64_t aheads_before = TotalWakeAheads();
  sem.PreparePost();
  EXPECT_EQ(TotalWakeAheads(), aheads_before);
}

}  // namespace
}  // namespace malthus
