// Deadline-aware acquisition: TryLockFor/TryLockUntil across every lock
// family, plus timed semaphore/condvar/throttle/queue waits.
//
// Covers the three behaviors a timed lock must get right:
//   1. an uncontended timed acquire succeeds immediately (even with a
//      deadline already in the past — the fast path never consults the
//      clock);
//   2. a timed acquire against a held lock returns false at the deadline
//      and leaves the queue healthy (subsequent acquires work, cancelled
//      QNodes are reclaimed and reaped — no zombie leaks);
//   3. a cancel storm at oversubscription (every thread mixing timed and
//      blocking acquires with tiny random deadlines) preserves mutual
//      exclusion and drains all zombie nodes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "src/core/cr_condvar.h"
#include "src/core/cr_semaphore.h"
#include "src/core/lifocr.h"
#include "src/core/loiter.h"
#include "src/core/mcscr.h"
#include "src/core/mcscrn.h"
#include "src/core/throttle.h"
#include "src/locks/any_lock.h"
#include "src/locks/lock_base.h"
#include "src/locks/mcs.h"
#include "src/locks/pthread_style.h"
#include "src/locks/tas.h"
#include "src/sync/blocking_queue.h"
#include "tests/contention.h"
#include "tests/watchdog.h"

namespace malthus {
namespace {

using test::ScaledIters;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Generic per-family helpers.

template <typename L>
void UncontendedTimedAcquire() {
  L lock;
  ASSERT_TRUE(lock.TryLockFor(1s));
  lock.unlock();
  // Past deadline, free lock: the enqueue wins before any deadline check.
  ASSERT_TRUE(lock.TryLockUntil(std::chrono::steady_clock::now() - 1s));
  lock.unlock();
}

// Holds the lock on the main thread while a second thread runs a timed
// acquire to its deadline; then lets the canceller reap its zombie QNode
// (reaping happens on the owning thread's next arena acquire).
template <typename L>
void TimesOutWhileHeld() {
  const std::uint64_t zombies_before = OutstandingZombieQNodes();
  {
    L lock;
    std::atomic<bool> timed_out{false};
    std::atomic<bool> unlocked{false};
    lock.lock();
    std::thread waiter([&] {
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_FALSE(lock.TryLockFor(50ms));
      EXPECT_GE(std::chrono::steady_clock::now() - t0, 45ms);
      timed_out.store(true, std::memory_order_release);
      while (!unlocked.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(1ms);
      }
      // The unlock above reclaimed our cancelled node; this acquire reaps it.
      lock.lock();
      lock.unlock();
    });
    while (!timed_out.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(1ms);
    }
    lock.unlock();  // Walks over the cancelled husk and reclaims it.
    unlocked.store(true, std::memory_order_release);
    waiter.join();
    // Queue must be healthy after the cancellation.
    lock.lock();
    lock.unlock();
  }
  EXPECT_EQ(OutstandingZombieQNodes(), zombies_before);
}

// Oversubscribed mixed storm: timed acquires with tiny random deadlines
// interleaved with blocking acquires. Asserts mutual exclusion throughout
// and full zombie drain afterwards.
template <typename L>
void CancelStorm() {
  const std::uint64_t zombies_before = OutstandingZombieQNodes();
  {
    L lock;
    const int threads = 8;
    const int iters = ScaledIters(2000, threads);
    std::atomic<int> in_cs{0};
    std::atomic<int> remaining{threads};
    test::StallWatchdog watchdog(20s, [] {
      std::fprintf(stderr, "outstanding zombie qnodes: %llu\n",
                   static_cast<unsigned long long>(OutstandingZombieQNodes()));
    });
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 13u);
        std::uniform_int_distribution<int> wait_us(0, 50);
        for (int i = 0; i < iters; ++i) {
          watchdog.Beat();
          bool acquired;
          if (i % 4 == 0) {
            lock.lock();
            acquired = true;
          } else {
            acquired = lock.TryLockFor(std::chrono::microseconds(wait_us(rng)));
          }
          if (acquired) {
            EXPECT_EQ(in_cs.fetch_add(1, std::memory_order_acq_rel), 0);
            in_cs.fetch_sub(1, std::memory_order_acq_rel);
            lock.unlock();
          }
        }
        // Rendezvous, then reap: once every worker is done looping, all
        // cancelled nodes have been reclaimed by the final unlock walks,
        // and one more acquire returns this thread's zombies to its arena.
        remaining.fetch_sub(1, std::memory_order_acq_rel);
        while (remaining.load(std::memory_order_acquire) > 0) {
          std::this_thread::sleep_for(1ms);
        }
        lock.lock();
        lock.unlock();
      });
    }
    for (auto& th : pool) {
      th.join();
    }
  }
  EXPECT_EQ(OutstandingZombieQNodes(), zombies_before);
}

// ---------------------------------------------------------------------------
// Per-family instantiations.

#define MALTHUS_TIMED_LOCK_SUITE(Name, Type)                        \
  TEST(TimedLock##Name, Uncontended) { UncontendedTimedAcquire<Type>(); } \
  TEST(TimedLock##Name, TimesOutWhileHeld) { TimesOutWhileHeld<Type>(); } \
  TEST(TimedLock##Name, CancelStorm) { CancelStorm<Type>(); }

MALTHUS_TIMED_LOCK_SUITE(McsSpin, McsSpinLock)
MALTHUS_TIMED_LOCK_SUITE(McsStp, McsStpLock)
MALTHUS_TIMED_LOCK_SUITE(McscrSpin, McscrSpinLock)
MALTHUS_TIMED_LOCK_SUITE(McscrStp, McscrStpLock)
MALTHUS_TIMED_LOCK_SUITE(LifoCrSpin, LifoCrSpinLock)
MALTHUS_TIMED_LOCK_SUITE(LifoCrStp, LifoCrStpLock)
MALTHUS_TIMED_LOCK_SUITE(McscrnSpin, McscrnSpinLock)
MALTHUS_TIMED_LOCK_SUITE(McscrnStp, McscrnStpLock)
MALTHUS_TIMED_LOCK_SUITE(Loiter, LoiterLock)
MALTHUS_TIMED_LOCK_SUITE(PthreadStyle, PthreadStyleMutex)
MALTHUS_TIMED_LOCK_SUITE(Ttas, TtasLock)
MALTHUS_TIMED_LOCK_SUITE(Throttled, ThrottledLock<TtasLock>)

#undef MALTHUS_TIMED_LOCK_SUITE

// Timeout counters tick where the family exposes them.
TEST(TimedLockCounters, TimeoutsCounted) {
  McsStpLock lock;
  lock.lock();
  std::thread waiter([&] { EXPECT_FALSE(lock.TryLockFor(10ms)); });
  waiter.join();
  EXPECT_EQ(lock.timeouts(), 1u);
  lock.unlock();
}

TEST(WorkerDrain, ReapZombieQNodesClearsTimedWaiterHusks) {
  // A waiter that times out on a queue lock zombies its QNode; the husk is
  // pinned until the owner's unlock walk reclaims it. ReapZombieQNodes()
  // counts the calling thread's husks still pinned, and reaps the rest.
  const std::uint64_t before = OutstandingZombieQNodes();
  McsStpLock lock;
  lock.lock();
  std::atomic<bool> timed_out{false};
  std::thread waiter([&] {
    EXPECT_FALSE(lock.TryLockFor(5ms));  // times out behind the held lock
    timed_out.store(true);
    // Bounded drain loop: the pin lasts until the owner unlocks.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (ReapZombieQNodes() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(ReapZombieQNodes(), 0u);
  });
  while (!timed_out.load()) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(OutstandingZombieQNodes(), before + 1);  // husk exists
  lock.unlock();  // owner's walk skips + reclaims the husk
  waiter.join();
  EXPECT_EQ(OutstandingZombieQNodes(), before);
}

// ---------------------------------------------------------------------------
// AnyLock virtual surface (satellite: conservative poll default + native
// forwarding through LockAdapter).

TEST(AnyLockTimed, UncontendedAllRegistryLocks) {
  for (const auto& name : AllLockNames()) {
    auto lock = MakeLock(name);
    ASSERT_NE(lock, nullptr) << name;
    EXPECT_TRUE(lock->TryLockFor(1s)) << name;
    lock->unlock();
  }
}

TEST(AnyLockTimed, TimesOutWhileHeldAllRegistryLocks) {
  for (const auto& name : AllLockNames()) {
    // "null" cannot be held; "clh" has neither a native timed path nor
    // try_lock, so its adapter degrades to a blocking acquire (documented).
    if (name == "null" || name == "clh") {
      continue;
    }
    auto lock = MakeLock(name);
    ASSERT_NE(lock, nullptr) << name;
    lock->lock();
    std::thread waiter([&] { EXPECT_FALSE(lock->TryLockFor(30ms)) << name; });
    waiter.join();
    lock->unlock();
    lock->lock();
    lock->unlock();
  }
}

// ---------------------------------------------------------------------------
// Timed semaphore / condvar / blocking queue.

TEST(TimedSemaphore, PermitAvailable) {
  CrSemaphore sem(1);
  EXPECT_TRUE(sem.TryWaitFor(1s));
  EXPECT_EQ(sem.Count(), 0);
}

TEST(TimedSemaphore, TimesOutEmpty) {
  CrSemaphore sem(0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(sem.TryWaitFor(30ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
  EXPECT_EQ(sem.WaiterCount(), 0u);  // The timed waiter unlinked itself.
  EXPECT_EQ(sem.Timeouts(), 1u);
  // A later Post must bank the permit, not signal the departed waiter.
  sem.Post();
  EXPECT_EQ(sem.Count(), 1);
}

TEST(TimedSemaphore, GrantBeatsTimeout) {
  // A poster races many short-deadline waiters; every permit posted must be
  // consumed by exactly one waiter (none lost to a cancelling waiter).
  CrSemaphore sem(0);
  const int waiters = 4;
  const int rounds = ScaledIters(500, waiters + 1);
  std::atomic<int> consumed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < waiters; ++t) {
    pool.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (sem.TryWaitFor(std::chrono::microseconds(50))) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < rounds; ++i) {
    sem.Post();
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  // Every posted permit is either consumed or still banked in the count.
  while (consumed.load(std::memory_order_acquire) + sem.Count() < rounds) {
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) {
    th.join();
  }
  EXPECT_EQ(consumed.load() + sem.Count(), rounds);
}

TEST(TimedCondVar, TimesOutAndUnlinks) {
  CrCondVar cv;
  McsStpLock lock;
  lock.lock();
  EXPECT_FALSE(cv.WaitFor(lock, 30ms));
  lock.unlock();
  EXPECT_EQ(cv.WaiterCount(), 0u);
  EXPECT_EQ(cv.Timeouts(), 1u);
}

TEST(TimedCondVar, SignalBeatsTimeout) {
  CrCondVar cv;
  McsStpLock lock;
  std::atomic<bool> flag{false};
  std::thread waiter([&] {
    lock.lock();
    const bool ok = cv.WaitUntil(lock, std::chrono::steady_clock::now() + 5s,
                                 [&] { return flag.load(std::memory_order_acquire); });
    lock.unlock();
    EXPECT_TRUE(ok);
  });
  while (cv.WaiterCount() == 0) {
    std::this_thread::sleep_for(1ms);
  }
  lock.lock();
  flag.store(true, std::memory_order_release);
  lock.unlock();
  cv.Signal();
  waiter.join();
}

TEST(TimedBlockingQueue, PopTimesOutEmptyPushTimesOutFull) {
  BoundedBlockingQueue<int, McsStpLock> q(1);
  int out = 0;
  EXPECT_FALSE(q.PopFor(&out, 20ms));
  EXPECT_TRUE(q.PushFor(1, 20ms));
  EXPECT_FALSE(q.PushFor(2, 20ms));  // Full.
  EXPECT_TRUE(q.PopFor(&out, 20ms));
  EXPECT_EQ(out, 1);
}

TEST(TimedBlockingQueue, TimedProducerConsumerFlow) {
  BoundedBlockingQueue<int, McsStpLock> q(4);
  const int items = ScaledIters(5000, 2);
  std::thread producer([&] {
    for (int i = 0; i < items; ++i) {
      while (!q.PushFor(i, 1ms)) {
      }
    }
  });
  long long sum = 0;
  int received = 0;
  while (received < items) {
    int v;
    if (q.PopFor(&v, 1ms)) {
      sum += v;
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(items) * (items - 1) / 2);
}

}  // namespace
}  // namespace malthus
