// MCSCR-specific behaviour: culling, work conservation, long-term fairness,
// LWSS reduction versus classic MCS, MCS degeneracy, and option handling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/mcscr.h"
#include "src/locks/mcs.h"
#include "src/metrics/admission_log.h"
#include "tests/contention.h"

namespace malthus {
namespace {

// Runs `threads` contenders hammering `lock` for `duration`, returning the
// admission report. `Lock` must expose set_recorder.
template <typename Lock>
FairnessReport Hammer(Lock& lock, int threads, std::chrono::milliseconds duration,
                      std::vector<std::uint64_t>* per_thread_acquires = nullptr) {
  AdmissionLog log(1 << 20);
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> acquires(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock();
        lock.unlock();
        ++local;
      }
      acquires[static_cast<std::size_t>(t)] = local;
    });
  }
  // Barrier: attach the recorder only once all threads are circulating, so
  // startup skew does not pollute the admission history.
  while (ready.load() != threads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.set_recorder(&log);
  std::this_thread::sleep_for(duration);
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  lock.set_recorder(nullptr);
  if (per_thread_acquires != nullptr) {
    *per_thread_acquires = acquires;
  }
  return log.Report(1000);
}

TEST(Mcscr, CullingEngagesUnderContention) {
  McscrStpLock lock;
  Hammer(lock, 8, std::chrono::milliseconds(200));
  EXPECT_GT(lock.culls(), 0u);
}

TEST(Mcscr, PassiveSetDrainsAtQuiescence) {
  McscrStpLock lock;
  Hammer(lock, 8, std::chrono::milliseconds(200));
  // Work conservation: once all threads have stopped and released, nobody
  // may be stranded in the passive set.
  EXPECT_EQ(lock.passive_set_size(), 0u);
  lock.lock();  // Lock must still be acquirable.
  lock.unlock();
}

TEST(Mcscr, ReducesLwssRelativeToMcs) {
  if (test::SingleCpuHost()) {
    GTEST_SKIP() << "LWSS restriction is concurrency-emergent (see tests/contention.h)";
  }
  const int threads = 12;
  const auto duration = std::chrono::milliseconds(300);

  McsStpLock mcs;
  const FairnessReport mcs_report = Hammer(mcs, threads, duration);

  McscrStpLock mcscr;
  const FairnessReport cr_report = Hammer(mcscr, threads, duration);

  // MCS admits round-robin: LWSS == thread count. CR clamps the circulating
  // set far below that.
  EXPECT_GT(mcs_report.average_lwss, threads * 0.8);
  EXPECT_LT(cr_report.average_lwss, mcs_report.average_lwss * 0.7);
  EXPECT_LT(cr_report.mttr, mcs_report.mttr);
}

TEST(Mcscr, LongTermFairnessReachesEveryThread) {
  McscrOptions opts;
  opts.fairness_one_in = 200;
  McscrStpLock lock(opts);
  std::vector<std::uint64_t> acquires;
  Hammer(lock, 8, std::chrono::milliseconds(400), &acquires);
  for (std::size_t t = 0; t < acquires.size(); ++t) {
    EXPECT_GT(acquires[t], 0u) << "thread " << t << " starved";
  }
  EXPECT_GT(lock.fairness_grants(), 0u);
}

TEST(Mcscr, FairnessDisabledAllowsStarvationButCullsHard) {
  if (test::SingleCpuHost()) {
    GTEST_SKIP() << "LWSS restriction is concurrency-emergent (see tests/contention.h)";
  }
  McscrOptions opts;
  opts.fairness_one_in = 0;  // Pure CR.
  McscrStpLock lock(opts);
  const FairnessReport report = Hammer(lock, 8, std::chrono::milliseconds(200));
  EXPECT_EQ(lock.fairness_grants(), 0u);
  // The ACS should be tiny: the owner plus about one waiter circulating.
  EXPECT_LT(report.average_lwss, 5.0);
}

TEST(Mcscr, CullLimitZeroDegeneratesToMcs) {
  McscrOptions opts;
  opts.cull_limit = 0;
  opts.fairness_one_in = 0;
  McscrStpLock lock(opts);
  const int threads = 8;
  const FairnessReport report = Hammer(lock, threads, std::chrono::milliseconds(200));
  EXPECT_EQ(lock.culls(), 0u);
  EXPECT_EQ(lock.passive_set_size(), 0u);
  // Round-robin admission: LWSS equals the thread count.
  EXPECT_GT(report.average_lwss, threads * 0.8);
}

TEST(Mcscr, DrainCullingConvergesFaster) {
  if (test::SingleCpuHost()) {
    GTEST_SKIP() << "LWSS restriction is concurrency-emergent (see tests/contention.h)";
  }
  McscrOptions drain;
  drain.cull_limit = UINT32_MAX;
  drain.fairness_one_in = 0;
  McscrStpLock lock(drain);
  const FairnessReport report = Hammer(lock, 12, std::chrono::milliseconds(200));
  EXPECT_GT(lock.culls(), 0u);
  EXPECT_LT(report.average_lwss, 5.0);
}

TEST(Mcscr, UncontendedPathMatchesMcsExactly) {
  McscrStpLock lock;
  for (int i = 0; i < 200000; ++i) {
    lock.lock();
    lock.unlock();
  }
  EXPECT_EQ(lock.culls(), 0u);
  EXPECT_EQ(lock.reprovisions(), 0u);
  EXPECT_EQ(lock.fairness_grants(), 0u);
}

TEST(Mcscr, SpinVariantAlsoRestricts) {
  if (test::SingleCpuHost()) {
    GTEST_SKIP() << "LWSS restriction is concurrency-emergent (see tests/contention.h)";
  }
  McscrSpinLock lock;
  const FairnessReport report = Hammer(lock, 8, std::chrono::milliseconds(200));
  EXPECT_GT(lock.culls(), 0u);
  EXPECT_LT(report.average_lwss, 6.0);
}

TEST(Mcscr, MttrTracksAcsSize) {
  // Under CR the median reacquire distance reflects the small ACS, not the
  // full population (paper Figure 4: MTTR 3 vs 31 at 32 threads).
  McscrStpLock lock;
  const FairnessReport report = Hammer(lock, 12, std::chrono::milliseconds(300));
  EXPECT_LT(report.mttr, 6.0);
}

TEST(Mcscr, ManyLocksIndependentPassiveSets) {
  // CR state is per-lock; hammering two locks from disjoint thread groups
  // must not interfere.
  McscrStpLock lock_a;
  McscrStpLock lock_b;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock_a.lock();
        lock_a.unlock();
      }
    });
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock_b.lock();
        lock_b.unlock();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(lock_a.passive_set_size(), 0u);
  EXPECT_EQ(lock_b.passive_set_size(), 0u);
}

TEST(Mcscr, NestedMcscrLocksDoNotDeadlockOrCorrupt) {
  // A thread holding one MCSCR lock can block on a second; queue nodes come
  // from the per-thread pool and must not alias.
  McscrStpLock outer;
  McscrStpLock inner;
  std::uint64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        outer.lock();
        inner.lock();
        ++counter;
        inner.unlock();
        outer.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, 6u * 3000u);
}

TEST(Mcscr, BurstyLoadReprovisionsFromPassiveSet) {
  // Alternating bursts force deficits: when the chain empties, passivated
  // threads must be re-activated rather than stranded.
  if (test::SingleCpuHost()) {
    GTEST_SKIP() << "deficit re-provisioning needs a passive set, which needs "
                    "concurrent surplus waiters (see tests/contention.h)";
  }
  McscrStpLock lock;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng(static_cast<std::uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock();
        lock.unlock();
        if (rng.BernoulliOneIn(100)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_GT(lock.reprovisions(), 0u);
  EXPECT_EQ(lock.passive_set_size(), 0u);
}

}  // namespace
}  // namespace malthus
