// FailPoint-driven chaos tests: deterministic coverage of the few-
// instruction races in the grant/splice/park paths, plus an oversubscribed
// randomized storm with every chaos site armed.
//
// All tests skip in builds without -DMALTHUS_FAILPOINTS=ON (the chaos CI
// job compiles them in); the suite must pass deterministically there with
// zero hangs, zero leaked QNodes, and zero TSan reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/chaos/failpoint.h"
#include "src/core/lifocr.h"
#include "src/core/loiter.h"
#include "src/core/mcscr.h"
#include "src/core/mcscrn.h"
#include "src/locks/any_lock.h"
#include "src/locks/lock_base.h"
#include "src/locks/mcs.h"
#include "src/locks/pthread_style.h"
#include "src/platform/cpu.h"
#include "src/platform/park.h"
#include "src/platform/thread_registry.h"
#include "tests/contention.h"
#include "tests/watchdog.h"

namespace malthus {
namespace {

using test::ScaledIters;
using namespace std::chrono_literals;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without MALTHUS_FAILPOINTS";
    }
    failpoint::Reset();
  }
  void TearDown() override {
    if (failpoint::kCompiledIn) {
      failpoint::Reset();
    }
  }
};

// ---------------------------------------------------------------------------
// Framework basics.

TEST_F(ChaosTest, TriggerFiresWhenArmedNotAfterReset) {
  EXPECT_FALSE(MALTHUS_FAILPOINT_TRIGGERED("chaos.test.site"));
  failpoint::Configure("chaos.test.site", {.action = failpoint::Action::kTrigger});
  EXPECT_TRUE(MALTHUS_FAILPOINT_TRIGGERED("chaos.test.site"));
  EXPECT_EQ(failpoint::Fires("chaos.test.site"), 1u);
  failpoint::Reset();
  EXPECT_FALSE(MALTHUS_FAILPOINT_TRIGGERED("chaos.test.site"));
  EXPECT_EQ(failpoint::Fires("chaos.test.site"), 0u);
}

TEST_F(ChaosTest, MaxHitsBoundsFires) {
  failpoint::Configure("chaos.test.maxhits",
                       {.action = failpoint::Action::kTrigger, .max_hits = 2});
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (MALTHUS_FAILPOINT_TRIGGERED("chaos.test.maxhits")) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 2);
}

TEST_F(ChaosTest, SeededProbabilityIsReproducible) {
  auto draw = [](std::uint64_t seed) {
    failpoint::Reset();
    failpoint::SetSeed(seed);
    failpoint::Configure("chaos.test.prob",
                         {.action = failpoint::Action::kTrigger, .probability = 0.5});
    std::uint64_t pattern = 0;
    for (int i = 0; i < 64; ++i) {
      pattern = (pattern << 1) | (MALTHUS_FAILPOINT_TRIGGERED("chaos.test.prob") ? 1u : 0u);
    }
    return pattern;
  };
  const std::uint64_t a = draw(42);
  const std::uint64_t b = draw(42);
  const std::uint64_t c = draw(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);          // p=0.5 over 64 draws: all-zero means a broken RNG.
  EXPECT_NE(a, ~0ull);
  EXPECT_NE(a, c) << "different seeds should diverge";
}

// ---------------------------------------------------------------------------
// Satellite: the PR 1 ParkFor timeout/permit race, driven deterministically.
// park.spurious forces every kernel wait to return immediately, so ParkFor
// spins through its retract CAS (kParked -> kNeutral) at maximum frequency
// while Unpark posts permits into the window. The invariants: a ParkFor
// with no permit never reports true, never returns before its deadline,
// and a posted permit is never lost (the loser of the retract CAS must
// consume it and report true).

TEST_F(ChaosTest, ParkForSpuriousWakesStillTimeOut) {
  failpoint::Configure("park.spurious", {.action = failpoint::Action::kTrigger});
  Parker& parker = Self().parker;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(parker.ParkFor(30ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
}

TEST_F(ChaosTest, ParkForPermitRaceNeverLosesPermits) {
  failpoint::Configure("park.spurious", {.action = failpoint::Action::kTrigger});
  std::atomic<int> consumed{0};
  std::atomic<int> posted{0};
  std::atomic<bool> stop{false};
  Parker* waiter_parker = nullptr;
  std::atomic<bool> ready{false};
  std::thread waiter([&] {
    waiter_parker = &Self().parker;
    ready.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      // Deadline chosen so the retract CAS races the poster's permit store
      // as often as possible.
      if (Self().parker.ParkFor(std::chrono::microseconds(20))) {
        consumed.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    // Drain a possibly in-flight final permit so accounting closes.
    if (Self().parker.ParkFor(10ms)) {
      consumed.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  while (!ready.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(1ms);
  }
  const int rounds = ScaledIters(2000, 2);
  for (int i = 0; i < rounds; ++i) {
    // Post a permit only after the previous one was consumed: permits are
    // sticky and collapse, so pacing them 1:1 makes the count exact.
    waiter_parker->Unpark();
    posted.fetch_add(1, std::memory_order_acq_rel);
    while (consumed.load(std::memory_order_acquire) < posted.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  stop.store(true, std::memory_order_release);
  waiter.join();
  EXPECT_EQ(consumed.load(), posted.load());
}

// ---------------------------------------------------------------------------
// The chaos storm: every injection site armed with randomized yields and
// delays, 4x oversubscription, blocking and try_lock() acquires over every
// parking lock. The watchdog converts any lost wakeup into a failure with a
// state dump in well under the ctest timeout.

void ArmAllSitesRandomized() {
  const failpoint::SiteConfig yield{.action = failpoint::Action::kYield, .probability = 0.05};
  const failpoint::SiteConfig delay{
      .action = failpoint::Action::kDelay, .probability = 0.05, .delay_iters = 500};
  for (const char* site :
       {"park.spurious", "park.unpark.delay", "mcs.grant", "mcscr.fairness", "mcscr.refill",
        "mcscr.cull", "mcscr.grant", "lifocr.fairness", "lifocr.pop", "mcscrn.refill",
        "mcscrn.cull", "mcscrn.grant", "mcscrn.rotate", "pthread.pop", "loiter.handoff",
        "sem.post", "condvar.signal"}) {
    failpoint::Configure(site, std::string(site).find("park.") == 0 ? yield : delay);
  }
  // Wake-ahead elision is armed separately at low probability: it converts
  // hints into no-ops, which every wait must absorb.
  failpoint::Configure("park.wakeahead.elide",
                       {.action = failpoint::Action::kTrigger, .probability = 0.2});
  failpoint::Configure("park.wakeahead.delay", delay);
}

void DumpChaosState() {
  std::fprintf(stderr, "qnode slots live: %llu\n",
               static_cast<unsigned long long>(QNodeSlab().SlotsLive()));
  std::fprintf(stderr, "total kernel parks=%llu wakes=%llu wake-aheads=%llu\n",
               static_cast<unsigned long long>(TotalKernelParks()),
               static_cast<unsigned long long>(TotalKernelWakes()),
               static_cast<unsigned long long>(TotalWakeAheads()));
  for (const auto& site : failpoint::Sites()) {
    std::fprintf(stderr, "  site %-22s hits=%llu fires=%llu\n", site.name.c_str(),
                 static_cast<unsigned long long>(site.hits),
                 static_cast<unsigned long long>(site.fires));
  }
}

template <typename L>
void ChaosStorm(const char* label) {
  // Fill this thread's own QNode pool first, so its first refill cannot
  // move the count.
  ReleaseQNode(AcquireQNode());
  const std::uint64_t qnodes_live = QNodeSlab().SlotsLive();
  {
    L lock;
    ArmAllSitesRandomized();
    const int threads = 4 * std::max(1, EffectiveCpuCount());
    const int iters = ScaledIters(1500, threads);
    std::atomic<int> in_cs{0};
    std::atomic<int> remaining{threads};
    test::StallWatchdog watchdog(25s, DumpChaosState);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = 0; i < iters; ++i) {
          watchdog.Beat();
          bool acquired;
          if ((i + t) % 3 == 0) {
            lock.lock();
            acquired = true;
          } else {
            acquired = lock.try_lock();
          }
          if (acquired) {
            EXPECT_EQ(in_cs.fetch_add(1, std::memory_order_acq_rel), 0) << label;
            in_cs.fetch_sub(1, std::memory_order_acq_rel);
            if (i % 8 == 0) {
              lock.PrepareHandover();
            }
            lock.unlock();
          }
        }
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
    failpoint::Reset();
  }
  // Every exited thread handed its QNodes back to the slab.
  EXPECT_EQ(QNodeSlab().SlotsLive(), qnodes_live) << label;
}

TEST_F(ChaosTest, StormMcsStp) { ChaosStorm<McsStpLock>("mcs-stp"); }
TEST_F(ChaosTest, StormMcscrStp) { ChaosStorm<McscrStpLock>("mcscr-stp"); }
TEST_F(ChaosTest, StormLifoCrStp) { ChaosStorm<LifoCrStpLock>("lifocr-stp"); }
TEST_F(ChaosTest, StormMcscrnStp) { ChaosStorm<McscrnStpLock>("mcscrn-stp"); }
TEST_F(ChaosTest, StormLoiter) { ChaosStorm<LoiterLock>("loiter"); }
TEST_F(ChaosTest, StormPthreadStyle) { ChaosStorm<PthreadStyleMutex>("pthread-style"); }

// ---------------------------------------------------------------------------
// Splice before grant. MCSCR's deficit refill and fairness graft, and
// MCSCRN's refill and home rotation, pop a passive waiter, splice it into
// the chain, and only then store kGranted. A delay between the pop and the
// grant store, while the popped waiter still spins on another CPU, must not
// let the waiter in early: it leaves its wait only on kGranted, and the
// grant store follows the splice. A grant stored before the splice would
// let the new owner release the lock through the granter's node while the
// granter is still splicing: two threads own the lock, or a tail is left
// unlinked and an unlock spins forever in SpinForSuccessor, which the
// watchdog turns into an abort. On one CPU the popped waiter cannot spin
// during the delay, and a thread may finish its loop inside one time
// slice, so there the test only checks that whatever paths run stay
// correct.

template <typename L, typename Options>
void ClaimedWaiterWaitsForGrantCommit(const Options& opts, const char* site) {
  failpoint::Configure(site,
                       {.action = failpoint::Action::kDelay, .max_hits = 400, .delay_iters = 20000});
  L lock(opts);
  constexpr int kThreads = 4;
  const int iters = ScaledIters(2000, kThreads);
  std::atomic<int> owners{0};
  std::atomic<int> max_owners{0};
  std::uint64_t entries = 0;  // Guarded by `lock`.
  std::atomic<int> ready{0};
  test::StallWatchdog watchdog(10s, DumpChaosState);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      // Start together, so the chain holds surplus waiters to cull.
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (int i = 0; i < iters; ++i) {
        watchdog.Beat();
        lock.lock();
        const int inside = owners.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = max_owners.load(std::memory_order_relaxed);
        while (inside > seen && !max_owners.compare_exchange_weak(seen, inside)) {
        }
        ++entries;
        for (int k = 0; k < 64; ++k) {
          CpuRelax();
        }
        owners.fetch_sub(1, std::memory_order_acq_rel);
        lock.unlock();
        // Uneven think time empties the chain now and then, so unlocks
        // reach the deficit refill as well as the culls that feed it.
        for (int k = (i * 7919) % 1024; k > 0; --k) {
          CpuRelax();
        }
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  if (!test::SingleCpuHost()) {
    EXPECT_GT(failpoint::Fires(site), 0u) << site;
  }
  failpoint::Reset();
  EXPECT_EQ(max_owners.load(), 1) << site;
  EXPECT_EQ(entries, static_cast<std::uint64_t>(kThreads) * iters) << site;
}

// The pinned spin budget (about 2.6 ms at 20 ns per spin iteration) keeps a
// culled waiter spinning through the 20000-iteration delay instead of
// parking.
constexpr std::uint32_t kClaimedSpinBudget = 1u << 17;

TEST_F(ChaosTest, ClaimedGrantMcscrRefill) {
  ClaimedWaiterWaitsForGrantCommit<McscrStpLock>(
      McscrOptions{.fairness_one_in = 0, .spin_budget = kClaimedSpinBudget}, "mcscr.refill");
}
TEST_F(ChaosTest, ClaimedGrantMcscrFairness) {
  ClaimedWaiterWaitsForGrantCommit<McscrStpLock>(
      McscrOptions{.fairness_one_in = 2, .spin_budget = kClaimedSpinBudget}, "mcscr.fairness");
}
TEST_F(ChaosTest, ClaimedGrantMcscrnRefill) {
  ClaimedWaiterWaitsForGrantCommit<McscrnStpLock>(
      McscrnOptions{.fairness_one_in = 0, .spin_budget = kClaimedSpinBudget}, "mcscrn.refill");
}
TEST_F(ChaosTest, ClaimedGrantMcscrnRotate) {
  ClaimedWaiterWaitsForGrantCommit<McscrnStpLock>(
      McscrnOptions{.fairness_one_in = 2, .spin_budget = kClaimedSpinBudget}, "mcscrn.rotate");
}

// Echo the seed so a failing randomized run can be replayed with
// MALTHUS_CHAOS_SEED (the chaos CI job greps for this line).
TEST_F(ChaosTest, EchoSeedForReplay) {
  failpoint::ConfigureFromEnv();
  std::fprintf(stderr, "MALTHUS_CHAOS_SEED=%llu\n",
               static_cast<unsigned long long>(failpoint::Seed()));
}

}  // namespace
}  // namespace malthus
