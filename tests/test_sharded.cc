// ShardedTable layer: aggregate-stat invariants, per-shard capacity bounds,
// a differential check of the sharded structures against their unsharded
// originals over a recorded op trace, concurrent mixed-op stress under a
// stall watchdog, and a FailPoint chaos storm over the sharded ops that
// checks every worker hands its QNodes back to the slab.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/chaos/failpoint.h"
#include "src/kchash/kchash.h"
#include "src/locks/lock_base.h"
#include "src/locks/mcs.h"
#include "src/locks/tas.h"
#include "src/minidb/minidb.h"
#include "src/minidb/simple_lru.h"
#include "src/rng/xorshift.h"
#include "src/sharded/sharded_kchash.h"
#include "src/sharded/sharded_lru.h"
#include "src/sharded/sharded_table.h"
#include "tests/contention.h"
#include "tests/watchdog.h"

namespace malthus {
namespace {

using test::ScaledIters;
using test::StallWatchdog;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Shard-count normalization and hash spread.

TEST(ShardedTable, NormalizesShardCountToPowersOfTwo) {
  EXPECT_EQ(NormalizeShardCount(0), 1u);
  EXPECT_EQ(NormalizeShardCount(1), 1u);
  EXPECT_EQ(NormalizeShardCount(2), 2u);
  EXPECT_EQ(NormalizeShardCount(3), 4u);
  EXPECT_EQ(NormalizeShardCount(4), 4u);
  EXPECT_EQ(NormalizeShardCount(5), 8u);
  EXPECT_EQ(NormalizeShardCount(16), 16u);
  EXPECT_EQ(NormalizeShardCount(17), 32u);
}

TEST(ShardedTable, MixHashSpreadsSequentialKeys) {
  // Sequential keys (the minidb block-id pattern) must not pile onto one
  // shard: over 16 shards and 16k keys, every shard should see a share
  // within 3x of fair.
  ShardedKcHash<TtasLock> table(1 << 10, 1 << 20, 16);
  std::vector<int> per_shard(table.shard_count(), 0);
  for (std::uint64_t key = 0; key < 16384; ++key) {
    ++per_shard[table.ShardIndex(key)];
  }
  const int fair = 16384 / static_cast<int>(table.shard_count());
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    EXPECT_GT(per_shard[i], fair / 3) << "shard " << i << " starved";
    EXPECT_LT(per_shard[i], fair * 3) << "shard " << i << " overloaded";
  }
}

// ---------------------------------------------------------------------------
// Aggregate invariants.

TEST(ShardedTable, AggregateSizeEqualsSumOfShardSizes) {
  ShardedKcHash<TtasLock> table(1 << 8, 1 << 16, 8);
  XorShift64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    table.WickedStep(rng, 4096);
  }
  std::size_t summed = 0;
  table.table().ForEachShard(
      [&](std::size_t, KcHashCore& core, ShardCounters&) { summed += core.Size(); });
  EXPECT_EQ(table.Size(), summed);
  EXPECT_TRUE(table.CheckInvariants());
  // Hits + misses account for every Get issued by the wicked mix.
  EXPECT_GT(table.hits() + table.misses(), 0u);
}

TEST(ShardedLru, PerShardCapacityBoundHoldsUnderEviction) {
  // Total capacity 64 over 4 shards = 16 per shard. Hammering 10k distinct
  // keys must never push any shard past its bound, and the aggregate past
  // the total.
  ShardedLru<TtasLock> lru(64, 4);
  ASSERT_EQ(lru.shard_count(), 4u);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    lru.Insert(key, key * 3);
  }
  std::size_t total = 0;
  lru.table().ForEachShard([&](std::size_t i, LruCore& core, ShardCounters&) {
    EXPECT_LE(core.Size(), core.capacity()) << "shard " << i;
    EXPECT_LE(core.capacity(), 16u) << "shard " << i;
    total += core.Size();
  });
  EXPECT_LE(total, 64u);
  EXPECT_EQ(lru.Size(), total);
  EXPECT_GT(lru.evictions(), 0u);
  // Every present value is still the one installed.
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const auto v = lru.Lookup(key);
    if (v.has_value()) {
      EXPECT_EQ(*v, key * 3);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: sharded vs unsharded under a recorded op trace.
//
// With capacity above the key range, eviction never fires, and per-shard
// LRU is indistinguishable from global LRU: set/get/remove must agree
// op-for-op between LockedKcHash (one lock, one core) and ShardedKcHash
// (8 partitions) replaying the same recorded trace.

struct TraceOp {
  enum Kind : std::uint8_t { kSet, kGet, kRemove } kind;
  std::uint64_t key;
  std::string value;
};

TEST(ShardedDifferential, MatchesUnshardedUnderRecordedTrace) {
  XorShift64 rng(2025);
  std::vector<TraceOp> trace;
  trace.reserve(60000);
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t key = rng.NextBelow(512);
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2:
        trace.push_back({TraceOp::kSet, key, std::to_string(step)});
        break;
      case 3:
        trace.push_back({TraceOp::kRemove, key, {}});
        break;
      default:
        trace.push_back({TraceOp::kGet, key, {}});
        break;
    }
  }

  LockedKcHash<TtasLock> unsharded(1 << 10, 100000);
  ShardedKcHash<TtasLock> sharded(1 << 10, 800000, 8);  // 100k per shard
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    switch (op.kind) {
      case TraceOp::kSet:
        unsharded.Set(op.key, op.value);
        sharded.Set(op.key, op.value);
        break;
      case TraceOp::kRemove:
        EXPECT_EQ(sharded.Remove(op.key), unsharded.Remove(op.key)) << "op " << i;
        break;
      case TraceOp::kGet: {
        const auto want = unsharded.Get(op.key);
        const auto got = sharded.Get(op.key);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << i << " key " << op.key;
        if (got.has_value()) {
          EXPECT_EQ(*got, *want) << "op " << i;
        }
        break;
      }
    }
  }
  EXPECT_EQ(sharded.Size(), unsharded.core().Size());
  EXPECT_TRUE(sharded.CheckInvariants());
}

// The shards=1 degenerate case must also track the unsharded original
// through evicting workloads: one shard holds the whole capacity, so the
// global LRU order is identical.
TEST(ShardedDifferential, SingleShardMatchesUnshardedWithEvictions) {
  XorShift64 rng(404);
  LockedKcHash<TtasLock> unsharded(64, 200);
  ShardedKcHash<TtasLock> sharded(64, 200, 1);
  ASSERT_EQ(sharded.shard_count(), 1u);
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t key = rng.NextBelow(600);
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2: {
        const std::string value = std::to_string(step);
        unsharded.Set(key, value);
        sharded.Set(key, value);
        break;
      }
      case 3:
        EXPECT_EQ(sharded.Remove(key), unsharded.Remove(key)) << "step " << step;
        break;
      default: {
        const auto want = unsharded.Get(key);
        const auto got = sharded.Get(key);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got.has_value()) {
          EXPECT_EQ(*got, *want) << "step " << step;
        }
        break;
      }
    }
  }
  EXPECT_EQ(sharded.Size(), unsharded.core().Size());
  EXPECT_EQ(sharded.evictions(), unsharded.core().evictions());
}

// The same for the LRU, which the server's "lru" backend runs at one shard:
// lookups, counters and footnote-33 displacement attribution from two tids
// must match SimpleLru exactly through an evicting trace.
TEST(ShardedDifferential, SingleShardLruMatchesSimpleLruWithEvictions) {
  XorShift64 rng(405);
  SimpleLru<TtasLock> unsharded(200, /*track_displacement=*/true);
  ShardedLru<TtasLock> sharded(200, 1, /*track_displacement=*/true);
  ASSERT_EQ(sharded.shard_count(), 1u);
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t key = rng.NextBelow(600);
    const auto tid = static_cast<std::uint32_t>(1 + rng.NextBelow(2));
    if (rng.NextBelow(4) == 0) {
      unsharded.Insert(key, static_cast<std::uint64_t>(step), tid);
      sharded.Insert(key, static_cast<std::uint64_t>(step), tid);
      continue;
    }
    const auto want = unsharded.Lookup(key, tid);
    const auto got = sharded.Lookup(key, tid);
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (got.has_value()) {
      EXPECT_EQ(*got, *want) << "step " << step;
    }
  }
  EXPECT_EQ(sharded.Size(), unsharded.Size());
  EXPECT_EQ(sharded.evictions(), unsharded.evictions());
  EXPECT_EQ(sharded.hits(), unsharded.hits());
  EXPECT_EQ(sharded.misses(), unsharded.misses());
  EXPECT_EQ(sharded.self_displacements(), unsharded.self_displacements());
  EXPECT_EQ(sharded.extrinsic_displacements(),
            unsharded.extrinsic_displacements());
  // The trace exercises both kinds of displacement.
  EXPECT_GT(unsharded.self_displacements(), 0u);
  EXPECT_GT(unsharded.extrinsic_displacements(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent mixed-op stress under a stall watchdog.

TEST(ShardedStress, ConcurrentMixedOpsStaySane) {
  constexpr int kThreads = 8;
  const int iters = ScaledIters(40000, kThreads);
  ShardedKcHash<McsStpLock> table(1 << 8, 2000, 4);
  StallWatchdog watchdog(30s, [&] {
    std::fprintf(stderr, "sharded stress stalled: size=%zu\n", table.Size());
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng(static_cast<std::uint64_t>(t) + 77);
      for (int i = 0; i < iters; ++i) {
        table.WickedStep(rng, 5000);
        if ((i & 255) == 0) {
          watchdog.Beat();
        }
      }
      watchdog.Beat();
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_TRUE(table.CheckInvariants());
  EXPECT_LE(table.Size(), 2048u);  // per-shard 500 x 4 shards + rounding
  std::size_t summed = 0;
  table.table().ForEachShard(
      [&](std::size_t, KcHashCore& core, ShardCounters&) { summed += core.Size(); });
  EXPECT_EQ(table.Size(), summed);
}

TEST(ShardedStress, ShardedLruConcurrentValuesStayConsistent) {
  constexpr int kThreads = 6;
  const int iters = ScaledIters(20000, kThreads);
  ShardedLru<McsStpLock> lru(1000, 4);
  StallWatchdog watchdog(30s, [&] {
    std::fprintf(stderr, "sharded lru stalled: size=%zu\n", lru.Size());
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < iters; ++i) {
        const std::uint64_t k = rng.NextBelow(5000);
        if (rng.NextBelow(10) == 0) {
          lru.Insert(k, k * 2, static_cast<std::uint32_t>(t));
        } else if (!lru.Lookup(k).has_value()) {
          lru.Insert(k, k * 2, static_cast<std::uint32_t>(t));
        }
        if ((i & 255) == 0) {
          watchdog.Beat();
        }
      }
      watchdog.Beat();
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_LE(lru.Size(), 1024u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const auto v = lru.Lookup(k);
    if (v.has_value()) {
      EXPECT_EQ(*v, k * 2);
    }
  }
}

// The sharded minidb block cache: hits must serve the latest committed
// value even while a writer churns generations (the PR 8 hit-path fix
// under shards > 1).
TEST(ShardedStress, ShardedMiniDbReadWhileWriting) {
  MiniDb<McsStpLock> db(/*cache_blocks=*/256, /*cache_shards=*/4);
  db.Put(1, "0");
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&] {
    int v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      db.Put(1, std::to_string(++v));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = db.Get(1, static_cast<std::uint32_t>(r));
        if (!v.has_value()) {
          torn.store(true);
          break;
        }
        const std::uint64_t now = std::stoull(*v);
        if (now + 1 < last) {
          torn.store(true);
          break;
        }
        last = now;
      }
    });
  }
  std::this_thread::sleep_for(300ms);
  stop.store(true);
  writer.join();
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_GT(db.reads(), 0u);
}

// ---------------------------------------------------------------------------
// FailPoint chaos: the sharded mixed-op storm with the MCS grant window
// widened. Skips in builds without -DMALTHUS_FAILPOINTS=ON.

TEST(ShardedChaos, MixedOpStormUnderFailPoints) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built without MALTHUS_FAILPOINTS";
  }
  // Reuse the MALTHUS_CHAOS / MALTHUS_CHAOS_SEED plumbing: env config wins
  // (the chaos CI job's randomized seed); otherwise arm the lock-path sites
  // deterministically.
  failpoint::Reset();
  failpoint::ConfigureFromEnv();
  std::fprintf(stderr, "MALTHUS_CHAOS_SEED=%llu\n",
               static_cast<unsigned long long>(failpoint::Seed()));
  failpoint::Configure("mcs.grant",
                       {.action = failpoint::Action::kYield, .probability = 0.2});

  // Fill this thread's own QNode pool before the baseline read.
  ReleaseQNode(AcquireQNode());
  const std::uint64_t qnodes_live = QNodeSlab().SlotsLive();
  {
    constexpr int kThreads = 6;
    const int iters = ScaledIters(8000, kThreads);
    ShardedKcHash<McsStpLock> table(1 << 6, 1024, 4);
    StallWatchdog watchdog(60s, [&] {
      std::fprintf(stderr, "sharded chaos stalled: size=%zu\n", table.Size());
      for (const auto& site : failpoint::Sites()) {
        std::fprintf(stderr, "  site %s hits=%llu fires=%llu\n", site.name.c_str(),
                     static_cast<unsigned long long>(site.hits),
                     static_cast<unsigned long long>(site.fires));
      }
    });
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        XorShift64 rng(static_cast<std::uint64_t>(t) + 31);
        for (int i = 0; i < iters; ++i) {
          // Mix plain sharded ops with try_lock() on a random shard lock,
          // so a second acquire path races the widened grant window.
          table.WickedStep(rng, 2048);
          if (rng.NextBelow(16) == 0) {
            const std::size_t s = rng.NextBelow(table.shard_count());
            if (table.shard_lock(s).try_lock()) {
              table.shard_lock(s).unlock();
            }
          }
          if ((i & 127) == 0) {
            watchdog.Beat();
          }
        }
        watchdog.Beat();
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    EXPECT_TRUE(table.CheckInvariants());
  }
  failpoint::Reset();
  // Every exited worker handed its QNodes back to the slab.
  EXPECT_EQ(QNodeSlab().SlotsLive(), qnodes_live);
}

}  // namespace
}  // namespace malthus
