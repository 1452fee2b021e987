// minidb substrate: skiplist CRUD, range reads + invariants, SimpleLRU semantics and
// displacement tracking, and MiniDb end-to-end (readwhilewriting shape).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/mcscr.h"
#include "src/locks/mcs.h"
#include "src/minidb/minidb.h"
#include "src/minidb/simple_lru.h"
#include "src/minidb/skiplist.h"
#include "src/rng/xorshift.h"

namespace malthus {
namespace {

TEST(SkipList, PutGetDelete) {
  SkipList list;
  EXPECT_FALSE(list.Get(42).has_value());
  list.Put(42, "answer");
  ASSERT_TRUE(list.Get(42).has_value());
  EXPECT_EQ(*list.Get(42), "answer");
  EXPECT_TRUE(list.Delete(42));
  EXPECT_FALSE(list.Get(42).has_value());
  EXPECT_FALSE(list.Delete(42));
}

TEST(SkipList, OverwriteKeepsSingleEntry) {
  SkipList list;
  list.Put(7, "a");
  list.Put(7, "b");
  EXPECT_EQ(list.Size(), 1u);
  EXPECT_EQ(*list.Get(7), "b");
}

TEST(SkipList, ManyKeysOrderedAndConsistent) {
  SkipList list;
  XorShift64 rng(5);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t k = rng.Next() % 100000;
    keys.push_back(k);
    list.Put(k, std::to_string(k));
  }
  EXPECT_TRUE(list.CheckInvariants());
  for (const auto k : keys) {
    ASSERT_TRUE(list.Get(k).has_value());
    EXPECT_EQ(*list.Get(k), std::to_string(k));
  }
}

TEST(SkipList, DeleteMaintainsInvariants) {
  SkipList list;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    list.Put(k, "v");
  }
  for (std::uint64_t k = 0; k < 1000; k += 2) {
    EXPECT_TRUE(list.Delete(k));
  }
  EXPECT_EQ(list.Size(), 500u);
  EXPECT_TRUE(list.CheckInvariants());
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(list.Get(k).has_value(), k % 2 == 1);
  }
}

TEST(SkipList, LowerBound) {
  SkipList list;
  list.Put(10, "a");
  list.Put(20, "b");
  list.Put(30, "c");
  EXPECT_EQ(*list.LowerBoundKey(5), 10u);
  EXPECT_EQ(*list.LowerBoundKey(10), 10u);
  EXPECT_EQ(*list.LowerBoundKey(11), 20u);
  EXPECT_EQ(*list.LowerBoundKey(25), 30u);
  EXPECT_FALSE(list.LowerBoundKey(31).has_value());
}

TEST(SkipList, GetRangeAtTopOfKeySpace) {
  // The last 16-key block of the key space, where base + n wraps to 0.
  constexpr std::uint64_t kBase = UINT64_MAX - 15;
  SkipList list;
  list.Put(kBase - 1, "below");  // outside the range: never read
  for (std::uint64_t i = 0; i < 16; ++i) {
    if (i % 5 != 2) {  // keys kBase + 2, + 7 and + 12 stay absent
      list.Put(kBase + i, std::to_string(i));
    }
  }
  std::array<std::optional<std::string>, 16> out;
  list.GetRange(kBase, out.size(), out.data());
  for (std::uint64_t i = 0; i < 16; ++i) {
    if (i % 5 == 2) {
      EXPECT_EQ(out[i], std::nullopt) << "slot " << i;
    } else {
      EXPECT_EQ(out[i], std::to_string(i)) << "slot " << i;
    }
  }
}

TEST(SimpleLru, LookupPromotesAndInsertTrims) {
  SimpleLru<McsSpinLock> lru(3);
  lru.Insert(1, 100);
  lru.Insert(2, 200);
  lru.Insert(3, 300);
  EXPECT_EQ(*lru.Lookup(1), 100u);  // 1 is now MRU.
  lru.Insert(4, 400);               // Evicts 2 (LRU).
  EXPECT_TRUE(lru.Lookup(1).has_value());
  EXPECT_FALSE(lru.Lookup(2).has_value());
  EXPECT_TRUE(lru.Lookup(3).has_value());
  EXPECT_TRUE(lru.Lookup(4).has_value());
  EXPECT_EQ(lru.Size(), 3u);
}

TEST(SimpleLru, OverwriteUpdatesValueInPlace) {
  SimpleLru<McsSpinLock> lru(4);
  lru.Insert(9, 1);
  lru.Insert(9, 2);
  EXPECT_EQ(lru.Size(), 1u);
  EXPECT_EQ(*lru.Lookup(9), 2u);
}

TEST(SimpleLru, MissRateAccounting) {
  SimpleLru<McsSpinLock> lru(8);
  lru.Lookup(1);  // miss
  lru.Insert(1, 1);
  lru.Lookup(1);  // hit
  EXPECT_EQ(lru.hits(), 1u);
  EXPECT_EQ(lru.misses(), 1u);
  EXPECT_DOUBLE_EQ(lru.MissRate(), 0.5);
}

TEST(SimpleLru, DisplacementDiscrimination) {
  // Footnote 33: the software cache can tell self- from other-displacement.
  SimpleLru<McsSpinLock> lru(2, /*track_displacement=*/true);
  lru.Insert(1, 1, /*tid=*/0);
  lru.Insert(2, 2, /*tid=*/0);
  lru.Insert(3, 3, /*tid=*/0);  // Thread 0 displaces its own entry 1.
  EXPECT_EQ(lru.self_displacements(), 1u);
  lru.Insert(4, 4, /*tid=*/1);  // Thread 1 displaces thread 0's entry 2.
  EXPECT_EQ(lru.extrinsic_displacements(), 1u);
}

TEST(SimpleLru, ConcurrentMixedOpsStaySane) {
  SimpleLru<McscrStpLock> lru(1000);
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = rng.NextBelow(5000);
        if (rng.NextBelow(10) == 0) {
          lru.Insert(k, k * 2, static_cast<std::uint32_t>(t));
        } else if (!lru.Lookup(k).has_value()) {
          lru.Insert(k, k * 2, static_cast<std::uint32_t>(t));
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_LE(lru.Size(), 1000u);
  // Values, when present, are always consistent.
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const auto v = lru.Lookup(k);
    if (v.has_value()) {
      EXPECT_EQ(*v, k * 2);
    }
  }
}

TEST(MiniDb, PutGetDeleteRoundTrip) {
  MiniDb<McsSpinLock> db;
  db.Put(1, "one");
  db.Put(2, "two");
  EXPECT_EQ(*db.Get(1), "one");
  EXPECT_EQ(*db.Get(2), "two");
  EXPECT_FALSE(db.Get(3).has_value());
  EXPECT_TRUE(db.Delete(1));
  EXPECT_FALSE(db.Get(1).has_value());
  EXPECT_EQ(db.Size(), 1u);
}

TEST(MiniDb, TopOfKeySpaceRoundTripsThroughAFill) {
  MiniDb<McsSpinLock> db;
  db.Put(UINT64_MAX, "top");
  EXPECT_EQ(db.Get(UINT64_MAX), "top");
  EXPECT_EQ(db.cache_misses(), 1u);  // the Get filled the block
  EXPECT_EQ(db.Get(UINT64_MAX - 1), std::nullopt);
  EXPECT_EQ(db.Get(UINT64_MAX), "top");
  EXPECT_EQ(db.cache_hits(), 2u);  // both served by that fill
}

TEST(MiniDb, BlockCacheWarmsOnRepeatedReads) {
  MiniDb<McsSpinLock> db(128);
  for (std::uint64_t k = 0; k < 64; ++k) {
    db.Put(k, "v");
  }
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      ASSERT_TRUE(db.Get(k).has_value());
    }
  }
  // 64 keys / 16 per block = 4 blocks; after warmup everything hits.
  EXPECT_LT(db.CacheMissRate(), 0.1);
}

TEST(MiniDb, ReadWhileWritingIsLinearizableEnough) {
  // One writer updating a sentinel pair, readers must never observe torn
  // state across the two keys (both guarded by the same DB mutex).
  MiniDb<McscrStpLock> db;
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
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = db.Get(1);
        if (!v.has_value()) {
          torn.store(true);
          break;
        }
        const std::uint64_t now = std::stoull(*v);
        if (now + 1 < last) {  // Writer is monotone; allow benign raciness of one step.
          torn.store(true);
          break;
        }
        last = now;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  writer.join();
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_GT(db.reads(), 0u);
  EXPECT_GT(db.writes(), 0u);
}

TEST(MiniDb, CacheHitServesWithoutDbMutex) {
  // The PR 8 satellite fix: a fresh cached block serves the value with no
  // DB-mutex acquisition (leveldb behavior — table blocks are immutable).
  // Warm the cache, seize the DB mutex from this thread, and a reader must
  // still complete a Get on the warmed key.
  MiniDb<McsSpinLock> db(128);
  db.Put(1, "warm");
  ASSERT_TRUE(db.Get(1).has_value());  // fill the block
  const std::uint64_t hits_before = db.cache_hits();

  db.db_mutex().lock();
  std::atomic<bool> done{false};
  std::string observed;
  std::thread reader([&] {
    const auto v = db.Get(1);
    observed = v.value_or("<missing>");
    done.store(true, std::memory_order_release);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool completed = done.load(std::memory_order_acquire);
  // Unlock before asserting so a regression (hit path retaking the DB
  // mutex) reports a clean failure instead of deadlocking the test.
  db.db_mutex().unlock();
  reader.join();
  EXPECT_TRUE(completed) << "Get on a warm cached key blocked on the DB "
                            "mutex — the hit path must bypass it";
  EXPECT_EQ(observed, "warm");
  EXPECT_EQ(db.cache_hits(), hits_before + 1);
}

TEST(MiniDb, StaleCachedBlockRefillsAfterWrite) {
  // Generation invalidation: a Put to any key in a cached block makes the
  // cached fill stale; the next Get must refill and return the new value.
  MiniDb<McsSpinLock> db(128);
  db.Put(32, "old");
  ASSERT_EQ(*db.Get(32), "old");          // block cached, generation stamped
  ASSERT_EQ(*db.Get(32), "old");          // served from cache
  const std::uint64_t stale_before = db.stale_refills();
  db.Put(33, "neighbor");                 // same block (kBlockSpan = 16)
  EXPECT_EQ(*db.Get(32), "old");          // refill — but value unchanged
  EXPECT_EQ(db.stale_refills(), stale_before + 1);
  db.Put(32, "new");
  EXPECT_EQ(*db.Get(32), "new");          // never the stale "old"
  EXPECT_EQ(*db.Get(32), "new");          // and the refreshed fill now hits
}

TEST(MiniDb, ShardedBlockCacheKeepsRoundTripSemantics) {
  // cache_shards > 1 partitions only the block cache; DB semantics are
  // unchanged and displacement tracking still attributes per tid.
  MiniDb<McsSpinLock> db(/*cache_blocks=*/64, /*cache_shards=*/4);
  EXPECT_EQ(db.block_cache().shard_count(), 4u);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    db.Put(k, std::to_string(k));
  }
  XorShift64 rng(9);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.NextBelow(4096);
    ASSERT_EQ(*db.Get(k, static_cast<std::uint32_t>(rng.NextBelow(4))),
              std::to_string(k));
  }
  // 4096 keys / 16 per block = 256 blocks over a 64-block cache: evictions
  // and (random tids) both displacement kinds must have fired.
  EXPECT_GT(db.block_cache().evictions(), 0u);
  EXPECT_GT(db.block_cache().self_displacements() +
                db.block_cache().extrinsic_displacements(),
            0u);
}

}  // namespace
}  // namespace malthus
