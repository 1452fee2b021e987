// minidb — a small embedded key-value store standing in for leveldb 1.18 in
// the Figure-8 readwhilewriting experiment (DESIGN.md §2).
//
// Architecture mirrors the contention structure the paper identifies:
//   * a central database mutex guarding the skiplist memtable (leveldb's
//     DBImpl::mutex_), taken by every write and by read-path block fills;
//   * a block cache — an LRU over "blocks" of kBlockSpan adjacent keys —
//     with its own lock(s) (leveldb's LRUCache locks).
//
// Read path: a cached block carries the *values* of its kBlockSpan keys,
// stamped with the block's write generation at fill time. A cache hit whose
// generation still matches serves the value without touching the DB mutex
// at all — leveldb's actual behavior, where table blocks are immutable and
// DBImpl::mutex_ guards only memtable/version state. Only fills (and every
// write) take the DB mutex, so under readwhilewriting the DB mutex carries
// the writer + the miss stream while the block-cache locks carry the hit
// stream — both still CR-amenable, which is what Figure 8 measures.
// (Earlier revisions locked the DB mutex on hits too, contradicting the
// stated "only on a cache miss" design; the generation stamp is what makes
// the bypass safe.)
//
// The block cache is a ShardedLru: cache_shards=1 (the default) reproduces
// the single-mutex LRUCache the paper benchmarks; higher shard counts are
// the PR 8 ablation axis (docs/sharding.md).
#ifndef MALTHUS_SRC_MINIDB_MINIDB_H_
#define MALTHUS_SRC_MINIDB_MINIDB_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/minidb/simple_lru.h"
#include "src/minidb/skiplist.h"
#include "src/sharded/sharded_lru.h"

namespace malthus {

template <typename Lock>
class MiniDb {
 public:
  static constexpr std::uint64_t kBlockSpan = 16;  // keys per cached block

  explicit MiniDb(std::size_t cache_blocks = 4096, std::size_t cache_shards = 1)
      : block_cache_(cache_blocks, cache_shards, /*track_displacement=*/true) {}
  MiniDb(const MiniDb&) = delete;
  MiniDb& operator=(const MiniDb&) = delete;

  void Put(std::uint64_t key, std::string value) {
    db_mutex_.lock();
    memtable_.Put(key, std::move(value));
    // Invalidate-by-generation: cached fills for this block become stale
    // and the next Get refills. Bumped inside the mutex so a fill's
    // generation read and memtable snapshot are mutually consistent.
    BumpGeneration(key / kBlockSpan);
    db_mutex_.unlock();
    writes_.fetch_add(1, std::memory_order_relaxed);
  }

  std::optional<std::string> Get(std::uint64_t key, std::uint32_t tid = 0) {
    const std::uint64_t block = key / kBlockSpan;
    // Fast path: a fresh cached block serves the value with NO DB mutex
    // acquisition — the cached fill carries the values and its generation
    // proves no write to the block committed since.
    auto cached = block_cache_.Lookup(block, tid);
    if (cached.has_value()) {
      const BlockPtr& b = *cached;
      if (b->generation ==
          GenerationOf(block).load(std::memory_order_acquire)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return b->values[key % kBlockSpan];
      }
      stale_refills_.fetch_add(1, std::memory_order_relaxed);
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    // Miss (or stale): fill the whole block under the DB mutex — models
    // reading the table block from disk, which leveldb does with one
    // iterator seek: one memtable seek to the block's first key and a
    // level-0 walk over the rest — then install it in the cache.
    auto filled = std::make_shared<CachedBlock>();
    db_mutex_.lock();
    filled->generation = GenerationOf(block).load(std::memory_order_relaxed);
    memtable_.GetRange(block * kBlockSpan, kBlockSpan, filled->values.data());
    db_mutex_.unlock();
    auto value = filled->values[key % kBlockSpan];
    block_cache_.Insert(block, std::move(filled), tid);
    return value;
  }

  bool Delete(std::uint64_t key) {
    db_mutex_.lock();
    const bool existed = memtable_.Delete(key);
    BumpGeneration(key / kBlockSpan);
    db_mutex_.unlock();
    return existed;
  }

  std::size_t Size() {
    db_mutex_.lock();
    const std::size_t s = memtable_.Size();
    db_mutex_.unlock();
    return s;
  }

  // Every Get counts as exactly one hit or one miss.
  std::uint64_t reads() const { return cache_hits() + cache_misses(); }
  std::uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  // Hits whose block generation no longer matched (a write intervened);
  // counted as misses because they pay the full fill path.
  std::uint64_t stale_refills() const {
    return stale_refills_.load(std::memory_order_relaxed);
  }
  // Miss rate over the DB's own accounting: a stale hit is a miss (it takes
  // the DB mutex and refills), regardless of what the LRU layer saw.
  double CacheMissRate() const {
    const double total = static_cast<double>(cache_hits() + cache_misses());
    return total == 0 ? 0.0
                      : static_cast<double>(cache_misses()) / total;
  }

  // A cached block: the values of kBlockSpan adjacent keys snapshotted
  // under the DB mutex, stamped with the block's write generation.
  struct CachedBlock {
    std::uint64_t generation = 0;
    std::array<std::optional<std::string>, kBlockSpan> values;
  };
  using BlockPtr = std::shared_ptr<const CachedBlock>;
  using BlockCache = ShardedLru<Lock, BlockPtr>;

  Lock& db_mutex() { return db_mutex_; }
  BlockCache& block_cache() { return block_cache_; }
  const BlockCache& block_cache() const { return block_cache_; }

 private:
  // Block write generations, folded into a fixed array by the shard mix.
  // Collisions only cause spurious refills (false staleness), never a stale
  // hit. Bumps happen inside the DB mutex; release pairs with the hit
  // path's acquire so a matching generation proves the snapshot covers
  // every committed write to the block.
  static constexpr std::size_t kGenSlots = 4096;  // power of two
  std::atomic<std::uint64_t>& GenerationOf(std::uint64_t block) {
    return block_gens_[static_cast<std::size_t>(MixShardHash(block)) &
                       (kGenSlots - 1)];
  }
  void BumpGeneration(std::uint64_t block) {
    GenerationOf(block).fetch_add(1, std::memory_order_release);
  }

  Lock db_mutex_;
  SkipList memtable_;
  BlockCache block_cache_;
  std::array<std::atomic<std::uint64_t>, kGenSlots> block_gens_{};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> stale_refills_{0};
};

}  // namespace malthus

#endif  // MALTHUS_SRC_MINIDB_MINIDB_H_
