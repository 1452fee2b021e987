// ShardedTable — the generic sharding layer under the repo's hot data
// structures (minidb's block cache, kchash, SimpleLRU, and the KV server
// backends built from them).
//
// The paper attributes throughput collapse to contention on a single hot
// lock; the single-global-lock structures bake that in. ShardedTable spreads
// the *structure* contention across N power-of-two partitions — one
// unsynchronized core structure plus one registry-pluggable Malthusian lock
// per shard — so the ablation "shards × lock type × oversubscription" can
// ask whether concurrency-restricting succession still pays once contention
// is diluted (docs/sharding.md). shards=1 is the degenerate case and
// behaves exactly like the original single-lock wrapper, which is why the
// paper-figure benches keep using the original classes.
//
// Design points:
//   * Shard selection is a full-avalanche mix (splitmix64 finalizer) of the
//     key, masked to the shard count. The cores' own bucket hashes use a
//     different mix (Fibonacci), so shard choice and in-shard bucket choice
//     stay uncorrelated.
//   * Each shard slot is cache-line-aligned (kCacheLineSize = two 64-byte
//     lines, defeating adjacent-line prefetchers) so shard locks and hot
//     core headers never false-share.
//   * Aggregate stats (size/hits/misses/evictions) are sums over relaxed
//     per-shard counters maintained *under* the shard lock but readable by
//     anyone without it — cross-shard reads are best-effort snapshots, not
//     a consistent cut (the same semantics a sharded production cache
//     offers its stats endpoint).
//   * ForEachShard locks one shard at a time: iteration observes each shard
//     atomically but not the table as a whole. Callers needing a fixed
//     point-in-time view must stop writers first.
#ifndef MALTHUS_SRC_SHARDED_SHARDED_TABLE_H_
#define MALTHUS_SRC_SHARDED_SHARDED_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/platform/align.h"

namespace malthus {

// Rounds `requested` up to a power of two (minimum 1) so shard selection is
// a mask, not a modulo.
std::size_t NormalizeShardCount(std::size_t requested);

// Default shard count for "just shard it for this host": the smallest power
// of two >= EffectiveCpuCount(), capped at 64.
std::size_t DefaultShardCount();

// splitmix64 finalizer: full-avalanche 64-bit mix. Low bits of the result
// are safe to mask for shard selection even for sequential keys.
inline std::uint64_t MixShardHash(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Per-shard relaxed counters. Written only while holding the shard lock;
// read lock-free by the aggregate accessors. size/evictions mirror the core
// (stored after each mutating op); hits/misses are bumped by the wrapper.
struct ShardCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::size_t> size{0};
};

template <typename Core, typename Lock>
class ShardedTable {
 public:
  struct Stats {
    std::size_t size = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  // Constructs NormalizeShardCount(shards) shards, each core built from a
  // copy of `args` (callers pre-divide capacities: per-shard capacity =
  // total/N).
  template <typename... Args>
  explicit ShardedTable(std::size_t shards, Args&&... args) {
    const std::size_t n = NormalizeShardCount(shards);
    mask_ = n - 1;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>(args...));
    }
  }
  ShardedTable(const ShardedTable&) = delete;
  ShardedTable& operator=(const ShardedTable&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t ShardIndex(std::uint64_t key) const {
    return static_cast<std::size_t>(MixShardHash(key)) & mask_;
  }

  // Runs `fn(core, counters)` under the owning shard's lock and returns its
  // result. The single-lock critical-section shape of the unsharded
  // structures, narrowed to one partition.
  template <typename Fn>
  decltype(auto) WithShard(std::uint64_t key, Fn&& fn) {
    return WithShardAt(ShardIndex(key), std::forward<Fn>(fn));
  }

  template <typename Fn>
  decltype(auto) WithShardAt(std::size_t index, Fn&& fn) {
    Shard& s = *shards_[index];
    s.lock.lock();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Core&, ShardCounters&>>) {
      fn(s.core, s.counters);
      s.lock.unlock();
    } else {
      auto result = fn(s.core, s.counters);
      s.lock.unlock();
      return result;
    }
  }

  // Best-effort cross-shard iteration: visits each shard under its own lock
  // in index order. Each shard is seen atomically; the table is not.
  template <typename Fn>
  void ForEachShard(Fn&& fn) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      s.lock.lock();
      fn(i, s.core, s.counters);
      s.lock.unlock();
    }
  }

  // Lock-free aggregate: sums of the relaxed per-shard counters. Best
  // effort under concurrent writers (never tears a single counter, may mix
  // counters from different instants).
  Stats AggregateStats() const {
    Stats out;
    for (const auto& s : shards_) {
      out.size += s->counters.size.load(std::memory_order_relaxed);
      out.hits += s->counters.hits.load(std::memory_order_relaxed);
      out.misses += s->counters.misses.load(std::memory_order_relaxed);
      out.evictions += s->counters.evictions.load(std::memory_order_relaxed);
    }
    return out;
  }

  // Direct shard access for tests and lock-level instrumentation (spin
  // budgets, admission recorders, try_lock() storms).
  Lock& shard_lock(std::size_t index) { return shards_[index]->lock; }
  const ShardCounters& shard_counters(std::size_t index) const {
    return shards_[index]->counters;
  }
  // Lock-free core peek: the caller may only touch the core's relaxed
  // atomic counters unless it also holds shard_lock(index).
  const Core& shard_core(std::size_t index) const { return shards_[index]->core; }

 private:
  // One partition: lock + core + stats in a single aligned slot. Separate
  // heap allocations (each alignas(kCacheLineSize)) keep neighbouring
  // shards off each other's cache lines.
  struct alignas(kCacheLineSize) Shard {
    template <typename... Args>
    explicit Shard(Args&&... args) : core(std::forward<Args>(args)...) {}
    Lock lock;
    Core core;
    ShardCounters counters;
  };

  std::size_t mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Splits a whole-table capacity (or bucket count) into the per-shard share:
// ceil(total / shards), minimum 1, so N shards jointly cover at least the
// requested total.
inline std::size_t PerShardShare(std::size_t total, std::size_t shards) {
  if (shards == 0) {
    shards = 1;
  }
  const std::size_t share = (total + shards - 1) / shards;
  return share == 0 ? 1 : share;
}

}  // namespace malthus

#endif  // MALTHUS_SRC_SHARDED_SHARDED_TABLE_H_
