// Type-erased KV backend: the hot shared structure the server's workers
// contend on. One adapter per structure — minidb (memtable + block cache)
// and lru (CEPH-style LRU) — each built on ShardedTable (one Malthusian
// lock per shard; for minidb, the block cache's). The unsharded names are
// the same adapters at one shard, where the sharded classes behave exactly
// like the single-lock originals (tests/test_sharded.cc, docs/sharding.md).
//
// The virtual-call overhead is identical across variants (the any_lock.h
// argument), so relative comparisons across locks, shard counts, and
// admission settings are unaffected.
#ifndef MALTHUS_SRC_SERVER_BACKEND_H_
#define MALTHUS_SRC_SERVER_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace malthus {

class KvBackend {
 public:
  virtual ~KvBackend() = default;

  // `tid` is the calling worker's dense thread id (Self().id); cache-style
  // backends use it to attribute displacement (footnote 33 — who evicted
  // whose entry). Pass 0 when the caller has no meaningful identity.
  virtual void Put(std::uint64_t key, std::uint64_t value, std::uint32_t tid) = 0;
  // Returns true on hit; on miss implementations may install the key
  // (cache-fill semantics, matching the paper's LRU workload).
  virtual bool Get(std::uint64_t key, std::uint64_t* value, std::uint32_t tid) = 0;

  // Footnote-33 displacement statistics, where the structure tracks them
  // (the LRU-backed structures). Zeros elsewhere.
  struct Displacement {
    std::uint64_t self = 0;
    std::uint64_t extrinsic = 0;
  };
  virtual Displacement displacement() const { return {}; }
  // Shard count of the underlying structure (1 for the unsharded names).
  virtual std::size_t shards() const = 0;
};

// Structures: "minidb", "lru" (one shard) and "sharded-minidb",
// "sharded-lru", whose partition count is `shards` (0 =
// DefaultShardCount(), rounded up to a power of two; ignored by the
// unsharded names). Locks: "mcs-stp", "mcscr-stp" — the ones the server's
// callers run. Returns nullptr for any other name.
std::unique_ptr<KvBackend> MakeBackend(const std::string& structure,
                                       const std::string& lock_name,
                                       std::size_t shards = 0);

}  // namespace malthus

#endif  // MALTHUS_SRC_SERVER_BACKEND_H_
