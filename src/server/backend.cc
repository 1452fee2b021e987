#include "src/server/backend.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "src/core/mcscr.h"
#include "src/locks/mcs.h"
#include "src/minidb/minidb.h"
#include "src/sharded/sharded_lru.h"
#include "src/sharded/sharded_table.h"

namespace malthus {
namespace {

// Shared sizing across the backend family so throughput comparisons across
// {structure × lock × shards} hold the working set constant.
constexpr std::size_t kMiniDbCacheBlocks = 4096;
constexpr std::size_t kLruCapacity = 1 << 15;

std::string EncodeValue(std::uint64_t value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::uint64_t DecodeValue(const std::string& s) {
  std::uint64_t v = 0;
  std::memcpy(&v, s.data(), std::min(s.size(), sizeof(v)));
  return v;
}

template <typename Lock>
class MiniDbBackend final : public KvBackend {
 public:
  explicit MiniDbBackend(std::size_t shards) : db_(kMiniDbCacheBlocks, shards) {}

  void Put(std::uint64_t key, std::uint64_t value, std::uint32_t /*tid*/) override {
    db_.Put(key, EncodeValue(value));
  }
  bool Get(std::uint64_t key, std::uint64_t* value, std::uint32_t tid) override {
    auto v = db_.Get(key, tid);
    if (!v.has_value()) {
      return false;
    }
    *value = DecodeValue(*v);
    return true;
  }
  Displacement displacement() const override {
    return {db_.block_cache().self_displacements(),
            db_.block_cache().extrinsic_displacements()};
  }
  std::size_t shards() const override { return db_.block_cache().shard_count(); }

 private:
  MiniDb<Lock> db_;
};

template <typename Lock>
class LruBackend final : public KvBackend {
 public:
  explicit LruBackend(std::size_t shards)
      : cache_(kLruCapacity, shards, /*track_displacement=*/true) {}

  void Put(std::uint64_t key, std::uint64_t value, std::uint32_t tid) override {
    cache_.Insert(key, value, tid);
  }
  bool Get(std::uint64_t key, std::uint64_t* value, std::uint32_t tid) override {
    auto v = cache_.Lookup(key, tid);
    if (!v.has_value()) {
      // Miss installs the key itself — the paper's LRUCache workload, where
      // a miss costs exactly one erase + one insert.
      cache_.Insert(key, key, tid);
      return false;
    }
    *value = *v;
    return true;
  }
  Displacement displacement() const override {
    return {cache_.self_displacements(), cache_.extrinsic_displacements()};
  }
  std::size_t shards() const override { return cache_.shard_count(); }

 private:
  ShardedLru<Lock> cache_;
};

template <typename Lock>
std::unique_ptr<KvBackend> MakeWithLock(std::string_view structure,
                                        std::size_t shards) {
  if (structure == "minidb") {
    return std::make_unique<MiniDbBackend<Lock>>(shards);
  }
  if (structure == "lru") {
    return std::make_unique<LruBackend<Lock>>(shards);
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<KvBackend> MakeBackend(const std::string& structure,
                                       const std::string& lock_name,
                                       std::size_t shards) {
  constexpr std::string_view kShardedPrefix = "sharded-";
  std::string_view base = structure;
  std::size_t n = 1;
  if (base.starts_with(kShardedPrefix)) {
    base.remove_prefix(kShardedPrefix.size());
    n = shards == 0 ? DefaultShardCount() : shards;
  }
  if (lock_name == "mcs-stp") {
    return MakeWithLock<McsStpLock>(base, n);
  }
  if (lock_name == "mcscr-stp") {
    return MakeWithLock<McscrStpLock>(base, n);
  }
  return nullptr;
}

}  // namespace malthus
