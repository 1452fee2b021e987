// Differential tests: drive the workload substrates with long randomized
// operation streams and compare every observable against a simple reference
// model built from the standard library.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/kchash/kchash.h"
#include "src/minidb/minidb.h"
#include "src/minidb/skiplist.h"
#include "src/locks/tas.h"
#include "src/rng/xorshift.h"

namespace malthus {
namespace {

// GetRange over [base, base + n) must return the reference's value for each
// present key and leave the slot of each absent key nullopt.
void ExpectGetRangeMatches(const SkipList& list,
                           const std::map<std::uint64_t, std::string>& reference,
                           std::uint64_t base, std::uint64_t n) {
  std::vector<std::optional<std::string>> got(n);
  list.GetRange(base, n, got.data());
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto it = reference.find(base + i);
    const std::optional<std::string> want =
        it == reference.end() ? std::nullopt : std::optional<std::string>(it->second);
    ASSERT_EQ(got[i], want) << "key " << base + i << " of the range at " << base;
  }
}

// Every 16-key block of the [0, 2000) key space, as minidb fills them, and
// one block that straddles its end.
void ExpectBlocksMatch(const SkipList& list,
                       const std::map<std::uint64_t, std::string>& reference) {
  for (std::uint64_t base = 0; base < 2000; base += 16) {
    ExpectGetRangeMatches(list, reference, base, 16);
  }
  ExpectGetRangeMatches(list, reference, 1992, 16);
}

TEST(SkipListDifferential, MatchesStdMap) {
  SkipList list;
  std::map<std::uint64_t, std::string> reference;
  XorShift64 rng(2024);
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t key = rng.NextBelow(2000);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {
        const std::string value = "v" + std::to_string(step);
        list.Put(key, value);
        reference[key] = value;
        break;
      }
      case 2: {
        const bool removed = list.Delete(key);
        EXPECT_EQ(removed, reference.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        const auto got = list.Get(key);
        const auto it = reference.find(key);
        ASSERT_EQ(got.has_value(), it != reference.end()) << "step " << step;
        if (got.has_value()) {
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
    if (step % 10000 == 0) {
      EXPECT_EQ(list.Size(), reference.size());
      EXPECT_TRUE(list.CheckInvariants());
      ExpectBlocksMatch(list, reference);
    }
  }
  EXPECT_EQ(list.Size(), reference.size());
  ExpectBlocksMatch(list, reference);
  // Lower-bound scan agreement over the full key space.
  for (std::uint64_t probe = 0; probe < 2000; probe += 37) {
    const auto got = list.LowerBoundKey(probe);
    const auto it = reference.lower_bound(probe);
    ASSERT_EQ(got.has_value(), it != reference.end()) << "probe " << probe;
    if (got.has_value()) {
      EXPECT_EQ(*got, it->first);
    }
  }
}

// Reference LRU cache mirroring KcHashCore's semantics.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  void Set(std::uint64_t key, std::string value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    while (index_.size() >= capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
  }

  std::optional<std::string> Get(std::uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return std::nullopt;
    }
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  bool Remove(std::uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::size_t Size() const { return index_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::pair<std::uint64_t, std::string>> order_;
  std::unordered_map<std::uint64_t, std::list<std::pair<std::uint64_t, std::string>>::iterator>
      index_;
};

TEST(KcHashDifferential, MatchesReferenceLru) {
  KcHashCore db(64, 200);
  ReferenceLru reference(200);
  XorShift64 rng(4096);
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t key = rng.NextBelow(600);
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2: {
        const std::string value = std::to_string(step);
        db.Set(key, value);
        reference.Set(key, value);
        break;
      }
      case 3: {
        EXPECT_EQ(db.Remove(key), reference.Remove(key)) << "step " << step;
        break;
      }
      default: {
        const auto got = db.Get(key);
        const auto want = reference.Get(key);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step << " key " << key;
        if (got.has_value()) {
          EXPECT_EQ(*got, *want);
        }
        break;
      }
    }
    if (step % 15000 == 0) {
      EXPECT_EQ(db.Size(), reference.Size());
      EXPECT_TRUE(db.CheckInvariants());
    }
  }
  EXPECT_EQ(db.Size(), reference.Size());
  EXPECT_TRUE(db.CheckInvariants());
}

TEST(MiniDbDifferential, MatchesReferenceMapSingleThreaded) {
  MiniDb<TtasLock> db(64);
  std::map<std::uint64_t, std::string> reference;
  XorShift64 rng(777);
  for (int step = 0; step < 40000; ++step) {
    const std::uint64_t key = rng.NextBelow(1500);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {
        const std::string value = "x" + std::to_string(step);
        db.Put(key, value);
        reference[key] = value;
        break;
      }
      case 2: {
        EXPECT_EQ(db.Delete(key), reference.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        const auto got = db.Get(key);
        const auto it = reference.find(key);
        ASSERT_EQ(got.has_value(), it != reference.end()) << "step " << step;
        if (got.has_value()) {
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(db.Size(), reference.size());
}

TEST(TtasAndersonRecheck, CorrectUnderContention) {
  TtasLock lock;
  lock.set_anderson_recheck(true);
  std::uint64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, 8u * 10000u);
}

}  // namespace
}  // namespace malthus
