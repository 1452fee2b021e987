// Skiplist-backed ordered map<uint64 -> string> — the memtable substrate of
// minidb (our leveldb stand-in; DESIGN.md §2). Deterministic tower heights
// come from a caller-owned xorshift generator. The structure itself is not
// thread-safe; minidb guards it with the central database mutex, which is
// precisely the contended lock the Figure-8 experiment exercises.
#ifndef MALTHUS_SRC_MINIDB_SKIPLIST_H_
#define MALTHUS_SRC_MINIDB_SKIPLIST_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/rng/xorshift.h"

namespace malthus {

class SkipList {
 public:
  static constexpr int kMaxHeight = 16;

  explicit SkipList(std::uint64_t seed = 7);
  ~SkipList();
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  // Inserts or overwrites.
  void Put(std::uint64_t key, std::string value);

  // Returns the value or nullopt.
  std::optional<std::string> Get(std::uint64_t key) const;

  // Stores the value of each present key k in [base, base + n) in
  // out[k - base], with one seek and a level-0 walk; the slots of absent
  // keys are left untouched. `out` must hold n slots. The range may end at
  // the top of the key space (base + n wrapping to 0).
  void GetRange(std::uint64_t base, std::uint64_t n, std::optional<std::string>* out) const;

  // Returns true if the key existed.
  bool Delete(std::uint64_t key);

  std::size_t Size() const { return size_; }

  // Smallest key >= `key`, or nullopt — used by scans.
  std::optional<std::uint64_t> LowerBoundKey(std::uint64_t key) const;

  // Test hook: verifies level-0 ordering and tower consistency.
  bool CheckInvariants() const;

 private:
  struct Node;

  Node* FindGreaterOrEqual(std::uint64_t key, std::array<Node*, kMaxHeight>* prev) const;
  int RandomHeight();

  Node* head_;
  int height_ = 1;
  std::size_t size_ = 0;
  XorShift64 rng_;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_MINIDB_SKIPLIST_H_
