#include "src/minidb/skiplist.h"

#include <algorithm>
#include <new>

namespace malthus {

// A node is its header (48 bytes with libstdc++) followed, in the same
// allocation, by exactly `height` forward pointers, as in leveldb: towers
// average 4/3 levels, so a fixed kMaxHeight array would leave most of every
// node empty.
struct SkipList::Node {
  std::uint64_t key;
  std::string value;
  int height;

  static Node* New(std::uint64_t key, std::string value, int height) {
    static_assert(sizeof(Node) % alignof(Node*) == 0,
                  "the forward pointers follow the header unpadded");
    void* mem = ::operator new(sizeof(Node) + sizeof(Node*) * height);
    Node* n = new (mem) Node(key, std::move(value), height);
    std::fill_n(n->links(), height, nullptr);
    return n;
  }
  static void Free(Node* n) {
    n->~Node();
    ::operator delete(n);
  }

  // Only [0, height) exist.
  Node*& next(int level) { return links()[level]; }
  Node* next(int level) const { return reinterpret_cast<Node* const*>(this + 1)[level]; }

 private:
  Node(std::uint64_t k, std::string v, int h) : key(k), value(std::move(v)), height(h) {}
  Node** links() { return reinterpret_cast<Node**>(this + 1); }
};

SkipList::SkipList(std::uint64_t seed) : rng_(seed) {
  head_ = Node::New(0, std::string(), kMaxHeight);
}

SkipList::~SkipList() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next(0);
    Node::Free(n);
    n = next;
  }
}

int SkipList::RandomHeight() {
  // Geometric with p = 1/4, as in leveldb.
  int h = 1;
  while (h < kMaxHeight && rng_.NextBelow(4) == 0) {
    ++h;
  }
  return h;
}

SkipList::Node* SkipList::FindGreaterOrEqual(std::uint64_t key,
                                             std::array<Node*, kMaxHeight>* prev) const {
  Node* x = head_;
  for (int level = height_ - 1; level >= 0; --level) {
    while (x->next(level) != nullptr && x->next(level)->key < key) {
      x = x->next(level);
    }
    if (prev != nullptr) {
      (*prev)[level] = x;
    }
  }
  return x->next(0);
}

void SkipList::Put(std::uint64_t key, std::string value) {
  std::array<Node*, kMaxHeight> prev;
  prev.fill(head_);
  Node* hit = FindGreaterOrEqual(key, &prev);
  if (hit != nullptr && hit->key == key) {
    hit->value = std::move(value);
    return;
  }
  const int h = RandomHeight();
  if (h > height_) {
    height_ = h;
  }
  Node* node = Node::New(key, std::move(value), h);
  for (int level = 0; level < h; ++level) {
    node->next(level) = prev[level]->next(level);
    prev[level]->next(level) = node;
  }
  ++size_;
}

std::optional<std::string> SkipList::Get(std::uint64_t key) const {
  Node* n = FindGreaterOrEqual(key, nullptr);
  if (n != nullptr && n->key == key) {
    return n->value;
  }
  return std::nullopt;
}

void SkipList::GetRange(std::uint64_t base, std::uint64_t n,
                        std::optional<std::string>* out) const {
  // Every key the seek returns is >= base, so k - base cannot wrap; the
  // bound k < base + n would, for the last block of the key space.
  for (const Node* x = FindGreaterOrEqual(base, nullptr); x != nullptr && x->key - base < n;
       x = x->next(0)) {
    out[x->key - base] = x->value;
  }
}

bool SkipList::Delete(std::uint64_t key) {
  std::array<Node*, kMaxHeight> prev;
  prev.fill(head_);
  Node* n = FindGreaterOrEqual(key, &prev);
  if (n == nullptr || n->key != key) {
    return false;
  }
  for (int level = 0; level < n->height; ++level) {
    if (prev[level]->next(level) == n) {
      prev[level]->next(level) = n->next(level);
    }
  }
  Node::Free(n);
  --size_;
  return true;
}

std::optional<std::uint64_t> SkipList::LowerBoundKey(std::uint64_t key) const {
  Node* n = FindGreaterOrEqual(key, nullptr);
  if (n == nullptr) {
    return std::nullopt;
  }
  return n->key;
}

bool SkipList::CheckInvariants() const {
  // Level-0 strictly ascending.
  const Node* n = head_->next(0);
  std::size_t count = 0;
  std::uint64_t last = 0;
  bool first = true;
  while (n != nullptr) {
    if (!first && n->key <= last) {
      return false;
    }
    last = n->key;
    first = false;
    ++count;
    n = n->next(0);
  }
  if (count != size_) {
    return false;
  }
  // Every higher level must be a subsequence of level 0.
  for (int level = 1; level < height_; ++level) {
    const Node* upper = head_->next(level);
    const Node* lower = head_->next(0);
    while (upper != nullptr) {
      while (lower != nullptr && lower != upper) {
        lower = lower->next(0);
      }
      if (lower == nullptr) {
        return false;
      }
      upper = upper->next(level);
    }
  }
  return true;
}

}  // namespace malthus
