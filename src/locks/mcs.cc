#include "src/locks/mcs.h"

#include <vector>

#include "src/alloc/slab.h"

namespace malthus {
namespace {

// Thread-local pool of QNodes checked out of the process-wide slab
// (QNodeSlab). Nodes are recycled across locks but never cross threads
// while checked out (a node is always released by the thread that acquired
// it, so the free list needs no synchronization); the slab underneath
// keeps each node cache-line aligned and densely packed, so adjacent
// waiters' grant flags never share a line while one thread's working set
// spans the fewest possible pages.
struct NodeArena {
  static constexpr std::size_t kRefillBatch = 16;

  std::vector<QNode*> free_list;

  // Thread exit: the free nodes go back to the slab. A node is off the
  // free list only between lock() and the matching unlock() (or grant, for
  // LIFO-CR), so a thread that exits holding no lock returns every node.
  ~NodeArena() {
    for (QNode* n : free_list) {
      QNodeSlab().Return(n);
    }
  }

  void Refill() {
    free_list.reserve(free_list.size() + kRefillBatch);
    for (std::size_t i = 0; i < kRefillBatch; ++i) {
      free_list.push_back(QNodeSlab().Checkout().obj);
    }
  }
};

NodeArena& Arena() {
  thread_local NodeArena arena;
  return arena;
}

}  // namespace

QNode* AcquireQNode() {
  NodeArena& arena = Arena();
  if (arena.free_list.empty()) {
    arena.Refill();
  }
  QNode* n = arena.free_list.back();
  arena.free_list.pop_back();
  return n;
}

void ReleaseQNode(QNode* node) { Arena().free_list.push_back(node); }

std::uint64_t OutstandingZombieQNodes() { return 0; }

SlabAllocator<QNode>& QNodeSlab() {
  static SlabAllocator<QNode> slab;
  return slab;
}

// Instantiation anchors so template code is compiled (and its warnings
// surfaced) as part of the library build.
template class McsLock<SpinPolicy>;
template class McsLock<YieldingSpinPolicy>;
template class McsLock<SpinThenParkPolicy>;
template class McsLock<ParkPolicy>;

}  // namespace malthus
