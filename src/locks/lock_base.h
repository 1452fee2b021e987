// Shared infrastructure for queue-based locks: the queue node, a per-thread
// node pool, and the grant protocol constants.
//
// Node lifecycle: a node is acquired from the calling thread's pool in
// lock() and released back to the *same* thread's pool once the node is
// quiescent (at unlock for MCS-family owners; at grant for LIFO-CR waiters).
// A node is always released by the thread that acquired it, so the pool
// needs no synchronization. Nodes are cache-line sized so waiters spinning
// on their own node never share a line (local spinning, §5.4).
//
// The per-thread pools are clients of the process-wide QNode slab
// (alloc/slab.h): pools refill from the slab in batches and hand every node
// back at thread exit, so thread churn is memory-flat. Slab memory is
// type-stable for the life of the process, so a granter's post-grant wake
// through a waiter whose thread has since exited can never fault; the
// generation stamp (ctx_gen, see QNode::wake_ref) turns it into a logical
// no-op as well.
#ifndef MALTHUS_SRC_LOCKS_LOCK_BASE_H_
#define MALTHUS_SRC_LOCKS_LOCK_BASE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/alloc/slab.h"
#include "src/platform/align.h"
#include "src/platform/cpu.h"
#include "src/platform/park.h"
#include "src/platform/thread_registry.h"

namespace malthus {

// Grant-flag values. kWaiting while enqueued; the granter stores kGranted
// with release semantics after any splice of the node into the chain and
// after publishing any owner-handoff state. A waiter leaves its wait only on
// kGranted, so the grant is one store and there is nothing to arbitrate.
inline constexpr std::uint32_t kWaiting = 0;
inline constexpr std::uint32_t kGranted = 1;

struct alignas(kCacheLineSize) QNode {
  // MCS chain / LIFO stack successor link.
  std::atomic<QNode*> next{nullptr};
  // Grant flag; the waiter local-spins (or spin-then-parks) on this.
  std::atomic<std::uint32_t> status{kWaiting};
  // Slab tenancy stamp, owned by QNodeSlab() (odd = checked out by some
  // thread's pool). See alloc/slab.h.
  std::atomic<std::uint64_t> slot_gen{0};
  // The waiting thread's context plus the ThreadCtx tenancy observed when
  // the wait began. Granters never dereference ctx directly — they build a
  // generation-validated ParkerRef via wake_ref(), so a wake aimed at a
  // waiter whose thread has since exited (and whose ThreadCtx slot may have
  // been recycled) is a counted no-op instead of a use-after-free.
  ThreadCtx* ctx = nullptr;
  std::uint64_t ctx_gen = 0;
  ThreadId tid = 0;
  // NUMA node id, used only by MCSCRN.
  std::uint32_t numa_node = 0;
  // Passive/remote list links. Only ever touched while holding the lock that
  // owns the list, so they are plain fields.
  QNode* list_next = nullptr;
  QNode* list_prev = nullptr;

  // Re-initializes per-acquisition state. Pool identity fields are set once.
  void PrepareForWait(ThreadCtx& self) {
    next.store(nullptr, std::memory_order_relaxed);
    status.store(kWaiting, std::memory_order_relaxed);
    ctx = &self;
    ctx_gen = self.slot_gen.load(std::memory_order_relaxed);
    tid = self.id;
    list_next = nullptr;
    list_prev = nullptr;
  }

  // Wake channel for the thread that prepared this node. Copy it out before
  // the grant store and invoke it after: once granted, the waiter may
  // recycle the node.
  ParkerRef wake_ref() const { return ParkerRef(ctx, ctx_gen); }
};

// Pops a node from the calling thread's pool (allocating if empty).
QNode* AcquireQNode();

// Returns a node to the calling thread's pool. The node must be quiescent:
// no other thread may still hold a reference that it will dereference.
void ReleaseQNode(QNode* node);

// Always 0: no code path abandons a node while another thread may still
// reference it. Kept for kvbench/child.cc, which still reads the gauge.
std::uint64_t OutstandingZombieQNodes();

// The process-wide QNode slab (test/diagnostic surface: memory-flatness
// checks read BytesReserved()/SlotsLive()).
SlabAllocator<QNode>& QNodeSlab();

// Spins until `node->next` is non-null. Used on the unlock path when the
// tail CAS fails: an arriving thread has swapped the tail but not yet linked
// itself; the window is a few instructions.
inline QNode* SpinForSuccessor(QNode* node) {
  QNode* next = node->next.load(std::memory_order_acquire);
  while (next == nullptr) {
    CpuRelax();
    next = node->next.load(std::memory_order_acquire);
  }
  return next;
}

}  // namespace malthus

#endif  // MALTHUS_SRC_LOCKS_LOCK_BASE_H_
