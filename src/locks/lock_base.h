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
// (alloc/slab.h): pools refill from the slab in batches and hand everything
// back at thread exit — free nodes directly, cancelled-but-unreclaimed
// husks via the orphanage (ScavengeOrphanQNodes), so thread churn is
// memory-flat. Slab memory is type-stable for the life of the process, so
// a granter's post-grant touch of a recycled node can never fault; the
// node's generation stamp (slot_gen / ctx_gen) turns it into a logical
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
// with release semantics after publishing any owner-handoff state.
//
// Timed acquisition adds three more states forming the cancellation
// protocol (tombstones, not neighbor-stitching: a timed-out waiter cannot
// safely touch its neighbors' links, but it *can* flip its own flag and
// walk away, leaving the granting owner — who already owns the chain — to
// skip and reclaim the husk):
//
//   kCancelled — waiter-side tombstone. The waiter CASes kWaiting ->
//                kCancelled and abandons the node (ZombieQNode). A failed
//                CAS means a granter won the race and the waiter owns the
//                lock after all.
//   kClaimed   — granter-side pin. Paths that must *link* a node before
//                granting it (MCSCR fairness graft / deficit refill,
//                MCSCRN rotation) first CAS kWaiting -> kClaimed; a
//                claimed node can no longer cancel, so the subsequent
//                splicing is race-free. The waiter's Await exits on any
//                value != kWaiting, so waiters observing kClaimed spin on
//                to kGranted (AwaitGrantCommit).
//   kReclaimed — granter-side release of a cancelled husk, stored with
//                release semantics *after* the granter's last read of the
//                node. The owning thread's arena reaps zombies whose flag
//                reads kReclaimed (acquire), which orders every granter
//                access before reuse.
inline constexpr std::uint32_t kWaiting = 0;
inline constexpr std::uint32_t kGranted = 1;
inline constexpr std::uint32_t kCancelled = 2;
inline constexpr std::uint32_t kClaimed = 3;
inline constexpr std::uint32_t kReclaimed = 4;

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

  // Wake channel for the thread that prepared this node. Safe to copy out
  // before a grant CAS and invoke after it.
  ParkerRef wake_ref() const { return ParkerRef(ctx, ctx_gen); }

  // True while the thread that prepared this node still holds its ThreadCtx
  // tenancy. A node whose owner has detached can only be a tombstone — a
  // live waiter pins its ThreadCtx until its wait resolves — so linking
  // paths (the kClaimed pin) use this as a pre-CAS tripwire.
  bool OwnerCurrent() const {
    return ctx != nullptr &&
           ctx->slot_gen.load(std::memory_order_acquire) == ctx_gen;
  }
};

// Pops a node from the calling thread's pool (allocating if empty).
QNode* AcquireQNode();

// Returns a node to the calling thread's pool. The node must be quiescent:
// no other thread may still hold a reference that it will dereference.
void ReleaseQNode(QNode* node);

// Abandons a cancelled node that a granter may still reference. The node
// parks on the calling thread's zombie list until its status reads
// kReclaimed (stored by the granter after its last access), at which point
// AcquireQNode() reaps it back into the free pool. Must be called by the
// thread that acquired the node.
void ZombieQNode(QNode* node);

// Process-wide count of zombied nodes not yet reaped. Leak tests drain
// activity and assert this returns to zero.
std::uint64_t OutstandingZombieQNodes();

// Reaps the calling thread's reclaimed zombies back into its pool without
// waiting for the next AcquireQNode(), and returns how many of this
// thread's zombies remain pinned by a granter. A thread need not call it
// before exiting: arena teardown reaps once more and hands zombies still
// pinned to the process-wide orphanage rather than leaking them (see
// NodeArena::~NodeArena), so a non-zero return here is a latency concern,
// not a leak.
std::size_t ReapZombieQNodes();

// Scans the orphanage — zombie nodes whose owning thread exited before a
// granter released its pin — and returns every node whose status reads
// kReclaimed (acquire) to the slab, decrementing the zombie gauge. Any
// thread may call this. Returns the number of nodes reclaimed by this call.
std::size_t ScavengeOrphanQNodes();

// Orphaned zombie nodes currently parked in the orphanage (subset of
// OutstandingZombieQNodes()). Test/diagnostic surface.
std::size_t OrphanedQNodes();

// The process-wide QNode slab (test/diagnostic surface: memory-flatness
// checks read BytesReserved()/SlotsLive()).
SlabAllocator<QNode>& QNodeSlab();

// A waiter whose Await exited on kClaimed was picked by a linking granter
// (graft/refill/rotation) that has not yet committed the grant; the commit
// is a few stores away. Spin for it.
inline void AwaitGrantCommit(const std::atomic<std::uint32_t>& status) {
  while (status.load(std::memory_order_acquire) != kGranted) {
    CpuRelax();
  }
}

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
