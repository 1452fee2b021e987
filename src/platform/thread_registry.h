// Dense thread identities and per-thread parking context.
//
// Lock algorithms and the metrics layer need (a) a small dense integer id
// per participating thread — admission histories store these — and (b) the
// thread's Parker so that an unlocking thread can wake a waiter. Both are
// provided by a process-wide registry with thread_local caching. Contexts
// live in a generation-stamped slab (alloc/slab.h): a thread checks its
// ThreadCtx out on first use and returns it at exit, and ids are recycled
// through a free list (concurrently-live threads always hold distinct ids;
// RegisteredThreadCount() stays a high-water mark).
//
// Because a granter may still poke the Parker in the window between
// publishing a grant flag and issuing the wake — after the woken thread has
// already moved on, or even exited — cross-thread wakes go through a
// ParkerRef: a {ThreadCtx*, generation} pair captured while the target was
// pinned. The slab keeps the memory type-stable (the poke can never fault)
// and the generation check turns a poke at a recycled slot into a logical
// no-op. The residual race (recycling between check and futex post) at
// worst hands the slot's new tenant a spurious permit, which the parking
// litmus test tolerates and attach-time DrainPermit() absorbs.
#ifndef MALTHUS_SRC_PLATFORM_THREAD_REGISTRY_H_
#define MALTHUS_SRC_PLATFORM_THREAD_REGISTRY_H_

#include <atomic>
#include <cstdint>

#include "src/alloc/slab.h"
#include "src/platform/align.h"
#include "src/platform/park.h"

namespace malthus {

using ThreadId = std::uint32_t;

inline constexpr ThreadId kInvalidThreadId = UINT32_MAX;

// Per-thread context handed around by lock algorithms. Obtained via Self().
// Cache-line-aligned: the parker's futex word is written by *other* threads
// (granters, wake-ahead hints); without the alignment, adjacent threads'
// contexts could false-share and every grant would invalidate a bystander.
struct alignas(kCacheLineSize) ThreadCtx {
  ThreadId id = kInvalidThreadId;
  Parker parker;
  // Simulated NUMA node for MCSCRN experiments; kInvalidNode means "use the
  // topology provider" (see core/topology.h).
  std::uint32_t forced_node = UINT32_MAX;
  // Slab tenancy stamp, owned by ThreadCtxSlab() (odd = checked out). Wake
  // paths validate it through ParkerRef; see alloc/slab.h.
  std::atomic<std::uint64_t> slot_gen{0};
};

namespace detail {
// Cross-thread wakes suppressed because the target slot was recycled.
inline std::atomic<std::uint64_t> g_stale_wakes_suppressed{0};
}  // namespace detail

// A generation-validated wake channel: {context, tenancy} captured while
// the target thread was pinned (e.g. before a grant store, while the waiter
// cannot exit). After the pin is dropped the holder may still call
// Unpark()/WakeAhead(): if the tenancy ended, the call is a counted no-op
// instead of a use-after-free. Copyable and trivially destructible — lock
// code snapshots these into QNodes and stack frames.
class ParkerRef {
 public:
  ParkerRef() = default;
  ParkerRef(ThreadCtx* ctx, std::uint64_t gen) : ctx_(ctx), gen_(gen) {}

  explicit operator bool() const { return ctx_ != nullptr; }

  // True while the referenced tenancy is still live.
  bool Current() const {
    return ctx_ != nullptr &&
           ctx_->slot_gen.load(std::memory_order_acquire) == gen_;
  }

  // Validated Parker::Unpark(). Returns false (and counts a suppressed
  // stale wake) if the tenancy ended. A recycle that lands between the
  // check and the futex post degrades to a spurious permit on the new
  // tenant — benign by the parking litmus test.
  bool Unpark() const {
    if (!Current()) {
      if (ctx_ != nullptr) {
        detail::g_stale_wakes_suppressed.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      return false;
    }
    ctx_->parker.Unpark();
    return true;
  }

  // Validated Parker::WakeAhead() (anticipatory handover hint).
  bool WakeAhead() const {
    if (!Current()) {
      if (ctx_ != nullptr) {
        detail::g_stale_wakes_suppressed.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      return false;
    }
    ctx_->parker.WakeAhead();
    return true;
  }

 private:
  ThreadCtx* ctx_ = nullptr;
  std::uint64_t gen_ = 0;
};

// Returns the calling thread's context, registering the thread on first use.
// The context is returned to the slab when the thread exits.
ThreadCtx& Self();

// Wake channel for the calling thread's own context (always current at the
// time of the call — a thread cannot outrun its own tenancy).
inline ParkerRef SelfWakeRef(ThreadCtx& self) {
  return ParkerRef(&self, self.slot_gen.load(std::memory_order_relaxed));
}

// High-water mark of thread ids handed out (upper bound on participants).
// Ids of exited threads are recycled, so this does not decrease.
ThreadId RegisteredThreadCount();

// Cross-thread wakes suppressed by generation validation (stale ParkerRef
// against a recycled or returned slot). Test/diagnostic surface.
std::uint64_t StaleWakesSuppressed();

// The process-wide ThreadCtx slab (test/diagnostic surface: memory-flatness
// checks read BytesReserved()/SlotsLive()).
SlabAllocator<ThreadCtx>& ThreadCtxSlab();

}  // namespace malthus

#endif  // MALTHUS_SRC_PLATFORM_THREAD_REGISTRY_H_
