// Typed slab allocator with per-CPU magazines, a depot layer, and
// generation-stamped safe reclamation (Bonwick '94 shape, specialized for
// the waiter-state objects of this library: ThreadCtx and QNode).
//
// Why it exists: the paper's succession protocols let a granter touch a
// waiter's state *after* the grant store — the post-grant Wake() through
// the waiter's ThreadCtx, whose thread may have run, unlocked and exited in
// between. The repo used to make that touch safe by deliberately leaking
// every ThreadCtx at thread exit. That is fine for long-lived bench threads
// and wrong for a server with thread churn. This allocator retires the
// leak with two properties (QNodes come from it too, so an exiting
// thread's node pool goes back for reuse and churn stays memory-flat):
//
//   * Type-stable memory. Slot memory is carved from slabs owned by the
//     allocator and freed only when the allocator itself is destroyed (at
//     process exit). A stale pointer into a recycled slot therefore always
//     points at a live, correctly-typed object — a stale touch is
//     *memory-safe* by construction.
//   * Generation stamps. Every slot type T exposes an intrusive
//     `std::atomic<std::uint64_t> slot_gen`, bumped on checkout (odd =
//     checked out) and on return (even = free). A validator that captured
//     {object, generation} while the slot was pinned can later detect
//     recycling with one acquire load and turn the touch into a logical
//     no-op (see ParkerRef in platform/thread_registry.h). The residual
//     race — the generation changing between the check and the touch —
//     degrades to a spurious permit on the slot's new tenant, which the
//     parking litmus test already tolerates and checkout drains.
//
// Layout (akaros/Bonwick magazine shape):
//
//   Checkout/Return ──▶ per-CPU cache (EffectiveCpuCount-sized array,
//                       TinyLock + loaded/previous magazines)
//                          │ magazine exchange
//                          ▼
//                       depot (TinyLock: full/empty magazine lists,
//                       loose-slot list, slab list)
//                          │ slab carve
//                          ▼
//                       aligned ::operator new, placement-new once per slot
//                       (constructed-object caching: T's constructor runs
//                       once per slot lifetime, not once per checkout)
//
// The internal locks are raw test-and-set spinlocks (TinyLock), never this
// repo's queue locks: the queue locks allocate QNodes, and QNodes come from
// a SlabAllocator — using them here would recurse.
#ifndef MALTHUS_SRC_ALLOC_SLAB_H_
#define MALTHUS_SRC_ALLOC_SLAB_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/platform/align.h"
#include "src/platform/cpu.h"
#include "src/platform/sysinfo.h"

namespace malthus {

namespace slab_detail {

// Raw test-and-set spinlock for allocator internals. Critical sections are
// a handful of pointer moves; contention is bounded by the per-CPU fan-in.
class TinyLock {
 public:
  void lock() {
    while (flag_.exchange(1, std::memory_order_acquire) != 0) {
      CpuRelax();
    }
  }
  void unlock() { flag_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint32_t> flag_{0};
};

// Process-wide slab-byte accounting across every SlabAllocator instance
// (defined in slab.cc). Memory-flatness tests assert this stops growing
// once the working set is warm.
void AddReservedBytes(std::size_t n);
void SubReservedBytes(std::size_t n);

}  // namespace slab_detail

// Total bytes currently reserved in slabs across all SlabAllocator
// instances (slot storage only; magazine bookkeeping is excluded).
std::size_t TotalSlabBytesReserved();

// A typed slab allocator. T must be trivially destructible and expose a
// public `std::atomic<std::uint64_t> slot_gen` initialized to 0; the
// allocator owns that field's parity protocol (odd = checked out).
template <typename T>
class SlabAllocator {
  static_assert(std::is_trivially_destructible_v<T>,
                "slab slots are destroyed only at allocator teardown");

 public:
  // A checked-out slot plus the generation stamped at checkout. Callers
  // that hand out wake channels snapshot {obj, gen} while the slot is
  // pinned; IsCurrent() later tells a toucher whether the tenancy ended.
  struct Handle {
    T* obj = nullptr;
    std::uint64_t gen = 0;
  };

  explicit SlabAllocator(std::size_t slots_per_slab = kDefaultSlotsPerSlab)
      : slots_per_slab_(slots_per_slab),
        cache_count_(static_cast<std::size_t>(
            EffectiveCpuCount() > 0 ? EffectiveCpuCount() : 1)),
        caches_(new CpuCache[cache_count_]) {}

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Frees every slab and magazine. Runs at static destruction for the
  // process-wide instances (QNodeSlab, ThreadCtxSlab): thread_local
  // destructors (which return slots) run before static destructors on the
  // main thread, so by the time this runs all well-behaved tenants are
  // gone and LeakSanitizer sees a clean heap. Slots still checked out here
  // (say, the QNode of a thread that exited holding a lock) lose their
  // memory with the slab — safe, because nothing can touch them after
  // process exit.
  ~SlabAllocator() {
    for (Magazine* m : depot_.all_magazines) {
      delete m;
    }
    for (void* slab : depot_.slabs) {
      ::operator delete(slab, std::align_val_t{alignof(T)});
    }
    const std::size_t bytes = depot_.slabs.size() * SlabBytes();
    slab_detail::SubReservedBytes(bytes);
    delete[] caches_;
  }

  // Checks out a slot and stamps its generation odd. The returned object
  // keeps whatever state its previous tenant left (constructed-object
  // caching); callers re-initialize the fields they own.
  Handle Checkout() {
    T* obj = Pop();
    // acq_rel: acquire pairs with the previous tenant's release bump in
    // Return(), ordering its final writes before our first reads of the
    // slot; release publishes the odd parity to generation validators.
    const std::uint64_t gen =
        obj->slot_gen.fetch_add(1, std::memory_order_acq_rel) + 1;
    live_.fetch_add(1, std::memory_order_relaxed);
    return Handle{obj, gen};
  }

  // Returns a slot, stamping its generation even. After this, validators
  // holding the checkout-time generation observe the mismatch and no-op.
  void Return(T* obj) {
    // Release: every write this tenant made to the slot is ordered before
    // the parity flip that lets validators (and the next tenant) move on.
    obj->slot_gen.fetch_add(1, std::memory_order_release);
    live_.fetch_sub(1, std::memory_order_relaxed);
    Push(obj);
  }

  // Current generation of a slot (acquire: pairs with the stamp bumps).
  static std::uint64_t GenerationOf(const T* obj) {
    return obj->slot_gen.load(std::memory_order_acquire);
  }

  // True while the tenancy that observed `gen` at checkout is still live.
  static bool IsCurrent(const T* obj, std::uint64_t gen) {
    return GenerationOf(obj) == gen;
  }

  // Slot bytes reserved by this instance (slabs only). Monotonic while the
  // process runs; flat once the working set is warm.
  std::size_t BytesReserved() const {
    return slab_count_.load(std::memory_order_relaxed) * SlabBytes();
  }

  // Slots currently checked out.
  std::uint64_t SlotsLive() const {
    return live_.load(std::memory_order_relaxed);
  }

  std::size_t SlabCount() const {
    return slab_count_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kDefaultSlotsPerSlab = 32;
  static constexpr std::size_t kMagazineCapacity = 16;

 private:
  struct Magazine {
    T* slots[kMagazineCapacity];
    std::size_t count = 0;
    bool Full() const { return count == kMagazineCapacity; }
    bool Empty() const { return count == 0; }
  };

  // Per-CPU front end. Cache-line aligned so two CPUs' caches never share
  // a line; indexed by CurrentCpu() % cache_count_, which is a locality
  // hint, not an exclusivity guarantee — hence the TinyLock.
  struct alignas(kCacheLineSize) CpuCache {
    slab_detail::TinyLock lock;
    Magazine* loaded = nullptr;
    Magazine* previous = nullptr;
  };

  struct Depot {
    slab_detail::TinyLock lock;
    std::vector<Magazine*> full;
    std::vector<Magazine*> empty;
    std::vector<Magazine*> all_magazines;  // ownership list for teardown
    std::vector<T*> loose;                 // constructed slots in no magazine
    std::vector<void*> slabs;
  };

  std::size_t SlabBytes() const { return slots_per_slab_ * sizeof(T); }

  CpuCache& Cache() {
    const int cpu = CurrentCpu();
    const std::size_t idx =
        cpu >= 0 ? static_cast<std::size_t>(cpu) % cache_count_ : 0;
    return caches_[idx];
  }

  // Depot lock held. Carves one slab into constructed loose slots.
  void AllocateSlabLocked() {
    void* raw = ::operator new(SlabBytes(), std::align_val_t{alignof(T)});
    depot_.slabs.push_back(raw);
    slab_count_.fetch_add(1, std::memory_order_relaxed);
    slab_detail::AddReservedBytes(SlabBytes());
    T* slots = static_cast<T*>(raw);
    depot_.loose.reserve(depot_.loose.size() + slots_per_slab_);
    for (std::size_t i = slots_per_slab_; i-- > 0;) {
      depot_.loose.push_back(new (&slots[i]) T());
    }
  }

  T* Pop() {
    CpuCache& c = Cache();
    c.lock.lock();
    while (true) {
      if (c.loaded != nullptr && !c.loaded->Empty()) {
        T* obj = c.loaded->slots[--c.loaded->count];
        c.lock.unlock();
        return obj;
      }
      if (c.previous != nullptr && !c.previous->Empty()) {
        std::swap(c.loaded, c.previous);
        continue;
      }
      // Magazine round trip: trade our empty loaded magazine for a full
      // one, or fall through to the loose list / a fresh slab.
      depot_.lock.lock();
      if (!depot_.full.empty()) {
        Magazine* full = depot_.full.back();
        depot_.full.pop_back();
        if (c.loaded != nullptr) {
          depot_.empty.push_back(c.loaded);
        }
        c.loaded = full;
        depot_.lock.unlock();
        continue;
      }
      if (depot_.loose.empty()) {
        AllocateSlabLocked();
      }
      T* obj = depot_.loose.back();
      depot_.loose.pop_back();
      depot_.lock.unlock();
      c.lock.unlock();
      return obj;
    }
  }

  void Push(T* obj) {
    CpuCache& c = Cache();
    c.lock.lock();
    while (true) {
      if (c.loaded != nullptr && !c.loaded->Full()) {
        c.loaded->slots[c.loaded->count++] = obj;
        c.lock.unlock();
        return;
      }
      if (c.loaded != nullptr &&
          (c.previous == nullptr || c.previous->Empty())) {
        std::swap(c.loaded, c.previous);
        if (c.loaded == nullptr) {
          c.loaded = GetEmptyMagazine();
        }
        continue;
      }
      // loaded full (or absent) and previous full: push a full magazine to
      // the depot and retry with an empty one.
      depot_.lock.lock();
      if (c.previous != nullptr && c.previous->Full()) {
        depot_.full.push_back(c.previous);
        c.previous = nullptr;
      }
      if (c.loaded == nullptr) {
        c.loaded = GetEmptyMagazineLocked();
        depot_.lock.unlock();
        continue;
      }
      depot_.full.push_back(c.loaded);
      c.loaded = GetEmptyMagazineLocked();
      depot_.lock.unlock();
    }
  }

  Magazine* GetEmptyMagazine() {
    depot_.lock.lock();
    Magazine* m = GetEmptyMagazineLocked();
    depot_.lock.unlock();
    return m;
  }

  // Depot lock held.
  Magazine* GetEmptyMagazineLocked() {
    if (!depot_.empty.empty()) {
      Magazine* m = depot_.empty.back();
      depot_.empty.pop_back();
      return m;
    }
    Magazine* m = new Magazine();
    depot_.all_magazines.push_back(m);
    return m;
  }

  const std::size_t slots_per_slab_;
  const std::size_t cache_count_;
  CpuCache* caches_;
  Depot depot_;
  std::atomic<std::size_t> slab_count_{0};
  std::atomic<std::uint64_t> live_{0};
};

}  // namespace malthus

#endif  // MALTHUS_SRC_ALLOC_SLAB_H_
