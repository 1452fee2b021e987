// LOITER — "Locking: Outer-Inner with ThRottling" (paper §A.1).
//
// A composite lock: an outer test-and-set lock taken by a bounded
// randomized-backoff *global* spin phase (the fast path, competitive
// succession / barging), backed by an inner MCS lock (the slow path, direct
// handoff). The thread holding the inner lock is the unique *standby*
// thread; it alone contends with fast-path arrivals for the outer lock,
// using spin-then-park waiting.
//
// The ACS is the set of threads circulating over the outer lock (owner +
// NCS-circulating + fast-path spinners); the PS is the set queued on the
// inner MCS lock. The standby thread sits on the cusp.
//
// Anti-starvation: a standby that has waited longer than `patience` sets
// handoff_requested_; the next unlock then *directly hands off* the outer
// lock (leaving it held and granting the standby), hybridizing competitive
// and direct succession.
//
// Optimizations from the paper, all on by default and individually
// switchable for the ablation benches:
//   * bounded count of concurrent fast-path spinners (excess arrivals
//     self-cull straight to the slow path);
//   * self-culling when the atomic fails too often (high flux over the
//     lock means the ACS is already saturated);
//   * deferred unpark: after releasing the outer lock, re-check whether
//     some barging thread has already taken it — if so the wake of the
//     standby can be avoided entirely (succession is delegated).
// The standby parks in timed slices (Parker::ParkFor), so a deferred-away
// wake can never strand it.
//
// The standby's grant word has two states: kGrantWaiting while it contends,
// kGrantGranted once an unlocker has handed it the outer lock directly. The
// standby role ends only when its holder owns the outer lock, so a direct
// handoff is one release store.
//
// Wake-ahead (PrepareHandover, docs/handover.md): owners can post the
// predicted heir's wake permit from the critical-section tail, so the
// standby's kernel wakeup overlaps the remaining hold and the grant itself
// is a syscall-free permit post. After any consumed permit the standby
// re-spins (politely, with bounded yields) before re-parking, which is what
// turns a hint into a userspace-observed grant.
#ifndef MALTHUS_SRC_CORE_LOITER_H_
#define MALTHUS_SRC_CORE_LOITER_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/locks/mcs.h"
#include "src/metrics/admission_log.h"
#include "src/platform/align.h"
#include "src/platform/thread_registry.h"
#include "src/rng/xorshift.h"
#include "src/waiting/backoff.h"

namespace malthus {

struct LoiterOptions {
  std::uint32_t fast_spin_attempts = 64;   // backoff-paced tries on the outer lock
  std::uint32_t max_fast_spinners = 8;     // 0 = uncapped
  std::uint32_t self_cull_cas_failures = 16;  // 0 = disabled
  bool deferred_unpark = true;
  std::chrono::nanoseconds patience = std::chrono::milliseconds(2);
  std::chrono::nanoseconds standby_park_slice = std::chrono::microseconds(500);
};

class LoiterLock {
 public:
  LoiterLock() = default;
  explicit LoiterLock(const LoiterOptions& opts) : opts_(opts) {}
  LoiterLock(const LoiterLock&) = delete;
  LoiterLock& operator=(const LoiterLock&) = delete;

  void lock();
  bool try_lock();
  void unlock();

  // Anticipatory handover (wake-ahead, §5.2): called by the owner near the
  // end of its critical section, before unlock(). Predicts the heir the
  // coming unlock() will wake, read-only, and posts its wake permit so a
  // parked heir overlaps its kernel wakeup with the critical-section tail:
  //   * fast-path owner — the heir is the standby (the only thread this
  //     lock ever parks); its ParkFor() consumes the permit and re-spins,
  //     so both the direct-handoff grant and the release-then-unpark path
  //     collapse into syscall-free permit posts;
  //   * slow-path owner (the retired standby, still holding the inner MCS
  //     lock) — the heir is the inner lock's successor, which unlock()
  //     promotes to standby via inner_.unlock(); delegate to the MCS
  //     wake-ahead so the successor is runnable by the time it is granted.
  // Mispredictions (a barging arrival takes the outer lock first, the
  // deferred-unpark window delegates succession) leave a stale permit,
  // which only degrades the standby to one spin-and-repark round.
  void PrepareHandover();

  void set_recorder(AdmissionLog* recorder) { recorder_ = recorder; }
  void set_options(const LoiterOptions& opts) { opts_ = opts; }

  std::uint64_t fast_acquires() const { return fast_acquires_.load(std::memory_order_relaxed); }
  std::uint64_t slow_acquires() const { return slow_acquires_.load(std::memory_order_relaxed); }
  std::uint64_t direct_handoffs() const {
    return direct_handoffs_.load(std::memory_order_relaxed);
  }
  std::uint64_t avoided_unparks() const {
    return avoided_unparks_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kOuterFree = 0;
  static constexpr std::uint32_t kOuterHeld = 1;

  // standby_grant_ values (see the header comment). The retiring standby
  // resets the word to kGrantWaiting before it releases the inner lock, so
  // the next standby finds it reset.
  static constexpr std::uint32_t kGrantWaiting = 0;
  static constexpr std::uint32_t kGrantGranted = 1;

  bool TryOuter() {
    return outer_.load(std::memory_order_relaxed) == kOuterFree &&
           outer_.exchange(kOuterHeld, std::memory_order_acquire) == kOuterFree;
  }

  // Fast path: bounded global spinning with randomized backoff. Returns
  // true on acquisition.
  bool FastPathSpin();

  alignas(kCacheLineSize) std::atomic<std::uint32_t> outer_{kOuterFree};
  McsStpLock inner_;
  // The standby's wake channel & the direct-handoff grant word. Only one
  // standby exists at a time (it holds the inner lock). The channel is a
  // generation-stamped {ThreadCtx*, gen} pair published as two atomics
  // (gen first, relaxed; ctx second, release — readers acquire-load ctx
  // and then read gen). A reader pairing a new ctx with a torn gen can at
  // worst build a ParkerRef whose validation fails, i.e. a suppressed
  // wake; the standby's timed park self-heals within one slice.
  std::atomic<ThreadCtx*> standby_{nullptr};
  std::atomic<std::uint64_t> standby_gen_{0};
  std::atomic<std::uint32_t> standby_grant_{0};
  std::atomic<std::uint32_t> handoff_requested_{0};
  std::atomic<std::uint32_t> fast_spinners_{0};
  // True iff the current owner arrived via the slow path (i.e. is the
  // standby and still holds the inner lock). Owner-protected.
  bool owner_via_slow_ = false;

  std::atomic<std::uint64_t> fast_acquires_{0};
  std::atomic<std::uint64_t> slow_acquires_{0};
  std::atomic<std::uint64_t> direct_handoffs_{0};
  std::atomic<std::uint64_t> avoided_unparks_{0};
  AdmissionLog* recorder_ = nullptr;
  LoiterOptions opts_;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_LOITER_H_
