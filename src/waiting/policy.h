// Waiting policies (§5.1 of the paper), expressed as types plugged into the
// lock templates.
//
//   SpinPolicy         — unbounded polite local spinning (the paper's pure
//                        -S waiting, kept as the reference building block).
//   YieldingSpinPolicy — SpinPolicy that detects *effective* oversubscription
//                        (more concurrent spinners than cgroup-aware
//                        effective CPUs) and degrades to bounded
//                        spin-then-sched_yield bursts so pure-spin locks
//                        make forward progress instead of burning whole
//                        preemption ticks. This is what the -S lock aliases
//                        (MCS-S, MCSCR-S, LIFO-S, MCSCRN-S) use: with
//                        spinners <= effective CPUs it is byte-for-byte pure
//                        spinning, so the paper's regime is unchanged.
//   SpinThenParkPolicy — bounded spin approximating one context-switch round
//                        trip, then park (MCS-STP, MCSCR-STP). Karlin/Lim:
//                        spinning for the switch cost then parking is
//                        2-competitive.
//   ParkPolicy         — park promptly (degenerate STP with zero budget).
//
// Each policy provides:
//   Await(flag, expected, parker, budget)
//     — block until *flag != expected. `budget` is the lock's spin budget
//       in spin-loop iterations (SeedSpinBudget(), about 100 µs, unless the
//       lock's options pin another count; see platform/calibrate.h).
//   Wake(parker) / Wake(ParkerRef)
//     — called by the granter after the flag write; a no-op for pure
//       spinning. Granters that may outlive the waiter's thread pass a
//       generation-validated ParkerRef (see platform/thread_registry.h)
//       so a wake aimed at an exited waiter's recycled slot is suppressed.
//
// The flag is the waiter's own node status (local spinning): at most one
// thread spins on a given line, minimizing the invalidation diameter.
//
// Wake-ahead interaction: a lock owner may WakeAhead() the heir before
// releasing. The heir's Park() then returns while the grant flag is still
// unset; SpinThenParkPolicy treats that as "grant imminent" and re-spins —
// politely, yielding every slice so a single-CPU or oversubscribed host
// lets the owner finish its critical section — before re-parking. The
// subsequent grant is then observed in userspace and the granter's Unpark()
// collapses into a no-syscall permit post (an elided kernel wake).
#ifndef MALTHUS_SRC_WAITING_POLICY_H_
#define MALTHUS_SRC_WAITING_POLICY_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "src/platform/cpu.h"
#include "src/platform/park.h"
#include "src/platform/sysinfo.h"
#include "src/platform/thread_registry.h"
#include "src/waiting/backoff.h"

namespace malthus {

// After a Park() returns without the grant being visible (wake-ahead hint or
// stale permit), the waiter re-spins at least this many iterations before
// concluding the permit was stale and re-parking. Covers the tail of the
// owner's critical section after a wake-ahead.
inline constexpr std::uint32_t kMinPostWakeSpin = 4096;

// Within the post-wake re-spin, yield the CPU every this many iterations so
// the owner (which may share the core on oversubscribed hosts) can reach its
// release store.
inline constexpr std::uint32_t kPostWakeYieldSlice = 256;

// At most this many yields per wake. One or two are enough for a co-resident
// owner to finish its critical-section tail and grant; unbounded yielding
// turns contended waits into a round-robin storm that flattens the queue
// locks' emergent structure (e.g. MCSCRN's node-homogeneous chain).
inline constexpr std::uint32_t kMaxPostWakeYields = 2;

// The shared post-wake re-spin: after a Park()/ParkFor() consumed a permit
// that was a wake-ahead hint (or a stale permit), spin up to `iters`
// iterations waiting for `granted()` — yielding every kPostWakeYieldSlice,
// at most kMaxPostWakeYields times, so a co-resident owner can reach its
// release. Returns true iff the grant was observed. Used by
// SpinThenParkPolicy, LOITER's standby wait, and PthreadStyleMutex's node
// wait, so hint-to-grant pacing is tuned in exactly one place.
template <typename Granted>
inline bool PostWakeRespin(std::uint32_t iters, Granted&& granted) {
  std::uint32_t yields = 0;
  for (std::uint32_t i = 0; i < iters; ++i) {
    if (granted()) {
      return true;
    }
    CpuRelax();
    if ((i + 1) % kPostWakeYieldSlice == 0 && yields < kMaxPostWakeYields) {
      ++yields;
      sched_yield();
    }
  }
  return granted();
}

namespace detail {

// Process-wide gauge of threads currently inside a YieldingSpinPolicy wait.
// The escalation predicate compares it against the cgroup-aware effective
// CPU count: it deliberately ignores non-spinning runnable threads (owners,
// STP waiters still in their spin phase), so it under-counts pressure — the
// cheap, safe direction, since a missed escalation only costs what pure
// spinning already cost.
inline std::atomic<std::uint32_t> g_active_spinners{0};

// Times a spinner gave up pure spinning for the yield loop (process-wide,
// for tests and instrumentation).
inline std::atomic<std::uint64_t> g_spin_yield_escalations{0};

}  // namespace detail

struct SpinPolicy {
  static constexpr bool kParks = false;

  template <typename T>
  static void Await(const std::atomic<T>& flag, T expected_while_waiting, Parker& /*parker*/,
                    std::uint32_t /*spin_budget*/) {
    while (flag.load(std::memory_order_acquire) == expected_while_waiting) {
      CpuRelax();
    }
  }

  static void Wake(Parker& /*parker*/) {}
  static void Wake(const ParkerRef& /*ref*/) {}
};

// Number of threads currently spinning under YieldingSpinPolicy.
inline std::uint32_t ActiveSpinners() {
  return detail::g_active_spinners.load(std::memory_order_relaxed);
}

// Process-wide count of pure-spin waits that escalated to sched_yield
// pacing because the spinner population exceeded the effective CPU count.
inline std::uint64_t TotalSpinYieldEscalations() {
  return detail::g_spin_yield_escalations.load(std::memory_order_relaxed);
}

// Pure spinning that survives oversubscription. Identical to SpinPolicy
// while the concurrent-spinner population fits the effective CPU count
// (cgroup-aware; see platform/sysinfo.h). Once spinners >= effective CPUs,
// at least one runnable thread — possibly the lock owner — is involuntarily
// descheduled, and every further spin iteration only lengthens its wait:
// each preempted handover then costs a full preemption tick (the pathology
// that makes the pure-spin suites hang on 1-CPU hosts). The policy then
// grants one last bounded grace burst (the lock's spin budget, at most
// kMaxGraceSpin iterations) and degrades to YieldingBackoff's bounded
// spin-then-sched_yield bursts, de-escalating back to pure spinning if the
// spinner population drains below the CPU count mid-wait. Never parks: Wake
// stays a no-op and granters never pay a futex syscall, preserving the -S
// cost model.
struct YieldingSpinPolicy {
  static constexpr bool kParks = false;

  // Iterations of pure spinning between re-reads of the (process-wide)
  // spinner gauge; keeps the hot loop free of shared-counter loads.
  static constexpr std::uint32_t kProbeSlice = 256;

  // Ceiling on the post-detection grace burst. The grace hedge is "the
  // grant may be a few hundred ns away; don't pay a yield for it" — a few
  // hundred iterations cover that; anything longer is tick-bound anyway.
  static constexpr std::uint32_t kMaxGraceSpin = 512;

  template <typename T>
  static void Await(const std::atomic<T>& flag, T expected_while_waiting, Parker& /*parker*/,
                    std::uint32_t spin_budget) {
    if (flag.load(std::memory_order_acquire) != expected_while_waiting) {
      return;
    }
    detail::g_active_spinners.fetch_add(1, std::memory_order_relaxed);
    bool ever_escalated = false;
    bool yielding = false;
    std::uint32_t probe = 0;
    YieldingBackoff backoff;
    while (flag.load(std::memory_order_acquire) == expected_while_waiting) {
      if (yielding) {
        backoff.Pause();
        if (!Oversubscribed()) {
          yielding = false;  // Population drained; pure spinning is rational again.
          backoff.Reset();
        }
        continue;
      }
      CpuRelax();
      if (++probe >= kProbeSlice) {
        probe = 0;
        if (Oversubscribed()) {
          // Grace: one bounded pure-spin burst in case the grant is already
          // in flight, then start ceding the CPU. A grant landing inside
          // the grace burst still counts as a pure-spin wait.
          const std::uint32_t grace = std::min(spin_budget, kMaxGraceSpin);
          for (std::uint32_t i = 0;
               i < grace && flag.load(std::memory_order_acquire) == expected_while_waiting; ++i) {
            CpuRelax();
          }
          if (flag.load(std::memory_order_acquire) != expected_while_waiting) {
            break;
          }
          yielding = true;
          if (!ever_escalated) {
            ever_escalated = true;
            detail::g_spin_yield_escalations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
    detail::g_active_spinners.fetch_sub(1, std::memory_order_relaxed);
  }

  static void Wake(Parker& /*parker*/) {}
  static void Wake(const ParkerRef& /*ref*/) {}

 private:
  static bool Oversubscribed() {
    return detail::g_active_spinners.load(std::memory_order_relaxed) >=
           static_cast<std::uint32_t>(EffectiveCpuCount());
  }
};

struct SpinThenParkPolicy {
  static constexpr bool kParks = true;

  template <typename T>
  static void Await(const std::atomic<T>& flag, T expected_while_waiting, Parker& parker,
                    std::uint32_t spin_budget) {
    // Phase 1: optimistic local spinning, betting that a grant arrives within
    // roughly a context-switch round trip.
    for (std::uint32_t i = 0; i < spin_budget; ++i) {
      if (flag.load(std::memory_order_acquire) != expected_while_waiting) {
        return;
      }
      CpuRelax();
    }
    // Phase 2: park. Park() may consume a stale permit from a previous grant
    // cycle or a wake-ahead hint from the current owner, so the condition is
    // always re-checked — and after any wake the waiter re-spins before
    // re-parking, so a wake-ahead converts the coming grant into a
    // zero-syscall handover.
    const std::uint32_t respin = std::max(spin_budget, kMinPostWakeSpin);
    while (flag.load(std::memory_order_acquire) == expected_while_waiting) {
      parker.Park();
      PostWakeRespin(respin, [&] {
        return flag.load(std::memory_order_acquire) != expected_while_waiting;
      });
    }
  }

  static void Wake(Parker& parker) { parker.Unpark(); }
  static void Wake(const ParkerRef& ref) { ref.Unpark(); }
};

struct ParkPolicy {
  static constexpr bool kParks = true;

  template <typename T>
  static void Await(const std::atomic<T>& flag, T expected_while_waiting, Parker& parker,
                    std::uint32_t /*spin_budget*/) {
    while (flag.load(std::memory_order_acquire) == expected_while_waiting) {
      parker.Park();
    }
  }

  static void Wake(Parker& parker) { parker.Unpark(); }
  static void Wake(const ParkerRef& ref) { ref.Unpark(); }
};

}  // namespace malthus

#endif  // MALTHUS_SRC_WAITING_POLICY_H_
