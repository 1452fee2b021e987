#include "src/platform/park.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

#include "src/chaos/failpoint.h"

namespace malthus {
namespace {

long FutexWait(std::atomic<std::int32_t>* addr, std::int32_t expected,
               const struct timespec* timeout) {
  return syscall(SYS_futex, reinterpret_cast<std::int32_t*>(addr), FUTEX_WAIT_PRIVATE, expected,
                 timeout, nullptr, 0);
}

long FutexWake(std::atomic<std::int32_t>* addr, int count) {
  return syscall(SYS_futex, reinterpret_cast<std::int32_t*>(addr), FUTEX_WAKE_PRIVATE, count,
                 nullptr, nullptr, 0);
}

std::atomic<std::uint64_t> g_total_kernel_parks{0};
std::atomic<std::uint64_t> g_total_kernel_wakes{0};
std::atomic<std::uint64_t> g_total_elided_wakes{0};
std::atomic<std::uint64_t> g_total_wake_aheads{0};

}  // namespace

std::uint64_t TotalKernelParks() {
  return g_total_kernel_parks.load(std::memory_order_relaxed);
}

std::uint64_t TotalKernelWakes() {
  return g_total_kernel_wakes.load(std::memory_order_relaxed);
}

std::uint64_t TotalElidedKernelWakes() {
  return g_total_elided_wakes.load(std::memory_order_relaxed);
}

std::uint64_t TotalWakeAheads() {
  return g_total_wake_aheads.load(std::memory_order_relaxed);
}

// Protocol invariants (single owner, many wakers):
//   * Only the owner writes kNeutral (permit consumption, timeout retract)
//     and kParked (block announcement).
//   * Wakers only ever exchange in kPermit.
// Hence from the owner's point of view the state at Park() entry is kNeutral
// or kPermit, never kParked, and a kNeutral observed by the owner cannot
// spontaneously become kParked.

// Entry step: returns true if a pending permit was consumed (fast path,
// counted); returns false once kParked has been advertised so wakers know a
// futex syscall is required from this point on.
bool Parker::ConsumePermitOrAdvertisePark() {
  std::int32_t s = state_.load(std::memory_order_relaxed);
  while (true) {
    if (s == kPermit) {
      // Fast path: consume the pending permit without entering the kernel.
      // Acquire pairs with the waker's release exchange in Post().
      if (state_.compare_exchange_weak(s, kNeutral, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        fast_path_parks_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      continue;
    }
    // s == kNeutral.
    if (state_.compare_exchange_weak(s, kParked, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
      kernel_waits_.fetch_add(1, std::memory_order_relaxed);
      g_total_kernel_parks.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
}

// Post-FutexWait step: consumes a posted permit, or reports a spurious
// return (EINTR, stale wake) with the kParked advertisement still standing.
bool Parker::TryConsumePermit() {
  std::int32_t expected = kPermit;
  return state_.compare_exchange_strong(expected, kNeutral, std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

void Parker::Park() {
  if (ConsumePermitOrAdvertisePark()) {
    return;
  }
  while (true) {
    // Chaos: "park.spurious" models a futex wait returning without a permit
    // (EINTR, stale wake from a previous cycle) by eliding the syscall; the
    // kParked advertisement stands and the permit re-check below runs
    // exactly as it would after a real spurious return.
    if (!MALTHUS_FAILPOINT_TRIGGERED("park.spurious")) {
      FutexWait(&state_, kParked, nullptr);
    }
    if (TryConsumePermit()) {
      return;
    }
  }
}

bool Parker::ParkFor(std::chrono::nanoseconds timeout) {
  if (ConsumePermitOrAdvertisePark()) {
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      // Retract the kParked advertisement. If a waker raced the timeout it
      // has already exchanged in kPermit (and possibly issued a by-now
      // harmless wake); consume that permit so it is never lost.
      std::int32_t expected = kParked;
      if (state_.compare_exchange_strong(expected, kNeutral, std::memory_order_acquire)) {
        return false;
      }
      // expected == kPermit: the permit won the race; take it. Further
      // posts over kPermit collapse, so the plain store consumes exactly
      // one logical permit; the failed CAS's acquire load pairs with the
      // waker's release exchange. (No fast_path_parks_ increment: this
      // call already counted as a kernel wait, and the counters partition
      // calls, not outcomes.)
      state_.store(kNeutral, std::memory_order_relaxed);
      return true;
    }
    const auto remaining = deadline - now;
    struct timespec ts;
    ts.tv_sec = std::chrono::duration_cast<std::chrono::seconds>(remaining).count();
    ts.tv_nsec = (remaining - std::chrono::seconds(ts.tv_sec)).count();
    // Chaos: same spurious-return injection as Park(). With the site armed
    // at probability 1 this turns ParkFor into a tight retract/consume race
    // against concurrent Unpark() — the PR 1 regression driver.
    if (!MALTHUS_FAILPOINT_TRIGGERED("park.spurious")) {
      FutexWait(&state_, kParked, &ts);
    }
    if (TryConsumePermit()) {
      return true;
    }
  }
}

bool Parker::Post() {
  // Posting over an existing permit is a no-op (restricted-range semaphore);
  // release pairs with the owner's acquire on consumption.
  const std::int32_t prev = state_.exchange(kPermit, std::memory_order_release);
  if (prev == kParked) {
    // Wake first, count after: the syscall is on the handover critical path
    // and the stats are not.
    FutexWake(&state_, 1);
    kernel_wakes_.fetch_add(1, std::memory_order_relaxed);
    g_total_kernel_wakes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (prev == kNeutral) {
    // The owner is runnable — spinning on its grant flag, in its prologue,
    // or not waiting at all. A two-state parker pays a futex syscall here;
    // advertising kParked lets us skip it. This is the zero-syscall
    // handover the wake-ahead subsystem maximizes.
    elided_wakes_.fetch_add(1, std::memory_order_relaxed);
    g_total_elided_wakes.fetch_add(1, std::memory_order_relaxed);
  }
  // prev == kPermit: permit collapse; an earlier post already did the work.
  return false;
}

bool Parker::DrainPermit() {
  // Owner-side: state is kNeutral or kPermit here (never kParked — the
  // owner is running this code, not blocked). One strong CAS suffices.
  return TryConsumePermit();
}

void Parker::Unpark() {
  // Chaos: widen the window between the granter's decision to wake and the
  // permit post (the interval where the waiter may park, or time out of a
  // ParkFor, underneath the wake).
  MALTHUS_FAILPOINT("park.unpark.delay");
  Post();
}

bool Parker::WakeAhead() {
  wake_aheads_.fetch_add(1, std::memory_order_relaxed);
  g_total_wake_aheads.fetch_add(1, std::memory_order_relaxed);
  // Chaos: "park.wakeahead.elide" models a lost anticipatory hint — the
  // call is counted but no permit is posted, so the eventual grant must
  // carry the wake on its own (the parking litmus test: correctness may
  // never depend on the hint). "park.wakeahead.delay" defers the hint into
  // the release window instead.
  if (MALTHUS_FAILPOINT_TRIGGERED("park.wakeahead.elide")) {
    return false;
  }
  MALTHUS_FAILPOINT("park.wakeahead.delay");
  return Post();
}

}  // namespace malthus
