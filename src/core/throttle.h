// CrThrottle — concurrency restriction imposed *outside* the lock's waiting
// mechanism (paper §A.1: "You can also impose concurrency restriction at a
// higher level outside the waiting mechanism... wrap [an] abstract outer
// lock with [a] CR 'throttling' construct. Throttling provides
// K-exclusion.").
//
// ThrottledLock<Lock> gates arrivals through a mostly-LIFO K-exclusion
// semaphore before they may contend for the inner lock: at most
// `max_circulating` threads circulate over the lock at any moment; the rest
// are passivated in the semaphore's wait queue (mostly-LIFO keeps the same
// warm subset circulating; the semaphore's fairness appends bound
// starvation). This turns ANY lock — even a fairness-oblivious TAS or a
// strict-FIFO MCS — into a CR lock, at the cost of one extra
// semaphore operation per circulation and a fixed K instead of MCSCR's
// emergent ACS size.
//
// A thread passes the gate once per lock()/unlock() pair; the gate permit
// is held across the critical section, so K bounds the *circulating set*
// (owner + waiters), not merely the waiters.
#ifndef MALTHUS_SRC_CORE_THROTTLE_H_
#define MALTHUS_SRC_CORE_THROTTLE_H_

#include <atomic>
#include <cstdint>

#include "src/core/cr_semaphore.h"
#include "src/metrics/admission_log.h"

namespace malthus {

struct ThrottleOptions {
  // Maximum threads allowed to circulate over the inner lock concurrently.
  // The paper's saturation heuristic — ceil((CS+NCS)/CS) — is a good
  // static choice; MCSCR's emergent sizing remains the adaptive option.
  std::uint32_t max_circulating = 4;
  // Queue discipline for the gate: mostly-LIFO by default.
  double append_probability = 1.0 / 1000;
};

template <typename Lock>
class ThrottledLock {
 public:
  ThrottledLock()
      : gate_(ThrottleOptions{}.max_circulating,
              CrSemaphoreOptions{.append_probability = ThrottleOptions{}.append_probability}) {}
  explicit ThrottledLock(const ThrottleOptions& opts)
      : gate_(opts.max_circulating,
              CrSemaphoreOptions{.append_probability = opts.append_probability}) {}
  ThrottledLock(const ThrottledLock&) = delete;
  ThrottledLock& operator=(const ThrottledLock&) = delete;

  void lock() {
    if (!gate_.TryWait()) {
      throttled_.fetch_add(1, std::memory_order_relaxed);
      gate_.Wait();
    }
    inner_.lock();
  }

  void unlock() {
    inner_.unlock();
    gate_.Post();
  }

  bool try_lock() {
    if (!gate_.TryWait()) {
      return false;
    }
    if constexpr (requires(Lock& l) { { l.try_lock() } -> std::convertible_to<bool>; }) {
      if (inner_.try_lock()) {
        return true;
      }
      gate_.Post();
      return false;
    } else {
      inner_.lock();
      return true;
    }
  }

  void set_recorder(AdmissionLog* recorder) {
    if constexpr (requires(Lock& l, AdmissionLog* r) { l.set_recorder(r); }) {
      inner_.set_recorder(recorder);
    }
  }

  // Times an arrival found the gate full and was passivated.
  std::uint64_t throttled() const { return throttled_.load(std::memory_order_relaxed); }

  Lock& inner() { return inner_; }

 private:
  CrSemaphore gate_;
  Lock inner_;
  std::atomic<std::uint64_t> throttled_{0};
};

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_THROTTLE_H_
