// Test-and-test-and-set lock with randomized truncated exponential backoff.
//
// Global spinning, competitive succession ("barging"), unbounded unfairness
// (§5.3–5.4, Figure 2). Arriving threads and spinning waiters race for the
// lock word; the backoff damps the thundering herd on release. No waiter
// list is maintained, so the lock is preemption tolerant: ownership is never
// handed to a descheduled thread.
#ifndef MALTHUS_SRC_LOCKS_TAS_H_
#define MALTHUS_SRC_LOCKS_TAS_H_

#include <atomic>
#include <cstdint>

#include "src/metrics/admission_log.h"
#include "src/platform/align.h"
#include "src/platform/thread_registry.h"
#include "src/rng/xorshift.h"
#include "src/waiting/backoff.h"

namespace malthus {

class TtasLock {
 public:
  TtasLock() = default;
  TtasLock(const TtasLock&) = delete;
  TtasLock& operator=(const TtasLock&) = delete;

  void lock() {
    ExponentialBackoff backoff(kBackoffFloor, kBackoffCeiling);
    XorShift64& rng = ThreadLocalRng();
    while (true) {
      // Test: spin on a read-only load to avoid write-invalidation storms.
      if (word_.load(std::memory_order_relaxed) == 0) {
        if (anderson_recheck_) {
          // Anderson's thundering-herd damper (paper §A.1): after observing
          // the lock free, delay a short random period and re-check before
          // attempting the atomic, so racing observers spread out.
          const std::uint32_t delay = 1 + static_cast<std::uint32_t>(rng.NextBelow(64));
          for (std::uint32_t i = 0; i < delay; ++i) {
            CpuRelax();
          }
          if (word_.load(std::memory_order_relaxed) != 0) {
            backoff.Pause(rng);
            continue;
          }
        }
        if (word_.exchange(1, std::memory_order_acquire) == 0) {
          break;
        }
      }
      backoff.Pause(rng);
    }
    if (recorder_ != nullptr) {
      recorder_->Record(Self().id);
    }
  }

  bool try_lock() {
    return word_.load(std::memory_order_relaxed) == 0 &&
           word_.exchange(1, std::memory_order_acquire) == 0;
  }

  void unlock() { word_.store(0, std::memory_order_release); }

  void set_recorder(AdmissionLog* recorder) { recorder_ = recorder; }
  void set_anderson_recheck(bool enabled) { anderson_recheck_ = enabled; }

 private:
  static constexpr std::uint32_t kBackoffFloor = 16;
  static constexpr std::uint32_t kBackoffCeiling = 4096;

  alignas(kCacheLineSize) std::atomic<std::uint32_t> word_{0};
  AdmissionLog* recorder_ = nullptr;
  bool anderson_recheck_ = false;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_LOCKS_TAS_H_
