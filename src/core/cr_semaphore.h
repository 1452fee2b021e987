// Counting semaphore with a controllable wait-queue discipline (paper
// §6.11): the buffer-pool experiment's semaphore variant, and the general
// construct subsuming folly's LifoSem.
//
// Wait() consumes a permit or enqueues (append-at-tail with probability P,
// else prepend-at-head); Post() hands a permit *directly* to the head
// waiter if one exists (no thundering herd), else increments the count.
//
//   P = 1 — FIFO semaphore; P = 0 — LifoSem; P = 1/1000 — mostly-LIFO CR
//   semaphore: LIFO's throughput with long-term fairness, making it safe
//   for general use rather than folly's "all waiters equivalent" niche.
#ifndef MALTHUS_SRC_CORE_CR_SEMAPHORE_H_
#define MALTHUS_SRC_CORE_CR_SEMAPHORE_H_

#include <atomic>
#include <cstdint>

#include "src/platform/align.h"
#include "src/platform/calibrate.h"
#include "src/platform/cpu.h"
#include "src/platform/thread_registry.h"
#include "src/rng/xorshift.h"

namespace malthus {

struct CrSemaphoreOptions {
  double append_probability = 1.0;  // 1.0 = FIFO, 0.0 = LIFO
  // Spin iterations before a waiter parks; the default is 100 µs of
  // spinning (SeedSpinBudget()).
  std::uint32_t spin_budget = SeedSpinBudget();
};

class CrSemaphore {
 public:
  explicit CrSemaphore(std::int64_t initial = 0) : count_(initial) {}
  CrSemaphore(std::int64_t initial, const CrSemaphoreOptions& opts)
      : count_(initial), opts_(opts) {}
  CrSemaphore(const CrSemaphore&) = delete;
  CrSemaphore& operator=(const CrSemaphore&) = delete;

  void Wait();
  bool TryWait();
  void Post();

  // Anticipatory handover (wake-ahead, §5.2): call shortly before a Post()
  // to start the head waiter's kernel wakeup early, so the eventual direct
  // permit handoff finds it runnable (or back to spinning) and needs no
  // futex syscall. If another poster grants it first, or there is no
  // waiter, the hint is a benign stale permit.
  void PreparePost();

  std::int64_t Count() const;
  std::size_t WaiterCount() const { return waiters_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint32_t kQueued = 0;
  static constexpr std::uint32_t kGrantedPermit = 1;

  struct Waiter {
    std::atomic<std::uint32_t> state{kQueued};
    Waiter* next = nullptr;
    // Generation-validated wake channel: the Waiter frame itself is
    // stack-pinned until the grant resolves, but the poster's Unpark fires
    // *after* the grant store — by which time the waiter may have returned
    // and its thread exited. The ParkerRef makes that late wake a no-op
    // instead of a dangling Parker poke.
    ParkerRef wake;
  };

  void Guard() const {
    while (guard_.exchange(1, std::memory_order_acquire) != 0) {
      CpuRelax();
    }
  }
  void Unguard() const { guard_.store(0, std::memory_order_release); }

  alignas(kCacheLineSize) mutable std::atomic<std::uint32_t> guard_{0};
  std::int64_t count_;
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
  std::atomic<std::size_t> waiters_{0};
  CrSemaphoreOptions opts_;
};

// folly-equivalent strict-LIFO semaphore.
class LifoSem : public CrSemaphore {
 public:
  explicit LifoSem(std::int64_t initial = 0)
      : CrSemaphore(initial, CrSemaphoreOptions{.append_probability = 0.0}) {}
};

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_CR_SEMAPHORE_H_
