// Condition variable with a controllable wait-queue discipline (paper
// §6.10–6.11): each Wait() appends to the *tail* of the waiter list with
// probability P and prepends to the *head* otherwise; Signal() always wakes
// the head.
//
//   P = 1      — strict FIFO (the paper's baseline condvar),
//   P = 0      — strict LIFO (folly LifoSem-style, maximally unfair),
//   P = 1/1000 — mostly-LIFO: concurrency restriction through the condition
//                variable, retaining most of LIFO's throughput while
//                providing long-term fairness.
//
// Mostly-LIFO wakeup keeps re-activating the most recently waiting threads,
// so a minimal set of workers circulates (warm caches, fewer park/unpark
// transitions) while the rest stay passive — exactly the CR effect, applied
// where the waiting actually happens in condvar-based constructs (perl
// locks, buffer pools, thread pools).
//
// Mesa semantics: waiters must re-check their predicate; Signal() wakes at
// least one waiter if any are present; signals do not persist.
#ifndef MALTHUS_SRC_CORE_CR_CONDVAR_H_
#define MALTHUS_SRC_CORE_CR_CONDVAR_H_

#include <atomic>
#include <cstdint>

#include "src/platform/align.h"
#include "src/platform/cpu.h"
#include "src/platform/thread_registry.h"
#include "src/rng/xorshift.h"

namespace malthus {

struct CrCondVarOptions {
  // Probability that a Wait() appends at the tail (FIFO-wise). 1.0 = FIFO.
  double append_probability = 1.0;
};

class CrCondVar {
 public:
  CrCondVar() = default;
  explicit CrCondVar(const CrCondVarOptions& opts) : opts_(opts) {}
  CrCondVar(const CrCondVar&) = delete;
  CrCondVar& operator=(const CrCondVar&) = delete;

  // Atomically releases `lock`, waits for a signal, and reacquires `lock`.
  // Spurious wakeups are possible (Mesa); use the predicate overload or an
  // external while-loop.
  template <typename Lock>
  void Wait(Lock& lock) {
    ThreadCtx& self = Self();
    Waiter w;
    w.wake = SelfWakeRef(self);
    Enqueue(&w);
    lock.unlock();
    while (w.state.load(std::memory_order_acquire) == kQueued) {
      self.parker.Park();
    }
    lock.lock();
  }

  template <typename Lock, typename Pred>
  void Wait(Lock& lock, Pred pred) {
    while (!pred()) {
      Wait(lock);
    }
  }

  // Wakes the head waiter, if any.
  void Signal();

  // Wakes all current waiters.
  void Broadcast();

  // Number of threads currently enqueued (racy snapshot; for stats/tests).
  std::size_t WaiterCount() const { return count_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint32_t kQueued = 0;
  static constexpr std::uint32_t kSignaled = 1;

  struct Waiter {
    std::atomic<std::uint32_t> state{kQueued};
    Waiter* next = nullptr;
    // Generation-validated wake channel (see CrSemaphore::Waiter): the
    // signaler's Unpark fires after the kSignaled store, by which time the
    // waiter may have returned and its thread exited.
    ParkerRef wake;
  };

  // Tiny internal spinlock guarding the waiter list. Waiters hold the user
  // lock when enqueueing but signalers need not, hence the separate guard.
  void Guard() {
    while (guard_.exchange(1, std::memory_order_acquire) != 0) {
      CpuRelax();
    }
  }
  void Unguard() { guard_.store(0, std::memory_order_release); }

  void Enqueue(Waiter* w);

  alignas(kCacheLineSize) std::atomic<std::uint32_t> guard_{0};
  Waiter* head_ = nullptr;  // Signal pops here.
  Waiter* tail_ = nullptr;
  std::atomic<std::size_t> count_{0};
  CrCondVarOptions opts_;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_CR_CONDVAR_H_
