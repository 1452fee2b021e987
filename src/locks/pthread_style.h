// A Solaris-pthread-style mutex (paper §5.3 and footnote 40): a polite
// test-and-test-and-set lock with a bounded spin phase, a bound on the
// number of concurrent spinners, and a mostly-LIFO stack of parked waiters.
//
// Succession is competitive: unlock stores the lock free, then — only if the
// lock is still free (defer-and-avoid, which both trims the voluntary
// context-switch rate and keeps the ACS stable) — pops one waiter and
// unparks it as heir presumptive. The woken thread re-contends; barging
// arrivals may beat it, so admission is unfair with unbounded bypass.
// Owners can additionally call PrepareHandover() (wake-ahead, §5.2) from
// the critical-section tail: the predicted heir's kernel wakeup then
// overlaps the remaining hold, and the pop-and-unpark at release becomes a
// syscall-free permit post onto a re-spinning waiter.
//
// Correctness notes:
//   * Pops are serialized by a tiny internal spinlock. With a single
//     consumer, Treiber-stack pop is ABA-free (a node cannot be popped and
//     re-pushed behind the popper's back). Pushes stay lock-free.
//   * A waiter whose post-push retry takes the lock while its node is still
//     on the stack CASes the node kOnStack→kAbandoned, transferring
//     ownership (and the duty to free it) to whichever popper later removes
//     it; poppers skip abandoned nodes so a wake is never wasted on a
//     thread that is no longer waiting. Every other waiter leaves the stack
//     only by being popped.
//   * A popper copies node->wake *before* its kOnStack→kPopped CAS and
//     never touches the node afterwards, so the waiter may reuse or free the
//     node as soon as it observes kPopped. The copied ParkerRef is
//     generation-validated: if the waiter's thread has since exited and its
//     ThreadCtx slot was recycled, the late Unpark is a suppressed no-op
//     rather than a poke at a stranger's parker.
#ifndef MALTHUS_SRC_LOCKS_PTHREAD_STYLE_H_
#define MALTHUS_SRC_LOCKS_PTHREAD_STYLE_H_

#include <atomic>
#include <cstdint>

#include "src/metrics/admission_log.h"
#include "src/platform/align.h"
#include "src/platform/park.h"
#include "src/platform/thread_registry.h"

namespace malthus {

class PthreadStyleMutex {
 public:
  PthreadStyleMutex() = default;
  ~PthreadStyleMutex();
  PthreadStyleMutex(const PthreadStyleMutex&) = delete;
  PthreadStyleMutex& operator=(const PthreadStyleMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

  // Anticipatory handover (wake-ahead, §5.2): called by the owner near the
  // end of its critical section, before unlock(). Predicts the waiter the
  // coming unlock() will pop — the topmost stack node still in kOnStack —
  // and posts its wake permit, so a parked waiter overlaps its kernel
  // wakeup with the critical-section tail and re-spins on its node state;
  // the eventual pop-and-unpark then collapses into a syscall-free permit
  // post. The scan briefly takes the pop lock (poppers delete abandoned
  // nodes, so an unserialized walk could touch freed memory); if a lagging
  // popper from an earlier unlock still holds it, the hint is simply
  // skipped — it is only ever a hint. Succession here is competitive, so
  // mispredictions (a barging acquirer, a fresher push) leave a stale
  // permit, which only degrades that waiter to one re-spin round.
  void PrepareHandover();

  void set_recorder(AdmissionLog* recorder) { recorder_ = recorder; }
  void set_spin_budget(std::uint32_t budget) { spin_budget_ = budget; }
  void set_max_spinners(std::uint32_t n) { max_spinners_ = n; }

  // Instrumentation: wakes skipped because another thread took the lock
  // during the defer window (unpark avoidance).
  std::uint64_t avoided_unparks() const {
    return avoided_unparks_.load(std::memory_order_relaxed);
  }

 private:
  enum WaitState : std::uint32_t { kOnStack = 0, kPopped = 1, kAbandoned = 2 };

  struct alignas(kCacheLineSize) WaitNode {
    std::atomic<std::uint32_t> state{kOnStack};
    WaitNode* next = nullptr;
    // Generation-validated wake channel (see header note): copied by the
    // popper before the node changes hands.
    ParkerRef wake;
  };

  bool TryAcquire() {
    return word_.load(std::memory_order_relaxed) == 0 &&
           word_.exchange(1, std::memory_order_acquire) == 0;
  }

  void Push(WaitNode* node);
  WaitNode* PopSerialized();
  void WakeOneWaiter();

  alignas(kCacheLineSize) std::atomic<std::uint32_t> word_{0};
  alignas(kCacheLineSize) std::atomic<WaitNode*> stack_{nullptr};
  std::atomic<std::uint32_t> pop_lock_{0};
  std::atomic<std::uint32_t> spinners_{0};
  std::atomic<std::uint64_t> avoided_unparks_{0};
  AdmissionLog* recorder_ = nullptr;
  std::uint32_t spin_budget_ = 512;
  std::uint32_t max_spinners_ = 8;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_LOCKS_PTHREAD_STYLE_H_
