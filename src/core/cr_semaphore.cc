#include "src/core/cr_semaphore.h"

#include "src/chaos/failpoint.h"
#include "src/waiting/policy.h"

namespace malthus {

void CrSemaphore::Wait() {
  ThreadCtx& self = Self();
  Waiter w;
  w.wake = SelfWakeRef(self);

  Guard();
  if (count_ > 0) {
    --count_;
    Unguard();
    return;
  }
  const bool append = ThreadLocalRng().BernoulliP(opts_.append_probability);
  w.queued = true;
  if (head_ == nullptr) {
    head_ = tail_ = &w;
  } else if (append) {
    w.prev = tail_;
    tail_->next = &w;
    tail_ = &w;
  } else {
    w.next = head_;
    head_->prev = &w;
    head_ = &w;
  }
  waiters_.fetch_add(1, std::memory_order_relaxed);
  Unguard();

  // Spin-then-park on our own grant word: a poster's PreparePost() hint or
  // a direct handoff within the spin budget is then observed in userspace.
  SpinThenParkPolicy::Await(w.state, kQueued, self.parker, opts_.spin_budget);
  // The permit was handed to us directly by a poster; nothing to consume.
}

bool CrSemaphore::TryWaitUntil(std::chrono::steady_clock::time_point deadline) {
  ThreadCtx& self = Self();
  Waiter w;
  w.wake = SelfWakeRef(self);

  Guard();
  if (count_ > 0) {
    --count_;
    Unguard();
    return true;
  }
  if (std::chrono::steady_clock::now() >= deadline) {
    Unguard();  // Deadline already passed: degenerate to TryWait().
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool append = ThreadLocalRng().BernoulliP(opts_.append_probability);
  w.queued = true;
  if (head_ == nullptr) {
    head_ = tail_ = &w;
  } else if (append) {
    w.prev = tail_;
    tail_->next = &w;
    tail_ = &w;
  } else {
    w.next = head_;
    head_->prev = &w;
    head_ = &w;
  }
  waiters_.fetch_add(1, std::memory_order_relaxed);
  Unguard();

  if (SpinThenParkPolicy::AwaitUntil(w.state, kQueued, self.parker, deadline,
                                     opts_.spin_budget)) {
    return true;  // Granted a permit directly.
  }

  // Deadline passed. Re-take the guard to arbitrate against posters.
  // Chaos: widen the timeout-vs-pop window.
  MALTHUS_FAILPOINT("sem.cancel");
  Guard();
  if (w.queued) {
    Unlink(&w);
    Unguard();
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Unguard();
  // A poster already popped us: the permit is committed and its grant store
  // is imminent (Post writes w.state outside the guard). Wait for it — the
  // permit would otherwise be lost — then report success despite the
  // deadline. The poster's Unpark may leave a stale permit on our parker,
  // which at worst costs one later spin-and-repark round.
  while (w.state.load(std::memory_order_acquire) == kQueued) {
    CpuRelax();
  }
  return true;
}

bool CrSemaphore::TryWait() {
  Guard();
  if (count_ > 0) {
    --count_;
    Unguard();
    return true;
  }
  Unguard();
  return false;
}

void CrSemaphore::Post() {
  Guard();
  Waiter* w = head_;
  if (w != nullptr) {
    head_ = w->next;
    if (head_ != nullptr) {
      head_->prev = nullptr;
    } else {
      tail_ = nullptr;
    }
    w->queued = false;  // Commits the permit: a timed waiter may no longer cancel.
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    ++count_;
  }
  Unguard();
  if (w != nullptr) {
    // Chaos: delay between the pop (permit committed) and the grant store —
    // the window a timed-out waiter must bridge by spinning.
    MALTHUS_FAILPOINT("sem.post");
    // w's frame may die once state is stored, and the waiter's thread may
    // even exit before the Unpark below fires; the copied ParkerRef keeps
    // the wake generation-validated.
    const ParkerRef wake = w->wake;
    // Release pairs with the waiter's acquire load of w->state: the permit
    // handoff (and any state the poster published before Post) becomes
    // visible before the waiter returns from Wait().
    w->state.store(kGrantedPermit, std::memory_order_release);
    wake.Unpark();
  }
}

void CrSemaphore::PreparePost() {
  // The hint is posted while holding the guard: a queued waiter can only be
  // granted (and its thread only exit) through Post(), which also needs the
  // guard, so the head waiter is pinned under us. The cost is at most one
  // futex syscall inside the guard — acceptable for a hint that exists to
  // move that same syscall off the Post() path.
  Guard();
  if (head_ != nullptr) {
    head_->wake.WakeAhead();
  }
  Unguard();
}

std::int64_t CrSemaphore::Count() const {
  Guard();
  const std::int64_t c = count_;
  Unguard();
  return c;
}

}  // namespace malthus
