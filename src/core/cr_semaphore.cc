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
  if (head_ == nullptr) {
    head_ = tail_ = &w;
  } else if (append) {
    tail_->next = &w;
    tail_ = &w;
  } else {
    w.next = head_;
    head_ = &w;
  }
  waiters_.fetch_add(1, std::memory_order_relaxed);
  Unguard();

  // Spin-then-park on our own grant word: a poster's PreparePost() hint or
  // a direct handoff within the spin budget is then observed in userspace.
  SpinThenParkPolicy::Await(w.state, kQueued, self.parker, opts_.spin_budget);
  // The permit was handed to us directly by a poster; nothing to consume.
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
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    ++count_;
  }
  Unguard();
  if (w != nullptr) {
    // Chaos: delay between the pop (permit committed) and the grant store,
    // while the popped waiter still spins or parks.
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
