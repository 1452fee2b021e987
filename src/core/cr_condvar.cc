#include "src/core/cr_condvar.h"

#include "src/chaos/failpoint.h"

namespace malthus {

void CrCondVar::Enqueue(Waiter* w) {
  const bool append = ThreadLocalRng().BernoulliP(opts_.append_probability);
  Guard();
  if (head_ == nullptr) {
    head_ = tail_ = w;
  } else if (append) {
    tail_->next = w;
    tail_ = w;
  } else {
    w->next = head_;
    head_ = w;
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  Unguard();
}

void CrCondVar::Signal() {
  Guard();
  Waiter* w = head_;
  if (w != nullptr) {
    head_ = w->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    count_.fetch_sub(1, std::memory_order_relaxed);
  }
  Unguard();
  if (w != nullptr) {
    // Chaos: delay between the pop (signal committed) and the state store,
    // while the popped waiter may still be parking.
    MALTHUS_FAILPOINT("condvar.signal");
    const ParkerRef wake = w->wake;  // Read before the release of w's frame.
    w->state.store(kSignaled, std::memory_order_release);
    wake.Unpark();
  }
}

void CrCondVar::Broadcast() {
  Guard();
  Waiter* w = head_;
  head_ = tail_ = nullptr;
  count_.store(0, std::memory_order_relaxed);
  Unguard();
  while (w != nullptr) {
    // Read next and the wake channel before the state store: the store
    // releases the waiter's frame.
    Waiter* next = w->next;
    const ParkerRef wake = w->wake;
    w->state.store(kSignaled, std::memory_order_release);
    wake.Unpark();
    w = next;
  }
}

}  // namespace malthus
