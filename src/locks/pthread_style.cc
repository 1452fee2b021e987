#include "src/locks/pthread_style.h"

#include "src/chaos/failpoint.h"
#include "src/platform/cpu.h"
#include "src/rng/xorshift.h"
#include "src/waiting/backoff.h"
#include "src/waiting/policy.h"

namespace malthus {
namespace {

// Cap on the PrepareHandover() stack scan. The hint targets the first
// still-waiting node; walking past a few abandoned nodes covers the common
// case, and bailing early merely skips the hint while bounding how long the
// owner holds the pop lock inside its critical section.
constexpr int kHintScanLimit = 16;

}  // namespace

PthreadStyleMutex::~PthreadStyleMutex() {
  // Precondition: no thread holds or waits on the mutex. Any nodes left on
  // the stack were abandoned by self-acquiring waiters; we own them now.
  WaitNode* node = stack_.load(std::memory_order_acquire);
  while (node != nullptr) {
    WaitNode* next = node->next;
    delete node;
    node = next;
  }
}

void PthreadStyleMutex::Push(WaitNode* node) {
  WaitNode* top = stack_.load(std::memory_order_relaxed);
  do {
    node->next = top;
  } while (!stack_.compare_exchange_weak(top, node, std::memory_order_release,
                                         std::memory_order_relaxed));
}

PthreadStyleMutex::WaitNode* PthreadStyleMutex::PopSerialized() {
  // Caller holds pop_lock_, so we are the only popper: top->next cannot be
  // invalidated between the load and the CAS.
  WaitNode* top = stack_.load(std::memory_order_acquire);
  while (top != nullptr) {
    if (stack_.compare_exchange_weak(top, top->next, std::memory_order_acquire,
                                     std::memory_order_acquire)) {
      return top;
    }
  }
  return nullptr;
}

void PthreadStyleMutex::WakeOneWaiter() {
  // Serialize poppers; blocking (not try) so responsibility for succession
  // is never silently dropped between two racing unlockers.
  while (pop_lock_.exchange(1, std::memory_order_acquire) != 0) {
    CpuRelax();
  }
  while (true) {
    if (stack_.load(std::memory_order_acquire) == nullptr) {
      break;
    }
    // Defer-and-avoid: if some other thread has grabbed the lock during the
    // window, delegate succession to its eventual unlock.
    for (int i = 0; i < 64; ++i) {
      CpuRelax();
    }
    if (word_.load(std::memory_order_acquire) != 0) {
      avoided_unparks_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    WaitNode* node = PopSerialized();
    if (node == nullptr) {
      break;
    }
    // Chaos: widen the pop-vs-abandon window before the heir-selection CAS.
    MALTHUS_FAILPOINT("pthread.pop");
    const ParkerRef wake = node->wake;  // Copy before the CAS: see header note.
    std::uint32_t expected = kOnStack;
    if (node->state.compare_exchange_strong(expected, kPopped, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      wake.Unpark();
      break;
    }
    // Abandoned: the enqueuer self-acquired and transferred ownership to us.
    delete node;
  }
  pop_lock_.store(0, std::memory_order_release);
}

void PthreadStyleMutex::PrepareHandover() {
  if (stack_.load(std::memory_order_acquire) == nullptr) {
    return;  // No waiters: nothing to warm.
  }
  // Serialize against poppers with try-acquire semantics: a popper deletes
  // abandoned nodes, so the scan must exclude it, but the owner must never
  // block inside its critical section for a mere hint.
  if (pop_lock_.exchange(1, std::memory_order_acquire) != 0) {
    return;
  }
  WaitNode* node = stack_.load(std::memory_order_acquire);
  for (int i = 0; node != nullptr && i < kHintScanLimit; ++i) {
    // Nodes reachable from the stack are either pinned by a waiter
    // (kOnStack) or owned by poppers (kAbandoned) — and we hold the pop
    // lock — so the walk cannot touch freed memory. The wake ref is
    // generation-validated, so a raced state transition after this check
    // at worst posts a stale permit — and if the waiter's thread already
    // exited, not even that: the hint is suppressed.
    if (node->state.load(std::memory_order_acquire) == kOnStack) {
      node->wake.WakeAhead();
      break;
    }
    node = node->next;
  }
  pop_lock_.store(0, std::memory_order_release);
}

void PthreadStyleMutex::lock() {
  ThreadCtx& self = Self();
  // Phase 1: bounded polite spinning, capped in the number of concurrent
  // spinners (excess arrivals go straight to parking — self-restriction).
  if (spinners_.load(std::memory_order_relaxed) < max_spinners_) {
    spinners_.fetch_add(1, std::memory_order_relaxed);
    ExponentialBackoff backoff(8, 512);
    XorShift64& rng = ThreadLocalRng();
    for (std::uint32_t i = 0; i < spin_budget_; ++i) {
      if (TryAcquire()) {
        spinners_.fetch_sub(1, std::memory_order_relaxed);
        if (recorder_ != nullptr) {
          recorder_->Record(self.id);
        }
        return;
      }
      backoff.Pause(rng);
    }
    spinners_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Phase 2: enqueue and park.
  WaitNode* node = new WaitNode();
  node->wake = SelfWakeRef(self);
  while (true) {
    node->state.store(kOnStack, std::memory_order_relaxed);
    node->next = nullptr;
    Push(node);
    // Retry once after publishing the node: an unlock that drained between
    // our spin phase and the push would otherwise be a missed wake.
    if (TryAcquire()) {
      std::uint32_t expected = kOnStack;
      if (node->state.compare_exchange_strong(expected, kAbandoned, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        // A future popper frees the node.
        node = nullptr;
      } else {
        // A popper beat us to the node (state == kPopped) and its Unpark is
        // imminent; absorb the permit so it cannot alias a later wait.
        self.parker.Park();
        delete node;
      }
      break;
    }
    while (node->state.load(std::memory_order_acquire) != kPopped) {
      self.parker.Park();
      // Park() returning without kPopped means the permit was a wake-ahead
      // hint (or a stale permit): the pop is imminent. Re-spin (shared
      // pacing — see PostWakeRespin) before re-parking, so the
      // pop-and-unpark lands on a runnable thread and costs no futex wake.
      PostWakeRespin(kMinPostWakeSpin,
                     [&] { return node->state.load(std::memory_order_acquire) == kPopped; });
    }
    if (TryAcquire()) {
      delete node;
      break;
    }
    // Beaten by a barging arrival; re-enqueue (we own the node again).
  }
  if (recorder_ != nullptr) {
    recorder_->Record(self.id);
  }
}

bool PthreadStyleMutex::try_lock() { return TryAcquire(); }

void PthreadStyleMutex::unlock() {
  word_.store(0, std::memory_order_release);
  if (stack_.load(std::memory_order_acquire) != nullptr) {
    WakeOneWaiter();
  }
}

}  // namespace malthus
