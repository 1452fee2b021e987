// LIFO-CR (paper §A.2): a pure LIFO lock — an explicit stack of waiting
// threads — augmented with periodic eldest-first grants for long-term
// fairness.
//
// The lock word encodes three states:
//   0        — free
//   1        — held, no waiters
//   Node*    — held, with a stack of waiters (top = most recently arrived)
//
// Contended arrivals push a node and wait on their own flag. At unlock the
// owner pops the head — the most recently arrived thread, which is the most
// likely to still be spinning (cheap to wake) and the warmest in cache. The
// ACS is the owner + the circulating threads + the top of the stack; deeper
// nodes form the passive set. A Bernoulli trial occasionally unlinks the
// stack *bottom* (the eldest waiter) and grants it instead, bounding
// starvation.
//
// Only the lock holder pops, so the stack is multi-producer/single-consumer
// and pops are immune to ABA. The push CAS can only succeed if the observed
// top is genuinely on the stack, so pushes are safe too.
#ifndef MALTHUS_SRC_CORE_LIFOCR_H_
#define MALTHUS_SRC_CORE_LIFOCR_H_

#include <atomic>
#include <cstdint>

#include "src/chaos/failpoint.h"
#include "src/locks/lock_base.h"
#include "src/metrics/admission_log.h"
#include "src/platform/calibrate.h"
#include "src/rng/xorshift.h"
#include "src/waiting/policy.h"

namespace malthus {

struct LifoCrOptions {
  std::uint64_t fairness_one_in = 1000;
  std::uint32_t spin_budget = SeedSpinBudget();  // as McscrOptions::spin_budget
};

template <typename WaitPolicy>
class LifoCrLock {
 public:
  LifoCrLock() = default;
  explicit LifoCrLock(const LifoCrOptions& opts) : opts_(opts) {}
  LifoCrLock(const LifoCrLock&) = delete;
  LifoCrLock& operator=(const LifoCrLock&) = delete;

  void lock() {
    ThreadCtx& self = Self();
    std::uintptr_t cur = word_.load(std::memory_order_relaxed);
    QNode* me = nullptr;
    while (true) {
      if (cur == kFree) {
        if (word_.compare_exchange_weak(cur, kHeldNoWaiters, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
          break;  // Fast path.
        }
        continue;  // cur reloaded by the failed CAS.
      }
      // Held: push ourselves onto the waiter stack.
      if (me == nullptr) {
        me = AcquireQNode();
        me->PrepareForWait(self);
      }
      me->next.store(cur == kHeldNoWaiters ? nullptr : reinterpret_cast<QNode*>(cur),
                     std::memory_order_relaxed);
      if (word_.compare_exchange_weak(cur, reinterpret_cast<std::uintptr_t>(me),
                                      std::memory_order_release, std::memory_order_relaxed)) {
        WaitPolicy::Await(me->status, kWaiting, self.parker, opts_.spin_budget);
        break;  // Granted; our node has been unlinked by the granter.
      }
    }
    if (me != nullptr) {
      ReleaseQNode(me);
    }
    if (AdmissionLog* recorder = recorder_.load(std::memory_order_relaxed)) {
      recorder->Record(self.id);
    }
  }

  bool try_lock() {
    std::uintptr_t expected = kFree;
    return word_.compare_exchange_strong(expected, kHeldNoWaiters, std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  // Anticipatory handover (wake-ahead, §5.2): the next grantee is the stack
  // top — the most recently arrived waiter, which LIFO pops. Only the owner
  // pops, so the observed top stays on the stack until our unlock(); a
  // fresher arrival pushing above it before then leaves the observed node a
  // benign stale permit (it becomes the granted top's successor prediction
  // miss). A rare fairness grant to the stack bottom mispredicts likewise.
  void PrepareHandover() {
    if constexpr (WaitPolicy::kParks) {
      const std::uintptr_t cur = word_.load(std::memory_order_acquire);
      if (cur == kFree || cur == kHeldNoWaiters) {
        return;
      }
      reinterpret_cast<QNode*>(cur)->wake_ref().WakeAhead();
    }
  }

  void unlock() {
    // Memory-order map of the grant path:
    //   * The initial acquire load pairs with arrivals' release push CAS, so
    //     top->next (stored before the push) is safe to read below.
    //   * kHeldNoWaiters -> kFree needs release: the next fast-path acquirer
    //     takes the critical section through the lock word itself.
    //   * The pop CAS does NOT need release: the granted waiter receives the
    //     critical section via Grant()'s release store to its status flag,
    //     and later readers of the lock word still synchronize with each
    //     node's original pusher because every intervening push/pop is a RMW
    //     and RMWs extend the pusher's release sequence regardless of their
    //     own ordering. Acquire (both orderings) suffices: the reloaded
    //     `cur` is dereferenced on the next iteration.
    std::uintptr_t cur = word_.load(std::memory_order_acquire);
    while (true) {
      if (cur == kHeldNoWaiters) {
        if (word_.compare_exchange_weak(cur, kFree, std::memory_order_release,
                                        std::memory_order_acquire)) {
          return;
        }
        continue;  // A waiter pushed concurrently.
      }
      QNode* top = reinterpret_cast<QNode*>(cur);

      if (top->next.load(std::memory_order_relaxed) != nullptr && opts_.fairness_one_in != 0 &&
          ThreadLocalRng().BernoulliOneIn(opts_.fairness_one_in)) {
        // Anti-starvation: unlink the stack bottom (the eldest waiter) and
        // grant it. Links below the observed top are frozen (pushes only
        // alter the top; we are the only popper), so the walk is safe.
        QNode* prev = top;
        QNode* bottom = top->next.load(std::memory_order_relaxed);
        for (QNode* nxt = bottom->next.load(std::memory_order_relaxed); nxt != nullptr;
             nxt = bottom->next.load(std::memory_order_relaxed)) {
          prev = bottom;
          bottom = nxt;
        }
        MALTHUS_FAILPOINT("lifocr.fairness");
        prev->next.store(nullptr, std::memory_order_relaxed);
        Grant(bottom);
        fairness_grants_.fetch_add(1, std::memory_order_relaxed);
        return;
      }

      // Normal LIFO pop of the most recently arrived waiter. Acquire-only:
      // see the memory-order map above (release would be accidental
      // over-strength on the handover fast path).
      QNode* below = top->next.load(std::memory_order_relaxed);
      MALTHUS_FAILPOINT("lifocr.pop");
      if (word_.compare_exchange_weak(
              cur, below == nullptr ? kHeldNoWaiters : reinterpret_cast<std::uintptr_t>(below),
              std::memory_order_acquire, std::memory_order_acquire)) {
        Grant(top);
        return;
      }
      // New arrivals changed the top; retry with the fresh value.
    }
  }

  // Safe to call while other threads are locking (tests attach recorders
  // mid-run to skip warmup); hence the atomic pointer.
  void set_recorder(AdmissionLog* recorder) {
    recorder_.store(recorder, std::memory_order_relaxed);
  }

  std::uint64_t fairness_grants() const {
    return fairness_grants_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uintptr_t kFree = 0;
  static constexpr std::uintptr_t kHeldNoWaiters = 1;

  // Passes the lock to an already unlinked node. The waiter may recycle
  // `node` the moment it observes the grant, so the wake goes through the
  // pre-read, generation-validated ParkerRef, never through the node.
  // Release pairs with the waiter's acquire load in Await.
  void Grant(QNode* node) {
    const ParkerRef wake = node->wake_ref();
    node->status.store(kGranted, std::memory_order_release);
    WaitPolicy::Wake(wake);
  }

  alignas(kCacheLineSize) std::atomic<std::uintptr_t> word_{kFree};
  std::atomic<std::uint64_t> fairness_grants_{0};
  std::atomic<AdmissionLog*> recorder_{nullptr};
  LifoCrOptions opts_;
};

using LifoCrSpinLock = LifoCrLock<YieldingSpinPolicy>;  // LIFO-S (yield-aware spin)
using LifoCrStpLock = LifoCrLock<SpinThenParkPolicy>;

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_LIFOCR_H_
