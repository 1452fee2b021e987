// Classic MCS queue lock (Mellor-Crummey & Scott, 1991), templated on the
// waiting policy: McsLock<SpinPolicy> is the paper's MCS-S, and
// McsLock<SpinThenParkPolicy> is MCS-STP.
//
// Properties (Figure 2 of the paper): strict FIFO admission, succession by
// direct handoff, local spinning (each waiter spins only on its own node),
// no tuning parameters. FIFO + direct handoff interacts poorly with parking:
// the next thread granted is the one that has waited longest and is thus the
// most likely to have exhausted its spin budget and parked — which is
// exactly the pathology MCSCR's mostly-LIFO admission avoids, and which
// PrepareHandover() (wake-ahead) mitigates by starting the heir's kernel
// wakeup before the release.
#ifndef MALTHUS_SRC_LOCKS_MCS_H_
#define MALTHUS_SRC_LOCKS_MCS_H_

#include <atomic>

#include "src/chaos/failpoint.h"
#include "src/locks/lock_base.h"
#include "src/metrics/admission_log.h"
#include "src/platform/calibrate.h"
#include "src/waiting/policy.h"

namespace malthus {

template <typename WaitPolicy>
class McsLock {
 public:
  McsLock() = default;
  McsLock(const McsLock&) = delete;
  McsLock& operator=(const McsLock&) = delete;

  void lock() {
    ThreadCtx& self = Self();
    QNode* me = AcquireQNode();
    me->PrepareForWait(self);
    // acq_rel: acquire so the predecessor's node fields (published by its
    // own enqueue) are visible before we store through prev; release so the
    // successor that swaps us out sees our PrepareForWait() stores.
    QNode* prev = tail_.exchange(me, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(me, std::memory_order_release);
      WaitPolicy::Await(me->status, kWaiting, self.parker, spin_budget_);
    }
    owner_ = me;
    if (AdmissionLog* recorder = recorder_.load(std::memory_order_relaxed)) {
      recorder->Record(self.id);
    }
  }

  bool try_lock() {
    ThreadCtx& self = Self();
    QNode* me = AcquireQNode();
    me->PrepareForWait(self);
    QNode* expected = nullptr;
    if (tail_.compare_exchange_strong(expected, me, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      owner_ = me;
      if (AdmissionLog* recorder = recorder_.load(std::memory_order_relaxed)) {
        recorder->Record(self.id);
      }
      return true;
    }
    ReleaseQNode(me);
    return false;
  }

  // Anticipatory handover (wake-ahead, §5.2): called by the owner near the
  // end of its critical section, before unlock(). If a successor is already
  // queued, post its wake permit now: a parked heir overlaps its kernel
  // wakeup with the tail of the critical section, and a spinning heir's
  // eventual grant collapses into a zero-syscall permit post. MCS is strict
  // FIFO, so the successor observed here is exactly the node unlock() will
  // grant; even were it not, a stale permit only degrades the heir to
  // spinning (the parking litmus test).
  void PrepareHandover() {
    if constexpr (WaitPolicy::kParks) {
      QNode* next = owner_->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        // The chain pins `next` (its thread is blocked in Await until we
        // grant), so the generation-validated poke lands on the right
        // tenancy.
        next->wake_ref().WakeAhead();
      }
    }
  }

  void unlock() {
    QNode* me = owner_;
    QNode* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      QNode* expected = me;
      // Release on success: the next arriving thread's acq_rel tail swap
      // must observe our critical section.
      if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        ReleaseQNode(me);
        return;
      }
      next = SpinForSuccessor(me);
    }
    // Chaos: delay the grant while the successor waits.
    MALTHUS_FAILPOINT("mcs.grant");
    // The waiter may recycle its node as soon as it observes the grant,
    // so the wake channel is read before the store. The ParkerRef stays
    // safe even past thread exit: ThreadCtx memory is type-stable (slab,
    // see alloc/slab.h) so the post-grant Wake can never fault, and its
    // generation check turns a wake aimed at an exited waiter's recycled
    // slot into a counted no-op.
    const ParkerRef wake = next->wake_ref();
    // Release pairs with the acquire load in the waiter's Await: it
    // transfers the critical section.
    next->status.store(kGranted, std::memory_order_release);
    // Chaos: widen the grant-committed-vs-wake window. This is the
    // stale-wake window the generation check closes: the granted waiter
    // may run, unlock, exit, and have its ThreadCtx recycled before the
    // Wake below fires.
    MALTHUS_FAILPOINT("mcs.wake");
    WaitPolicy::Wake(wake);
    ReleaseQNode(me);
  }

  // Safe to call while other threads are locking (tests attach recorders
  // mid-run to skip warmup); hence the atomic pointer.
  void set_recorder(AdmissionLog* recorder) {
    recorder_.store(recorder, std::memory_order_relaxed);
  }
  // Spin iterations before a waiter parks (SeedSpinBudget() by default).
  // Set it before other threads use the lock.
  void set_spin_budget(std::uint32_t budget) { spin_budget_ = budget; }

 private:
  std::atomic<QNode*> tail_{nullptr};
  // The owner's queue node. Written by the owner once it holds the lock;
  // read only by the owner (unlock, PrepareHandover).
  QNode* owner_ = nullptr;
  std::atomic<AdmissionLog*> recorder_{nullptr};
  std::uint32_t spin_budget_ = SeedSpinBudget();
};

// MCS-S uses the yield-aware pure-spin policy: identical to SpinPolicy
// while spinners fit the effective CPU count, bounded sched_yield pacing
// once they do not (see waiting/policy.h).
using McsSpinLock = McsLock<YieldingSpinPolicy>;
using McsStpLock = McsLock<SpinThenParkPolicy>;

}  // namespace malthus

#endif  // MALTHUS_SRC_LOCKS_MCS_H_
