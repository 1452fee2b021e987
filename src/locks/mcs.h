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
#include <chrono>

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

  // Timed acquisition with mid-chain self-removal. Enqueues exactly like
  // lock(); on deadline expiry the waiter CASes its grant flag kWaiting ->
  // kCancelled and abandons the node as a tombstone (it cannot touch its
  // neighbors' links — its predecessor may be granting *right now*). The
  // eventual granter skips cancelled husks (see unlock) and reclaims them
  // with a release store the owning thread's arena observes before reuse.
  // A failed cancel CAS means a granter committed first: the caller owns
  // the lock and true is returned even though the deadline passed.
  bool TryLockUntil(std::chrono::steady_clock::time_point deadline) {
    ThreadCtx& self = Self();
    QNode* me = AcquireQNode();
    me->PrepareForWait(self);
    QNode* prev = tail_.exchange(me, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(me, std::memory_order_release);
      if (!WaitPolicy::AwaitUntil(me->status, kWaiting, self.parker, deadline, spin_budget_)) {
        // Chaos: widen the timeout-vs-grant window before the cancel CAS.
        MALTHUS_FAILPOINT("mcs.cancel");
        std::uint32_t expected = kWaiting;
        // Release: no successor of ours dereferences our stores, but the
        // tombstone publication should not sink below our enqueue stores.
        // Failure acquire: pairs with the granter's kGranted release — we
        // own the lock after all and must observe the critical section.
        if (me->status.compare_exchange_strong(expected, kCancelled, std::memory_order_release,
                                               std::memory_order_acquire)) {
          timeouts_.fetch_add(1, std::memory_order_relaxed);
          ZombieQNode(me);
          return false;
        }
      }
      // Granted — or claimed by a linking granter whose commit is imminent.
      if (me->status.load(std::memory_order_acquire) != kGranted) {
        AwaitGrantCommit(me->status);
      }
    }
    owner_ = me;
    if (AdmissionLog* recorder = recorder_.load(std::memory_order_relaxed)) {
      recorder->Record(self.id);
    }
    return true;
  }

  bool TryLockFor(std::chrono::nanoseconds timeout) {
    return TryLockUntil(std::chrono::steady_clock::now() + timeout);
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
        // tenancy; a concurrent cancel at worst wastes the hint.
        next->wake_ref().WakeAhead();
      }
    }
  }

  void unlock() {
    QNode* me = owner_;
    // Walk the chain from our node, skipping cancelled husks. `node` is the
    // current chain head: our own node first, then each husk we stepped
    // over. Invariant: a husk is reclaimed only after our last access to it
    // (the next-pointer read / SpinForSuccessor below).
    QNode* node = me;
    while (true) {
      QNode* next = node->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        QNode* expected = node;
        // Release on success: the next arriving thread's acq_rel tail swap
        // must observe our critical section.
        if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_release,
                                          std::memory_order_relaxed)) {
          Retire(node, me);
          return;
        }
        next = SpinForSuccessor(node);
      }
      // Chaos: widen the grant-vs-cancel window before committing.
      MALTHUS_FAILPOINT("mcs.grant");
      // The waiter may recycle its node as soon as it observes the grant,
      // so the wake channel is read before the CAS. The ParkerRef stays
      // safe even past thread exit: ThreadCtx memory is type-stable (slab,
      // see alloc/slab.h) so the post-grant Wake can never fault, and its
      // generation check turns a wake aimed at an exited waiter's recycled
      // slot into a counted no-op. owner_ is written before the CAS — only
      // the thread that observes kGranted ever reads it, so the speculative
      // store is dead if the CAS fails.
      const ParkerRef wake = next->wake_ref();
      owner_ = next;
      std::uint32_t expected = kWaiting;
      // Release pairs with the acquire load in the waiter's Await: it
      // transfers both the critical section and the owner_ handoff above.
      // Failure (expected == kCancelled) carries no ordering need beyond
      // the husk walk itself.
      if (next->status.compare_exchange_strong(expected, kGranted, std::memory_order_release,
                                               std::memory_order_relaxed)) {
        // Chaos: widen the grant-committed-vs-wake window. This is the
        // stale-wake window the generation check closes: the granted waiter
        // may run, unlock, exit, and have its ThreadCtx recycled before the
        // Wake below fires.
        MALTHUS_FAILPOINT("mcs.wake");
        WaitPolicy::Wake(wake);
        Retire(node, me);
        return;
      }
      // next cancelled underneath us: step over the husk and keep looking.
      cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
      Retire(node, me);
      node = next;
    }
  }

  // Safe to call while other threads are locking (tests attach recorders
  // mid-run to skip warmup); hence the atomic pointer.
  void set_recorder(AdmissionLog* recorder) {
    recorder_.store(recorder, std::memory_order_relaxed);
  }
  // Spin iterations before a waiter parks (SeedSpinBudget() by default).
  // Set it before other threads use the lock.
  void set_spin_budget(std::uint32_t budget) { spin_budget_ = budget; }

  // Acquisitions that timed out and self-removed.
  std::uint64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
  // Cancelled husks the unlock path stepped over and reclaimed.
  std::uint64_t cancelled_reclaims() const {
    return cancelled_reclaims_.load(std::memory_order_relaxed);
  }

 private:
  // Disposes the finished chain head: our own node back to the pool, a
  // stepped-over husk to its owner via the kReclaimed release store (which
  // orders every access above it before the owner's reuse).
  static void Retire(QNode* node, QNode* me) {
    if (node == me) {
      ReleaseQNode(node);
    } else {
      node->status.store(kReclaimed, std::memory_order_release);
    }
  }

  std::atomic<QNode*> tail_{nullptr};
  // The owner's queue node. Written by the granter before the releasing
  // store of the grant flag; read only by the owner at unlock.
  QNode* owner_ = nullptr;
  std::atomic<AdmissionLog*> recorder_{nullptr};
  std::uint32_t spin_budget_ = SeedSpinBudget();
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> cancelled_reclaims_{0};
};

// MCS-S uses the yield-aware pure-spin policy: identical to SpinPolicy
// while spinners fit the effective CPU count, bounded sched_yield pacing
// once they do not (see waiting/policy.h).
using McsSpinLock = McsLock<YieldingSpinPolicy>;
using McsStpLock = McsLock<SpinThenParkPolicy>;

}  // namespace malthus

#endif  // MALTHUS_SRC_LOCKS_MCS_H_
