// MCSCR — the paper's primary contribution (§4): a classic MCS lock
// augmented with concurrency restriction via an explicit passive list.
//
// All CR logic lives in the unlock path; lock() is plain MCS. The main MCS
// chain holds the (implicit) active circulating set; the passive set is an
// explicit doubly-linked list of culled nodes, protected by the lock itself
// (only the owner touches it). Every grant is one release store to the
// grantee's flag, made after the grantee is spliced into the chain.
//
// At unlock time:
//   * Long-term fairness — with probability 1/fairness_one_in, the *tail*
//     of the PS (the least recently arrived passive thread) is grafted into
//     the chain immediately after the owner and granted the lock.
//   * Deficit — if the chain is empty except for the owner and the PS is
//     non-empty, the *head* of the PS (most recently passivated, warmest,
//     most likely still spinning) is re-provisioned and granted, keeping
//     the policy work conserving: the critical section is never left idle
//     while waiters exist.
//   * Surplus — if there are intermediate nodes strictly between the owner
//     and the tail, the immediate successor is excised and prepended to the
//     PS (up to cull_limit per unlock; the paper excises one). Culling
//     drives the system toward the desirable steady state of exactly one
//     waiter on the chain, giving cyclic admission over a minimal ACS and
//     mostly-LIFO admission overall.
//
// Absent contention MCSCR behaves exactly like MCS. The size of the ACS is
// emergent, not a tunable; the only knobs are the fairness probability and
// the spin budget (§7 "parameter parsimony").
#ifndef MALTHUS_SRC_CORE_MCSCR_H_
#define MALTHUS_SRC_CORE_MCSCR_H_

#include <atomic>
#include <cstdint>

#include "src/chaos/failpoint.h"
#include "src/locks/lock_base.h"
#include "src/metrics/admission_log.h"
#include "src/platform/calibrate.h"
#include "src/rng/xorshift.h"
#include "src/waiting/policy.h"

namespace malthus {

struct McscrOptions {
  // Bernoulli fairness: admit the eldest passive thread on average once per
  // this many unlocks. 0 disables explicit fairness (pure CR).
  std::uint64_t fairness_one_in = 1000;
  // Max culls per unlock. 0 disables CR entirely (degenerates to MCS);
  // UINT32_MAX drains all surplus in one unlock.
  std::uint32_t cull_limit = 1;
  // Spin iterations before a waiter parks. The default is one park-and-wake
  // round trip, 100 µs (SeedSpinBudget()); the ablation benches and tests
  // pin other counts.
  std::uint32_t spin_budget = SeedSpinBudget();
};

template <typename WaitPolicy>
class McscrLock {
 public:
  McscrLock() = default;
  explicit McscrLock(const McscrOptions& opts) : opts_(opts) {}
  McscrLock(const McscrLock&) = delete;
  McscrLock& operator=(const McscrLock&) = delete;

  void lock() {
    ThreadCtx& self = Self();
    QNode* me = AcquireQNode();
    me->PrepareForWait(self);
    QNode* prev = tail_.exchange(me, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(me, std::memory_order_release);
      WaitPolicy::Await(me->status, kWaiting, self.parker, opts_.spin_budget);
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
  // end of its critical section, before unlock(). Predicts the node the
  // coming unlock() will grant — mirroring the cull walk without mutating —
  // and posts its wake permit so a parked heir overlaps its kernel wakeup
  // with the tail of the critical section. Mispredictions (a raced arrival,
  // a fairness grant winning the Bernoulli trial) leave a stale permit,
  // which only degrades that waiter to spinning.
  void PrepareHandover() {
    if constexpr (WaitPolicy::kParks) {
      QNode* me = owner_;
      QNode* heir = me->next.load(std::memory_order_acquire);
      if (heir == nullptr) {
        // Likely deficit path: unlock() would re-provision from the PS
        // head. ps_head_ is owner-protected, and we are the owner.
        if (ps_head_ != nullptr) {
          ps_head_->wake_ref().WakeAhead();
        }
        return;
      }
      // Mirror the surplus cull: intermediate nodes (those that themselves
      // have a successor, up to cull_limit) are excised, so the grant lands
      // past them. Chain nodes are pinned by their waiting threads.
      // KEEP IN SYNC with the cull loop in unlock(): if the cull policy
      // changes there, this prediction must change with it, or every
      // wake-ahead silently becomes a stale permit plus a wasted syscall.
      std::uint32_t culled = 0;
      while (culled < opts_.cull_limit) {
        QNode* after = heir->next.load(std::memory_order_acquire);
        if (after == nullptr) {
          break;
        }
        heir = after;
        ++culled;
      }
      heir->wake_ref().WakeAhead();
    }
  }

  void unlock() {
    QNode* me = owner_;

    // Long-term fairness: occasionally cede ownership to the eldest
    // passivated thread.
    if (ps_tail_ != nullptr && opts_.fairness_one_in != 0 &&
        ThreadLocalRng().BernoulliOneIn(opts_.fairness_one_in)) {
      QNode* eldest = PsPopTail();
      MALTHUS_FAILPOINT("mcscr.fairness");
      GraftAsSuccessor(me, eldest);
      fairness_grants_.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    QNode* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      if (ps_head_ != nullptr) {
        // Deficit: re-provision from the PS head to stay work conserving.
        QNode* warm = PsPopHead();
        MALTHUS_FAILPOINT("mcscr.refill");
        warm->next.store(nullptr, std::memory_order_relaxed);
        QNode* expected = me;
        if (!tail_.compare_exchange_strong(expected, warm, std::memory_order_release,
                                           std::memory_order_relaxed)) {
          // An arrival raced the swap: graft `warm` as our immediate
          // successor, ahead of the arrival.
          warm->next.store(SpinForSuccessor(me), std::memory_order_relaxed);
        }
        reprovisions_.fetch_add(1, std::memory_order_relaxed);
        Grant(warm);
        ReleaseQNode(me);
        return;
      }
      QNode* expected = me;
      if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        ReleaseQNode(me);
        return;  // Lock free; work conservation holds because PS is empty.
      }
      next = SpinForSuccessor(me);
    }

    // Surplus: excise intermediate waiters (those that themselves have a
    // successor) into the PS. The chain tail always stays.
    std::uint32_t culled = 0;
    while (culled < opts_.cull_limit) {
      QNode* after = next->next.load(std::memory_order_acquire);
      if (after == nullptr) {
        break;
      }
      MALTHUS_FAILPOINT("mcscr.cull");
      PsPushHead(next);
      culls_.fetch_add(1, std::memory_order_relaxed);
      ++culled;
      next = after;
    }
    // Chaos: delay the grant while the successor waits.
    MALTHUS_FAILPOINT("mcscr.grant");
    Grant(next);
    ReleaseQNode(me);
  }

  // Safe to call while other threads are locking (tests attach recorders
  // mid-run to skip warmup); hence the atomic pointer.
  void set_recorder(AdmissionLog* recorder) {
    recorder_.store(recorder, std::memory_order_relaxed);
  }

  // Instrumentation. ps_size is exact only while the lock is quiescent.
  std::uint64_t culls() const { return culls_.load(std::memory_order_relaxed); }
  std::uint64_t reprovisions() const { return reprovisions_.load(std::memory_order_relaxed); }
  std::uint64_t fairness_grants() const {
    return fairness_grants_.load(std::memory_order_relaxed);
  }
  std::size_t passive_set_size() const { return ps_size_.load(std::memory_order_relaxed); }

 private:
  // Passes the lock to `next`, which the caller has already spliced into
  // the chain (or which was already there).
  void Grant(QNode* next) {
    // Pre-read: the waiter may recycle its node the moment it observes the
    // grant flag.
    const ParkerRef wake = next->wake_ref();
    // Release pairs with the waiter's acquire load of its status: it
    // transfers the critical section, the splice, and all owner-protected
    // passive-list mutations this unlock performed. The subsequent Wake()
    // needs no ordering of its own — a permit is only a hint and the
    // waiter re-checks the flag.
    next->status.store(kGranted, std::memory_order_release);
    WaitPolicy::Wake(wake);
  }

  // Grafts a passive `node` into the chain as the owner's immediate
  // successor and passes it the lock, handling the empty-chain race with
  // arrivals.
  void GraftAsSuccessor(QNode* me, QNode* node) {
    QNode* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      node->next.store(nullptr, std::memory_order_relaxed);
      QNode* expected = me;
      if (tail_.compare_exchange_strong(expected, node, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        Grant(node);
        ReleaseQNode(me);
        return;
      }
      next = SpinForSuccessor(me);
    }
    node->next.store(next, std::memory_order_relaxed);
    Grant(node);
    ReleaseQNode(me);
  }

  // Passive list helpers. Owner-protected: called only while holding the
  // lock, so plain fields suffice; happens-before across owners rides the
  // grant flag's release/acquire edge (or the tail CAS for the free path).
  void PsPushHead(QNode* n) {
    n->list_prev = nullptr;
    n->list_next = ps_head_;
    if (ps_head_ != nullptr) {
      ps_head_->list_prev = n;
    } else {
      ps_tail_ = n;
    }
    ps_head_ = n;
    ps_size_.fetch_add(1, std::memory_order_relaxed);
  }

  QNode* PsPopHead() {
    QNode* n = ps_head_;
    ps_head_ = n->list_next;
    if (ps_head_ != nullptr) {
      ps_head_->list_prev = nullptr;
    } else {
      ps_tail_ = nullptr;
    }
    ps_size_.fetch_sub(1, std::memory_order_relaxed);
    return n;
  }

  QNode* PsPopTail() {
    QNode* n = ps_tail_;
    ps_tail_ = n->list_prev;
    if (ps_tail_ != nullptr) {
      ps_tail_->list_next = nullptr;
    } else {
      ps_head_ = nullptr;
    }
    ps_size_.fetch_sub(1, std::memory_order_relaxed);
    return n;
  }

  std::atomic<QNode*> tail_{nullptr};
  QNode* owner_ = nullptr;
  QNode* ps_head_ = nullptr;
  QNode* ps_tail_ = nullptr;
  std::atomic<std::size_t> ps_size_{0};
  std::atomic<std::uint64_t> culls_{0};
  std::atomic<std::uint64_t> reprovisions_{0};
  std::atomic<std::uint64_t> fairness_grants_{0};
  std::atomic<AdmissionLog*> recorder_{nullptr};
  McscrOptions opts_;
};

using McscrSpinLock = McscrLock<YieldingSpinPolicy>;  // MCSCR-S (yield-aware spin)
using McscrStpLock = McscrLock<SpinThenParkPolicy>;   // MCSCR-STP

// The library's recommended default lock: MCSCR with spin-then-park waiting.
using MalthusianMutex = McscrStpLock;

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_MCSCR_H_
