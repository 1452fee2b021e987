// MCSCR — the paper's primary contribution (§4): a classic MCS lock
// augmented with concurrency restriction via an explicit passive list.
//
// All CR logic lives in the unlock path; lock() is MCS plus a wait for the
// commit of a claimed grant (lock_base.h, kClaimed). The main MCS chain
// holds the (implicit) active circulating set; the passive set is an
// explicit doubly-linked list of culled nodes, protected by the lock itself
// (only the owner touches it).
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
#include <chrono>
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
      // Await exits on kClaimed too: a refill or fairness graft that has
      // not yet committed the grant.
      AwaitGrantCommit(me->status);
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

  // Timed acquisition. The waiter may be on the main chain *or* culled to
  // the passive list when the deadline fires; the cancel CAS (kWaiting ->
  // kCancelled) works identically in both places — the node becomes a
  // tombstone wherever it sits, and owner-side walks (chain grant, cull,
  // PS pops, the per-unlock purge) skip and reclaim it. A failed cancel
  // means a granter committed (kGranted) or pinned us for grafting
  // (kClaimed, commit imminent): the lock is ours.
  bool TryLockUntil(std::chrono::steady_clock::time_point deadline) {
    ThreadCtx& self = Self();
    QNode* me = AcquireQNode();
    me->PrepareForWait(self);
    QNode* prev = tail_.exchange(me, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(me, std::memory_order_release);
      if (!WaitPolicy::AwaitUntil(me->status, kWaiting, self.parker, deadline,
                                  opts_.spin_budget)) {
        MALTHUS_FAILPOINT("mcscr.cancel");
        std::uint32_t expected = kWaiting;
        if (me->status.compare_exchange_strong(expected, kCancelled, std::memory_order_release,
                                               std::memory_order_acquire)) {
          timeouts_.fetch_add(1, std::memory_order_relaxed);
          ZombieQNode(me);
          return false;
        }
      }
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

    // Sweep a bounded slice of the PS tail for cancelled waiters so
    // tombstones on a cold passive list are reclaimed even if no fairness
    // or deficit pop ever reaches them. Eldest end first: the longest-
    // waiting passives are the most likely to have blown a deadline.
    PurgeCancelledPassives();

    // Long-term fairness: occasionally cede ownership to the eldest
    // *live* passivated thread.
    if (ps_tail_ != nullptr && opts_.fairness_one_in != 0 &&
        ThreadLocalRng().BernoulliOneIn(opts_.fairness_one_in)) {
      if (QNode* eldest = ClaimPsTail()) {
        MALTHUS_FAILPOINT("mcscr.fairness");
        GraftAsSuccessor(me, eldest);
        fairness_grants_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Every passive was a tombstone; the purge above reclaimed what the
      // claim walk popped. Fall through to the normal succession.
    }

    // Chain walk, skipping cancelled husks. `node` is the current chain
    // head: our own node first, then each husk stepped over; a husk is
    // reclaimed only after our last access to it.
    QNode* node = me;
    while (true) {
      QNode* next = node->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        if (QNode* warm = ClaimPsHead()) {
          // Deficit: re-provision from the PS head to stay work conserving.
          MALTHUS_FAILPOINT("mcscr.refill");
          warm->next.store(nullptr, std::memory_order_relaxed);
          QNode* expected = node;
          if (!tail_.compare_exchange_strong(expected, warm, std::memory_order_release,
                                             std::memory_order_relaxed)) {
            // An arrival raced the swap. The pre-claim design re-passivated
            // `warm` here, but a claimed node is pinned awaiting its grant
            // (its waiter no longer parks or cancels), so it must be granted
            // now: graft it as our immediate successor ahead of the arrival.
            QNode* chain = SpinForSuccessor(node);
            warm->next.store(chain, std::memory_order_relaxed);
          }
          reprovisions_.fetch_add(1, std::memory_order_relaxed);
          GrantClaimed(warm);
          Retire(node, me);
          return;
        }
        QNode* expected = node;
        if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_release,
                                          std::memory_order_relaxed)) {
          Retire(node, me);
          return;  // Lock free; work conservation holds because PS is empty.
        }
        next = SpinForSuccessor(node);
      }

      // Surplus: excise intermediate waiters (those that themselves have a
      // successor) into the PS; reclaim cancelled intermediates instead of
      // passivating corpses. The chain tail always stays.
      std::uint32_t culled = 0;
      while (culled < opts_.cull_limit) {
        QNode* after = next->next.load(std::memory_order_acquire);
        if (after == nullptr) {
          break;
        }
        if (next->status.load(std::memory_order_acquire) == kCancelled) {
          // kCancelled is terminal on the waiter side, so the plain load
          // suffices; the release store hands the husk back to its owner.
          cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
          next->status.store(kReclaimed, std::memory_order_release);
        } else {
          MALTHUS_FAILPOINT("mcscr.cull");
          PsPushHead(next);
          culls_.fetch_add(1, std::memory_order_relaxed);
          ++culled;
        }
        next = after;
      }
      // Chaos: widen the grant-vs-cancel window before committing.
      MALTHUS_FAILPOINT("mcscr.grant");
      // Pre-read the generation-validated wake channel; speculative owner_
      // store is dead unless the CAS commits (only the granted thread reads
      // owner_).
      const ParkerRef wake = next->wake_ref();
      owner_ = next;
      std::uint32_t expected = kWaiting;
      if (next->status.compare_exchange_strong(expected, kGranted, std::memory_order_release,
                                               std::memory_order_relaxed)) {
        WaitPolicy::Wake(wake);
        Retire(node, me);
        return;
      }
      // The chain tail cancelled underneath us: step over the husk.
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
  const McscrOptions& options() const { return opts_; }

  // Instrumentation. ps_size is exact only while the lock is quiescent.
  std::uint64_t culls() const { return culls_.load(std::memory_order_relaxed); }
  std::uint64_t reprovisions() const { return reprovisions_.load(std::memory_order_relaxed); }
  std::uint64_t fairness_grants() const {
    return fairness_grants_.load(std::memory_order_relaxed);
  }
  std::size_t passive_set_size() const { return ps_size_.load(std::memory_order_relaxed); }
  // Acquisitions that timed out and self-removed.
  std::uint64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
  // Cancelled nodes reclaimed by owner-side walks (chain skip, cull sweep,
  // PS pops, purge).
  std::uint64_t cancelled_reclaims() const {
    return cancelled_reclaims_.load(std::memory_order_relaxed);
  }

 private:
  // Commits the grant to a node pinned by a prior kWaiting -> kClaimed CAS
  // (graft/refill paths, which must link the node before granting; the pin
  // keeps the waiter from cancelling mid-splice). The plain release store
  // is safe precisely because the node is claimed.
  void GrantClaimed(QNode* next) {
    // Pre-read: the waiter may recycle its node the moment it observes the
    // grant flag.
    const ParkerRef wake = next->wake_ref();
    owner_ = next;
    // Release pairs with the waiter's acquire load of its status: it
    // transfers the critical section, the owner_ handoff above, and all
    // owner-protected passive-list mutations this unlock performed. The
    // subsequent Wake() needs no ordering of its own — a permit is only a
    // hint and the waiter re-checks the flag.
    next->status.store(kGranted, std::memory_order_release);
    WaitPolicy::Wake(wake);
  }

  // Disposes the finished chain head: our own node back to the pool, a
  // stepped-over husk to its owner via the kReclaimed release store.
  static void Retire(QNode* node, QNode* me) {
    if (node == me) {
      ReleaseQNode(node);
    } else {
      node->status.store(kReclaimed, std::memory_order_release);
    }
  }

  // Grafts a *claimed* `node` into the chain as the owner's immediate
  // successor and passes it the lock, handling the empty-chain race with
  // arrivals.
  void GraftAsSuccessor(QNode* me, QNode* node) {
    QNode* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      node->next.store(nullptr, std::memory_order_relaxed);
      QNode* expected = me;
      if (tail_.compare_exchange_strong(expected, node, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        GrantClaimed(node);
        ReleaseQNode(me);
        return;
      }
      next = SpinForSuccessor(me);
    }
    node->next.store(next, std::memory_order_relaxed);
    GrantClaimed(node);
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

  void PsUnlink(QNode* n) {
    if (n->list_prev != nullptr) {
      n->list_prev->list_next = n->list_next;
    } else {
      ps_head_ = n->list_next;
    }
    if (n->list_next != nullptr) {
      n->list_next->list_prev = n->list_prev;
    } else {
      ps_tail_ = n->list_prev;
    }
    ps_size_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Pops PS entries until one survives the kWaiting -> kClaimed pin (the
  // caller must then grant it); cancelled entries are reclaimed in passing.
  // Returns nullptr when the PS holds only tombstones (now drained).
  QNode* ClaimPs(bool from_tail) {
    while ((from_tail ? ps_tail_ : ps_head_) != nullptr) {
      QNode* n = from_tail ? PsPopTail() : PsPopHead();
      // Generation tripwire: a node whose stamping thread has detached can
      // only be a tombstone (a live waiter pins its ThreadCtx until its
      // wait resolves — the cancel CAS happens-before the detach), so skip
      // the kClaimed pin entirely rather than risk pinning a husk whose
      // owner can never be woken.
      if (!n->OwnerCurrent()) {
        cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
        n->status.store(kReclaimed, std::memory_order_release);
        continue;
      }
      std::uint32_t expected = kWaiting;
      // Failure acquire pairs with the waiter's release cancel; nothing the
      // claim itself publishes is read before GrantClaimed's release store.
      if (n->status.compare_exchange_strong(expected, kClaimed, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        return n;
      }
      cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
      n->status.store(kReclaimed, std::memory_order_release);
    }
    return nullptr;
  }
  QNode* ClaimPsHead() { return ClaimPs(/*from_tail=*/false); }
  QNode* ClaimPsTail() { return ClaimPs(/*from_tail=*/true); }

  // Bounded eldest-first sweep reclaiming cancelled passives in place, so
  // tombstones cannot accumulate on a PS that fairness/deficit pops rarely
  // reach. Owner-protected, like every PS mutation.
  void PurgeCancelledPassives() {
    std::uint32_t scanned = 0;
    QNode* n = ps_tail_;
    while (n != nullptr && scanned < kPurgeScanLimit) {
      QNode* prev = n->list_prev;
      if (n->status.load(std::memory_order_acquire) == kCancelled) {
        MALTHUS_FAILPOINT("mcscr.purge");
        PsUnlink(n);
        cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
        n->status.store(kReclaimed, std::memory_order_release);
      }
      n = prev;
      ++scanned;
    }
  }

  // PS entries examined per unlock by PurgeCancelledPassives. Small: the
  // purge is an amortized garbage sweep, not a latency-critical path.
  static constexpr std::uint32_t kPurgeScanLimit = 4;

  std::atomic<QNode*> tail_{nullptr};
  QNode* owner_ = nullptr;
  QNode* ps_head_ = nullptr;
  QNode* ps_tail_ = nullptr;
  std::atomic<std::size_t> ps_size_{0};
  std::atomic<std::uint64_t> culls_{0};
  std::atomic<std::uint64_t> reprovisions_{0};
  std::atomic<std::uint64_t> fairness_grants_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> cancelled_reclaims_{0};
  std::atomic<AdmissionLog*> recorder_{nullptr};
  McscrOptions opts_;
};

using McscrSpinLock = McscrLock<YieldingSpinPolicy>;  // MCSCR-S (yield-aware spin)
using McscrStpLock = McscrLock<SpinThenParkPolicy>;   // MCSCR-STP

// The library's recommended default lock: MCSCR with spin-then-park waiting.
using MalthusianMutex = McscrStpLock;

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_MCSCR_H_
