// MCSCRN — NUMA-aware concurrency restriction (paper §9.1 "Future Work").
//
// Starts from MCSCR and adds two fields: the currently preferred *home*
// node and a list of remote threads. At unlock time the owner culls from
// the chain both (a) threads running on a node other than home — into the
// remote list — and (b) same-node surplus threads — into the local passive
// list, exactly as MCSCR. A deficit re-provisions first from the local PS,
// then from the remote list (adopting that thread's node as the new home).
// Periodically (Bernoulli) the unlock operator selects a new home node from
// the remote-list tail and drains that node's threads back into the chain,
// conferring long-term fairness across nodes.
//
// Keeping the ACS node-homogeneous reduces lock migrations (grants that
// cross node boundaries) — the lock_migrations() counter quantifies it.
// Unlike cohort locks, the lock is small, fixed-size, and non-hierarchical.
#ifndef MALTHUS_SRC_CORE_MCSCRN_H_
#define MALTHUS_SRC_CORE_MCSCRN_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/chaos/failpoint.h"
#include "src/core/topology.h"
#include "src/locks/lock_base.h"
#include "src/metrics/admission_log.h"
#include "src/platform/calibrate.h"
#include "src/rng/xorshift.h"
#include "src/waiting/policy.h"

namespace malthus {

struct McscrnOptions {
  std::uint64_t fairness_one_in = 1000;  // home-rotation Bernoulli
  std::uint32_t cull_scan_limit = 4;     // chain nodes inspected per unlock
  std::uint32_t spin_budget = SeedSpinBudget();  // as McscrOptions::spin_budget
};

template <typename WaitPolicy>
class McscrnLock {
 public:
  McscrnLock() = default;
  explicit McscrnLock(const McscrnOptions& opts) : opts_(opts) {}
  McscrnLock(const McscrnLock&) = delete;
  McscrnLock& operator=(const McscrnLock&) = delete;

  void lock() {
    ThreadCtx& self = Self();
    QNode* me = AcquireQNode();
    me->PrepareForWait(self);
    me->numa_node = Topology::Instance().NodeOf(self);
    QNode* prev = tail_.exchange(me, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(me, std::memory_order_release);
      WaitPolicy::Await(me->status, kWaiting, self.parker, opts_.spin_budget);
      // Await exits on kClaimed too: a refill or home rotation that has not
      // yet committed the grant.
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
    me->numa_node = Topology::Instance().NodeOf(self);
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

  // Timed acquisition. Identical protocol to MCSCR's: the waiter may sit on
  // the chain, the local PS, or the remote list when the deadline fires;
  // the kWaiting -> kCancelled tombstone CAS covers all three, and every
  // owner-side walk skips and reclaims husks.
  bool TryLockUntil(std::chrono::steady_clock::time_point deadline) {
    ThreadCtx& self = Self();
    QNode* me = AcquireQNode();
    me->PrepareForWait(self);
    me->numa_node = Topology::Instance().NodeOf(self);
    QNode* prev = tail_.exchange(me, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(me, std::memory_order_release);
      if (!WaitPolicy::AwaitUntil(me->status, kWaiting, self.parker, deadline,
                                  opts_.spin_budget)) {
        MALTHUS_FAILPOINT("mcscrn.cancel");
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

  // Anticipatory handover (wake-ahead, §5.2): predicts the grantee of the
  // coming unlock() by mirroring the bounded cull scan (remote and surplus
  // nodes are excised, so the grant lands past them) and posts its wake
  // permit from the tail of the critical section. A misprediction — raced
  // arrival or a home-rotation trial firing — leaves a benign stale permit.
  void PrepareHandover() {
    if constexpr (WaitPolicy::kParks) {
      QNode* me = owner_;
      QNode* heir = me->next.load(std::memory_order_acquire);
      if (heir == nullptr) {
        // Deficit path preview: unlock() refills from the local PS first,
        // then the remote list. Both are owner-protected.
        QNode* refill = ps_head_ != nullptr ? ps_head_ : remote_head_;
        if (refill != nullptr) {
          refill->wake_ref().WakeAhead();
        }
        return;
      }
      // KEEP IN SYNC with the cull scan in unlock(): a policy change there
      // that is not mirrored here silently turns every wake-ahead into a
      // stale permit plus a wasted syscall.
      std::uint32_t scanned = 0;
      bool local_culled = false;
      while (scanned < opts_.cull_scan_limit) {
        QNode* after = heir->next.load(std::memory_order_acquire);
        if (after == nullptr) {
          break;
        }
        if (heir->numa_node != home_node_) {
          // Would be culled to the remote list.
        } else if (!local_culled) {
          local_culled = true;  // Would be the one local surplus cull.
        } else {
          break;
        }
        heir = after;
        ++scanned;
      }
      heir->wake_ref().WakeAhead();
    }
  }

  void unlock() {
    QNode* me = owner_;

    // Bounded tombstone sweep over both owner-protected lists, eldest end
    // first, so cancelled passives are reclaimed even on cold lists.
    PurgeCancelled(&ps_head_, &ps_tail_);
    PurgeCancelled(&remote_head_, &remote_tail_);

    // Periodic home rotation: adopt the eldest *live* remote thread's node,
    // drain its co-resident threads into the chain, and grant it the lock.
    if (remote_tail_ != nullptr && opts_.fairness_one_in != 0 &&
        ThreadLocalRng().BernoulliOneIn(opts_.fairness_one_in)) {
      if (RotateHomeAndGrant(me)) {
        return;
      }
      // The remote list held only tombstones (all reclaimed); fall through.
    }

    // Chain walk, skipping cancelled husks (see McscrLock::unlock — same
    // invariant: a husk is reclaimed only after our last access to it).
    QNode* node = me;
    while (true) {
      QNode* next = node->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        bool refill_is_remote = false;
        QNode* refill = ClaimPassive(&ps_head_, &ps_tail_, /*from_tail=*/false);
        if (refill == nullptr) {
          refill = ClaimPassive(&remote_head_, &remote_tail_, /*from_tail=*/false);
          refill_is_remote = refill != nullptr;
        }
        if (refill != nullptr) {
          MALTHUS_FAILPOINT("mcscrn.refill");
          refill->next.store(nullptr, std::memory_order_relaxed);
          QNode* expected = node;
          if (tail_.compare_exchange_strong(expected, refill, std::memory_order_release,
                                            std::memory_order_relaxed)) {
            if (refill_is_remote) {
              home_node_ = refill->numa_node;  // Deficit adopts the refill's node.
            }
          } else {
            // An arrival raced the swap. The refill is claimed (its waiter
            // no longer parks or cancels), so it must be granted now: graft
            // it ahead of the arrival. Home stays unchanged — the arrival,
            // not the refill, keeps the lock saturated.
            QNode* chain = SpinForSuccessor(node);
            refill->next.store(chain, std::memory_order_relaxed);
          }
          reprovisions_.fetch_add(1, std::memory_order_relaxed);
          GrantClaimed(refill, me);
          Retire(node, me);
          return;
        }
        QNode* expected = node;
        if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_release,
                                          std::memory_order_relaxed)) {
          Retire(node, me);
          return;
        }
        next = SpinForSuccessor(node);
      }

      // Scan a bounded prefix of the chain: remote threads go to the remote
      // list; same-node surplus goes to the local PS (one local cull max,
      // as in MCSCR); cancelled husks are reclaimed in place rather than
      // passivating corpses. The chain tail is never culled.
      std::uint32_t scanned = 0;
      bool local_culled = false;
      while (scanned < opts_.cull_scan_limit) {
        QNode* after = next->next.load(std::memory_order_acquire);
        if (after == nullptr) {
          break;
        }
        if (next->status.load(std::memory_order_acquire) == kCancelled) {
          cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
          next->status.store(kReclaimed, std::memory_order_release);
        } else if (next->numa_node != home_node_) {
          MALTHUS_FAILPOINT("mcscrn.cull");
          PsPushHead(&remote_head_, &remote_tail_, next);
          remote_culls_.fetch_add(1, std::memory_order_relaxed);
        } else if (!local_culled) {
          PsPushHead(&ps_head_, &ps_tail_, next);
          culls_.fetch_add(1, std::memory_order_relaxed);
          local_culled = true;
        } else {
          break;
        }
        next = after;
        ++scanned;
      }
      MALTHUS_FAILPOINT("mcscrn.grant");
      if (TryGrant(next, me)) {
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

  std::uint64_t culls() const { return culls_.load(std::memory_order_relaxed); }
  std::uint64_t remote_culls() const { return remote_culls_.load(std::memory_order_relaxed); }
  std::uint64_t reprovisions() const { return reprovisions_.load(std::memory_order_relaxed); }
  std::uint64_t home_rotations() const {
    return home_rotations_.load(std::memory_order_relaxed);
  }
  std::uint64_t lock_migrations() const {
    return lock_migrations_.load(std::memory_order_relaxed);
  }
  std::uint64_t grants() const { return grants_.load(std::memory_order_relaxed); }
  // Acquisitions that timed out and self-removed.
  std::uint64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
  // Cancelled nodes reclaimed by owner-side walks.
  std::uint64_t cancelled_reclaims() const {
    return cancelled_reclaims_.load(std::memory_order_relaxed);
  }

 private:
  // Commits the grant to a node pinned by a prior kWaiting -> kClaimed CAS.
  // `me` is the releasing owner's node (owner_ may not be written yet when
  // called mid-walk, so the migration check cannot go through it).
  void GrantClaimed(QNode* next, QNode* me) {
    grants_.fetch_add(1, std::memory_order_relaxed);
    if (next->numa_node != me->numa_node) {
      lock_migrations_.fetch_add(1, std::memory_order_relaxed);
    }
    // Pre-read: the waiter may recycle its node the moment it observes the
    // grant flag.
    const ParkerRef wake = next->wake_ref();
    owner_ = next;
    // Release pairs with the waiter's acquire in Await(); see McscrLock::
    // GrantClaimed for the full pairing rationale.
    next->status.store(kGranted, std::memory_order_release);
    WaitPolicy::Wake(wake);
  }

  // Grant attempt for an unclaimed chain node; false if it cancelled (the
  // caller then owns the husk).
  bool TryGrant(QNode* next, QNode* me) {
    // Pre-read: the waiter may recycle its node the moment the grant CAS
    // lands (and then rewrite numa_node on its next acquisition). Both the
    // wake channel and numa_node are read while the chain still pins the
    // node; post-CAS the ParkerRef's generation check guards the wake.
    const ParkerRef wake = next->wake_ref();
    const std::uint32_t next_numa_node = next->numa_node;
    owner_ = next;
    std::uint32_t expected = kWaiting;
    if (!next->status.compare_exchange_strong(expected, kGranted, std::memory_order_release,
                                              std::memory_order_relaxed)) {
      return false;
    }
    grants_.fetch_add(1, std::memory_order_relaxed);
    if (next_numa_node != me->numa_node) {
      lock_migrations_.fetch_add(1, std::memory_order_relaxed);
    }
    WaitPolicy::Wake(wake);
    return true;
  }

  static void Retire(QNode* node, QNode* me) {
    if (node == me) {
      ReleaseQNode(node);
    } else {
      node->status.store(kReclaimed, std::memory_order_release);
    }
  }

  // Pops list entries (head or tail end) until one survives the kWaiting ->
  // kClaimed pin; cancelled entries are reclaimed in passing. nullptr when
  // the list holds only tombstones.
  QNode* ClaimPassive(QNode** head, QNode** tail, bool from_tail) {
    while (*head != nullptr) {
      QNode* n = PsPop(head, tail, from_tail ? *tail : *head);
      // Generation tripwire (see McscrLock::ClaimPs): a node whose stamping
      // thread has detached can only be a tombstone; never pin it.
      if (!n->OwnerCurrent()) {
        cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
        n->status.store(kReclaimed, std::memory_order_release);
        continue;
      }
      std::uint32_t expected = kWaiting;
      if (n->status.compare_exchange_strong(expected, kClaimed, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        return n;
      }
      cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
      n->status.store(kReclaimed, std::memory_order_release);
    }
    return nullptr;
  }

  // Bounded eldest-first tombstone sweep (see McscrLock's).
  void PurgeCancelled(QNode** head, QNode** tail) {
    std::uint32_t scanned = 0;
    QNode* n = *tail;
    while (n != nullptr && scanned < kPurgeScanLimit) {
      QNode* prev = n->list_prev;
      if (n->status.load(std::memory_order_acquire) == kCancelled) {
        MALTHUS_FAILPOINT("mcscrn.purge");
        PsUnlink(head, tail, n);
        cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
        n->status.store(kReclaimed, std::memory_order_release);
      }
      n = prev;
      ++scanned;
    }
  }

  static constexpr std::uint32_t kPurgeScanLimit = 4;

  // Picks the eldest live remote thread, claims it, makes its node home,
  // drains its live co-resident threads into the chain after it, and
  // grants it. Returns false (no rotation) if the remote list drained to
  // tombstones while claiming.
  bool RotateHomeAndGrant(QNode* me) {
    QNode* leader = ClaimPassive(&remote_head_, &remote_tail_, /*from_tail=*/true);
    if (leader == nullptr) {
      return false;
    }
    MALTHUS_FAILPOINT("mcscrn.rotate");
    home_node_ = leader->numa_node;
    home_rotations_.fetch_add(1, std::memory_order_relaxed);

    // Collect co-resident remote threads into a local chain segment.
    // Cancelled ones are reclaimed instead of spliced — a husk linked into
    // the chain would only be skipped at grant time anyway, and filtering
    // here is cheaper than a chain walk later. Live ones need no claim:
    // once spliced they are ordinary chain nodes, and a cancel after the
    // splice just tombstones them in place.
    QNode* seg_head = leader;
    QNode* seg_tail = leader;
    QNode* scan = remote_tail_;
    while (scan != nullptr) {
      QNode* prev_scan = scan->list_prev;
      if (scan->numa_node == home_node_) {
        PsUnlink(&remote_head_, &remote_tail_, scan);
        if (scan->status.load(std::memory_order_acquire) == kCancelled) {
          cancelled_reclaims_.fetch_add(1, std::memory_order_relaxed);
          scan->status.store(kReclaimed, std::memory_order_release);
        } else {
          seg_tail->next.store(scan, std::memory_order_relaxed);
          seg_tail = scan;
        }
      }
      scan = prev_scan;
    }

    QNode* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      seg_tail->next.store(nullptr, std::memory_order_relaxed);
      QNode* expected = me;
      if (tail_.compare_exchange_strong(expected, seg_tail, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        GrantClaimed(seg_head, me);
        ReleaseQNode(me);
        return true;
      }
      next = SpinForSuccessor(me);
    }
    seg_tail->next.store(next, std::memory_order_relaxed);
    GrantClaimed(seg_head, me);
    ReleaseQNode(me);
    return true;
  }

  // Doubly-linked list helpers shared by the local PS and the remote list.
  // Owner-protected, like MCSCR's.
  static void PsPushHead(QNode** head, QNode** tail, QNode* n) {
    n->list_prev = nullptr;
    n->list_next = *head;
    if (*head != nullptr) {
      (*head)->list_prev = n;
    } else {
      *tail = n;
    }
    *head = n;
  }

  static void PsUnlink(QNode** head, QNode** tail, QNode* n) {
    if (n->list_prev != nullptr) {
      n->list_prev->list_next = n->list_next;
    } else {
      *head = n->list_next;
    }
    if (n->list_next != nullptr) {
      n->list_next->list_prev = n->list_prev;
    } else {
      *tail = n->list_prev;
    }
    n->list_prev = nullptr;
    n->list_next = nullptr;
  }

  static QNode* PsPop(QNode** head, QNode** tail, QNode* n) {
    PsUnlink(head, tail, n);
    return n;
  }

  std::atomic<QNode*> tail_{nullptr};
  QNode* owner_ = nullptr;
  QNode* ps_head_ = nullptr;
  QNode* ps_tail_ = nullptr;
  QNode* remote_head_ = nullptr;
  QNode* remote_tail_ = nullptr;
  std::uint32_t home_node_ = 0;
  std::atomic<std::uint64_t> culls_{0};
  std::atomic<std::uint64_t> remote_culls_{0};
  std::atomic<std::uint64_t> reprovisions_{0};
  std::atomic<std::uint64_t> home_rotations_{0};
  std::atomic<std::uint64_t> lock_migrations_{0};
  std::atomic<std::uint64_t> grants_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> cancelled_reclaims_{0};
  std::atomic<AdmissionLog*> recorder_{nullptr};
  McscrnOptions opts_;
};

using McscrnSpinLock = McscrnLock<YieldingSpinPolicy>;  // MCSCRN-S (yield-aware spin)
using McscrnStpLock = McscrnLock<SpinThenParkPolicy>;

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_MCSCRN_H_
