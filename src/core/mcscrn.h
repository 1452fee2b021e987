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

    // Periodic home rotation: adopt the eldest remote thread's node, drain
    // its co-resident threads into the chain, and grant it the lock.
    if (remote_tail_ != nullptr && opts_.fairness_one_in != 0 &&
        ThreadLocalRng().BernoulliOneIn(opts_.fairness_one_in)) {
      RotateHomeAndGrant(me);
      return;
    }

    QNode* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      if (ps_head_ != nullptr || remote_head_ != nullptr) {
        // Deficit: re-provision from the local PS first, then the remote
        // list.
        const bool refill_is_remote = ps_head_ == nullptr;
        QNode* refill = refill_is_remote ? PsPop(&remote_head_, &remote_tail_, remote_head_)
                                         : PsPop(&ps_head_, &ps_tail_, ps_head_);
        MALTHUS_FAILPOINT("mcscrn.refill");
        refill->next.store(nullptr, std::memory_order_relaxed);
        QNode* expected = me;
        if (tail_.compare_exchange_strong(expected, refill, std::memory_order_release,
                                          std::memory_order_relaxed)) {
          if (refill_is_remote) {
            home_node_ = refill->numa_node;  // Deficit adopts the refill's node.
          }
        } else {
          // An arrival raced the swap: graft the refill ahead of it. Home
          // stays unchanged — the arrival, not the refill, keeps the lock
          // saturated.
          refill->next.store(SpinForSuccessor(me), std::memory_order_relaxed);
        }
        reprovisions_.fetch_add(1, std::memory_order_relaxed);
        Grant(refill, me);
        ReleaseQNode(me);
        return;
      }
      QNode* expected = me;
      if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        ReleaseQNode(me);
        return;
      }
      next = SpinForSuccessor(me);
    }

    // Scan a bounded prefix of the chain: remote threads go to the remote
    // list; same-node surplus goes to the local PS (one local cull max,
    // as in MCSCR). The chain tail is never culled.
    std::uint32_t scanned = 0;
    bool local_culled = false;
    while (scanned < opts_.cull_scan_limit) {
      QNode* after = next->next.load(std::memory_order_acquire);
      if (after == nullptr) {
        break;
      }
      if (next->numa_node != home_node_) {
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
    // Chaos: delay the grant while the successor waits.
    MALTHUS_FAILPOINT("mcscrn.grant");
    Grant(next, me);
    ReleaseQNode(me);
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

 private:
  // Passes the lock to `next`, which the caller has already spliced into
  // the chain (or which was already there). `me` is the releasing owner's
  // node.
  void Grant(QNode* next, QNode* me) {
    grants_.fetch_add(1, std::memory_order_relaxed);
    // Pre-read: the waiter may recycle its node (and rewrite numa_node on
    // its next acquisition) the moment it observes the grant flag.
    if (next->numa_node != me->numa_node) {
      lock_migrations_.fetch_add(1, std::memory_order_relaxed);
    }
    const ParkerRef wake = next->wake_ref();
    // Release pairs with the waiter's acquire in Await(); see McscrLock::
    // Grant for the full pairing rationale.
    next->status.store(kGranted, std::memory_order_release);
    WaitPolicy::Wake(wake);
  }

  // Pops the eldest remote thread, makes its node home, drains its
  // co-resident threads into the chain after it, and grants it.
  void RotateHomeAndGrant(QNode* me) {
    QNode* leader = PsPop(&remote_head_, &remote_tail_, remote_tail_);
    MALTHUS_FAILPOINT("mcscrn.rotate");
    home_node_ = leader->numa_node;
    home_rotations_.fetch_add(1, std::memory_order_relaxed);

    // Collect co-resident remote threads into a local chain segment.
    QNode* seg_head = leader;
    QNode* seg_tail = leader;
    QNode* scan = remote_tail_;
    while (scan != nullptr) {
      QNode* prev_scan = scan->list_prev;
      if (scan->numa_node == home_node_) {
        PsUnlink(&remote_head_, &remote_tail_, scan);
        seg_tail->next.store(scan, std::memory_order_relaxed);
        seg_tail = scan;
      }
      scan = prev_scan;
    }

    QNode* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      seg_tail->next.store(nullptr, std::memory_order_relaxed);
      QNode* expected = me;
      if (tail_.compare_exchange_strong(expected, seg_tail, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        Grant(seg_head, me);
        ReleaseQNode(me);
        return;
      }
      next = SpinForSuccessor(me);
    }
    seg_tail->next.store(next, std::memory_order_relaxed);
    Grant(seg_head, me);
    ReleaseQNode(me);
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
  std::atomic<AdmissionLog*> recorder_{nullptr};
  McscrnOptions opts_;
};

using McscrnSpinLock = McscrnLock<YieldingSpinPolicy>;  // MCSCRN-S (yield-aware spin)
using McscrnStpLock = McscrnLock<SpinThenParkPolicy>;

}  // namespace malthus

#endif  // MALTHUS_SRC_CORE_MCSCRN_H_
