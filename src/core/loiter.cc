#include "src/core/loiter.h"

#include "src/chaos/failpoint.h"
#include "src/platform/cpu.h"
#include "src/waiting/policy.h"

namespace malthus {

bool LoiterLock::FastPathSpin() {
  if (opts_.max_fast_spinners != 0 &&
      fast_spinners_.load(std::memory_order_relaxed) >= opts_.max_fast_spinners) {
    return false;  // Spinner population already saturated; self-restrict.
  }
  fast_spinners_.fetch_add(1, std::memory_order_relaxed);
  ExponentialBackoff backoff(16, 2048);
  XorShift64& rng = ThreadLocalRng();
  std::uint32_t cas_failures = 0;
  bool acquired = false;
  for (std::uint32_t i = 0; i < opts_.fast_spin_attempts; ++i) {
    if (outer_.load(std::memory_order_relaxed) == kOuterFree) {
      if (outer_.exchange(kOuterHeld, std::memory_order_acquire) == kOuterFree) {
        acquired = true;
        break;
      }
      // Lost the race at the moment of transfer: high flux over the lock.
      if (opts_.self_cull_cas_failures != 0 && ++cas_failures >= opts_.self_cull_cas_failures) {
        break;  // Self-cull: the ACS is saturated without us.
      }
    }
    backoff.Pause(rng);
  }
  fast_spinners_.fetch_sub(1, std::memory_order_relaxed);
  return acquired;
}

void LoiterLock::lock() {
  ThreadCtx& self = Self();
  if (FastPathSpin()) {
    owner_via_slow_ = false;
    fast_acquires_.fetch_add(1, std::memory_order_relaxed);
    if (recorder_ != nullptr) {
      recorder_->Record(self.id);
    }
    return;
  }

  // Slow path: queue on the inner MCS lock; its holder is the standby.
  inner_.lock();
  // Publish the generation before the ctx pointer (the release store) so
  // any reader that observes us also observes our gen.
  standby_gen_.store(self.slot_gen.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  standby_.store(&self, std::memory_order_release);

  const auto start = std::chrono::steady_clock::now();
  bool impatient = false;
  while (true) {
    if (TryOuter()) {
      break;
    }
    if (standby_grant_.load(std::memory_order_acquire) == kGrantGranted) {
      break;  // Direct handoff: the outer lock was never released.
    }
    if (!impatient && std::chrono::steady_clock::now() - start >= opts_.patience) {
      impatient = true;
      handoff_requested_.store(1, std::memory_order_release);
    }
    // Brief polite spin, then a timed park. The timed park bounds the cost
    // of any wake we lost to the deferred-unpark optimization.
    for (std::uint32_t i = 0; i < 256; ++i) {
      if (outer_.load(std::memory_order_relaxed) == kOuterFree ||
          standby_grant_.load(std::memory_order_relaxed) != kGrantWaiting) {
        break;
      }
      CpuRelax();
    }
    if (outer_.load(std::memory_order_relaxed) != kOuterFree &&
        standby_grant_.load(std::memory_order_relaxed) == kGrantWaiting) {
      if (self.parker.ParkFor(opts_.standby_park_slice)) {
        // A permit was consumed: the owner's wake-ahead hint (or the grant's
        // own unpark racing us). Re-spin (shared pacing with the other
        // parking waiters — see PostWakeRespin) so the coming release or
        // grant word is observed in userspace and the granter's unpark
        // collapses into a syscall-free permit post instead of a futex wake.
        PostWakeRespin(kMinPostWakeSpin, [&] {
          return outer_.load(std::memory_order_relaxed) == kOuterFree ||
                 standby_grant_.load(std::memory_order_relaxed) != kGrantWaiting;
        });
      }
    }
  }

  // We own the outer lock. Retire the standby role; we keep holding the
  // inner lock until our unlock so no new standby can race us.
  standby_.store(nullptr, std::memory_order_relaxed);
  standby_grant_.store(kGrantWaiting, std::memory_order_relaxed);
  handoff_requested_.store(0, std::memory_order_release);
  owner_via_slow_ = true;
  slow_acquires_.fetch_add(1, std::memory_order_relaxed);
  if (recorder_ != nullptr) {
    recorder_->Record(self.id);
  }
}

bool LoiterLock::try_lock() {
  if (TryOuter()) {
    owner_via_slow_ = false;
    fast_acquires_.fetch_add(1, std::memory_order_relaxed);
    if (recorder_ != nullptr) {
      recorder_->Record(Self().id);
    }
    return true;
  }
  return false;
}

void LoiterLock::PrepareHandover() {
  // Owner-only, like unlock(). The prediction mirrors unlock() read-only:
  // the sole parked thread this lock ever wakes directly is the standby, so
  // a fast-path owner hints it; a slow-path owner (which retired the
  // standby role and still holds the inner lock, so no new standby can
  // exist yet) instead pre-wakes the inner MCS successor its inner_.unlock()
  // is about to promote to standby.
  ThreadCtx* standby = standby_.load(std::memory_order_acquire);
  if (standby != nullptr) {
    // The standby stays standby until it owns the outer lock, which we
    // hold, so the generation-validated hint lands on the right tenancy.
    ParkerRef(standby, standby_gen_.load(std::memory_order_relaxed)).WakeAhead();
    return;
  }
  if (owner_via_slow_) {
    inner_.PrepareHandover();
  }
}

void LoiterLock::unlock() {
  const bool via_slow = owner_via_slow_;

  ThreadCtx* standby = standby_.load(std::memory_order_acquire);
  bool handed_off = false;
  if (standby != nullptr && handoff_requested_.load(std::memory_order_acquire) != 0) {
    // Anti-starvation direct handoff: the outer lock stays held; ownership
    // transfers to the standby via the grant word. The standby cannot have
    // left: it leaves only by owning the outer lock, which we hold.
    MALTHUS_FAILPOINT("loiter.handoff");
    const ParkerRef wake(standby, standby_gen_.load(std::memory_order_relaxed));
    // Release pairs with the standby's acquire load of the grant word: it
    // transfers the critical section.
    standby_grant_.store(kGrantGranted, std::memory_order_release);
    direct_handoffs_.fetch_add(1, std::memory_order_relaxed);
    wake.Unpark();
    handed_off = true;
  }
  if (!handed_off) {
    outer_.store(kOuterFree, std::memory_order_release);
    standby = standby_.load(std::memory_order_acquire);
    if (standby != nullptr) {
      const ParkerRef wake(standby, standby_gen_.load(std::memory_order_relaxed));
      bool skip_unpark = false;
      if (opts_.deferred_unpark) {
        // Defer briefly: a barging fast-path thread may take the lock, in
        // which case succession is delegated to it and the standby can stay
        // parked (it recovers via its timed park in the worst case).
        for (int i = 0; i < 64; ++i) {
          CpuRelax();
        }
        if (outer_.load(std::memory_order_acquire) != kOuterFree) {
          avoided_unparks_.fetch_add(1, std::memory_order_relaxed);
          skip_unpark = true;
        }
      }
      if (!skip_unpark) {
        wake.Unpark();
      }
    }
  }

  if (via_slow) {
    // Pass the standby role to the next slow-path waiter.
    inner_.unlock();
  }
}

}  // namespace malthus
