// Scope-guard opt-in for anticipatory handover (wake-ahead, §5.2).
//
// The §5.2 cost model: granting a lock to a *spinning* successor costs
// ~100 ns, granting to a *parked* successor costs a kernel wake of 30000+
// cycles — accrued while the lock is logically held. Locks in this library
// therefore expose PrepareHandover(): the owner calls it near the end of
// its critical section, the lock posts the predicted heir's wake permit,
// and by the time unlock() flips the grant flag the heir is runnable (or
// back to spinning) — the kernel wake has been hidden behind the tail of
// the critical section, and the grant itself needs no syscall.
//
// HandoverLockGuard is the drop-in way to opt a call site in: it is a
// std::lock_guard whose destructor fires PrepareHandover() immediately
// before unlock(). That placement yields the minimum overlap (everything
// after the caller's last statement), which already moves the wake syscall
// off the post-release path; call sites that know their critical-section
// tail can instead invoke PrepareHandover() manually even earlier.
//
// Both the guard and PrepareHandoverIfSupported() degrade to no-ops for
// locks without wake-ahead (pure spin policies, std::mutex, ...), so
// generic code can adopt them unconditionally.
#ifndef MALTHUS_SRC_LOCKS_HANDOVER_GUARD_H_
#define MALTHUS_SRC_LOCKS_HANDOVER_GUARD_H_

namespace malthus {

// Calls lock.PrepareHandover() if the lock provides it; no-op otherwise.
template <typename Lock>
inline void PrepareHandoverIfSupported(Lock& lock) {
  if constexpr (requires { lock.PrepareHandover(); }) {
    lock.PrepareHandover();
  }
}

template <typename Lock>
class HandoverLockGuard {
 public:
  explicit HandoverLockGuard(Lock& lock) : lock_(lock) { lock_.lock(); }
  HandoverLockGuard(const HandoverLockGuard&) = delete;
  HandoverLockGuard& operator=(const HandoverLockGuard&) = delete;

  ~HandoverLockGuard() {
    PrepareHandoverIfSupported(lock_);
    lock_.unlock();
  }

 private:
  Lock& lock_;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_LOCKS_HANDOVER_GUARD_H_
