// Type-erased lock handle + a name-based factory.
//
// Benchmarks sweep lock algorithms by name ("mcs-s", "mcscr-stp", ...) the
// way the paper swept LD_PRELOAD interposition libraries; the factory is
// the moral equivalent of setting LD_PRELOAD. The virtual-call overhead is
// identical across algorithms, so relative comparisons are unaffected.
#ifndef MALTHUS_SRC_LOCKS_ANY_LOCK_H_
#define MALTHUS_SRC_LOCKS_ANY_LOCK_H_

#include <concepts>
#include <memory>
#include <string>
#include <vector>

#include "src/locks/handover_guard.h"
#include "src/metrics/admission_log.h"

namespace malthus {

class AnyLock {
 public:
  virtual ~AnyLock() = default;

  virtual void lock() = 0;
  virtual void unlock() = 0;
  virtual std::string name() const = 0;

  // Non-blocking acquire. Returns false both on contention and for
  // algorithms with no non-blocking path (CLH); LockAdapter overrides it
  // whenever the wrapped lock exposes try_lock.
  virtual bool try_lock() { return false; }

  // Anticipatory handover hint (see locks/handover_guard.h, re-exported
  // here so factory users get the whole opt-in surface from one include):
  // HandoverLockGuard<AnyLock> and PrepareHandoverIfSupported(any_lock)
  // dispatch through this virtual. A no-op for algorithms without
  // wake-ahead; every parking lock in the registry (mcs-stp, mcscr-stp,
  // mcscrn-stp, lifocr-stp, loiter, pthread-style) overrides it — see the
  // coverage matrix in docs/handover.md.
  virtual void PrepareHandover() {}

  // Attaches an admission recorder, if the algorithm supports one.
  virtual void set_recorder(AdmissionLog* /*recorder*/) {}
};

// Wraps any lock that satisfies BasicLockable (and optionally exposes
// set_recorder) into an AnyLock.
template <typename L>
class LockAdapter final : public AnyLock {
 public:
  explicit LockAdapter(std::string lock_name) : name_(std::move(lock_name)) {}
  template <typename... Args>
  LockAdapter(std::string lock_name, Args&&... args)
      : impl_(std::forward<Args>(args)...), name_(std::move(lock_name)) {}

  void lock() override { impl_.lock(); }
  void unlock() override { impl_.unlock(); }
  std::string name() const override { return name_; }

  bool try_lock() override {
    if constexpr (requires(L& l) { { l.try_lock() } -> std::convertible_to<bool>; }) {
      return impl_.try_lock();
    } else {
      return false;
    }
  }

  void PrepareHandover() override {
    if constexpr (requires(L& l) { l.PrepareHandover(); }) {
      impl_.PrepareHandover();
    }
  }

  void set_recorder(AdmissionLog* recorder) override {
    if constexpr (requires(L & l, AdmissionLog* r) { l.set_recorder(r); }) {
      impl_.set_recorder(recorder);
    }
  }

  L& impl() { return impl_; }

 private:
  L impl_;
  std::string name_;
};

// Creates a lock by registry name. Known names:
//   null, std, tas, ticket, clh, pthread-style,
//   mcs-s, mcs-stp, mcscr-s, mcscr-stp,
//   lifocr-s, lifocr-stp, loiter, mcscrn-s, mcscrn-stp
// Returns nullptr for unknown names.
std::unique_ptr<AnyLock> MakeLock(const std::string& name);

// All registry names, in a stable presentation order.
std::vector<std::string> AllLockNames();

// The paper's Figure-3 comparison set: MCS-S, MCS-STP, MCSCR-S, MCSCR-STP.
std::vector<std::string> PaperComparisonLockNames();

}  // namespace malthus

#endif  // MALTHUS_SRC_LOCKS_ANY_LOCK_H_
