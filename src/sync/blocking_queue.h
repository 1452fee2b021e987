// Bounded blocking queue — the COZ producer_consumer construction (paper
// §6.7): one mutex, a pair of condition variables signalling not-empty /
// not-full, and a std::deque of values. Lock algorithm and condvar queue
// discipline are both pluggable, which is exactly the experiment: under a
// FIFO lock+condvar each conveyed message costs ~3 lock acquisitions
// (producers block on the full queue and reacquire); under CR the system
// settles into "fast flow" where threads wait on the mutex instead of the
// condvars and each message costs ~2 acquisitions.
#ifndef MALTHUS_SRC_SYNC_BLOCKING_QUEUE_H_
#define MALTHUS_SRC_SYNC_BLOCKING_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <deque>

#include "src/core/cr_condvar.h"

namespace malthus {

template <typename T, typename Lock>
class BoundedBlockingQueue {
 public:
  BoundedBlockingQueue(std::size_t capacity, const CrCondVarOptions& cv_opts)
      : capacity_(capacity), not_empty_(cv_opts), not_full_(cv_opts) {}
  explicit BoundedBlockingQueue(std::size_t capacity)
      : BoundedBlockingQueue(capacity, CrCondVarOptions{}) {}
  BoundedBlockingQueue(const BoundedBlockingQueue&) = delete;
  BoundedBlockingQueue& operator=(const BoundedBlockingQueue&) = delete;

  void Push(T value) {
    lock_.lock();
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    while (items_.size() >= capacity_) {
      futile_waits_.fetch_add(1, std::memory_order_relaxed);
      not_full_.Wait(lock_);
      lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    }
    items_.push_back(std::move(value));
    lock_.unlock();
    not_empty_.Signal();
  }

  T Pop() {
    lock_.lock();
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    while (items_.empty()) {
      not_empty_.Wait(lock_);
      lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    }
    T value = std::move(items_.front());
    items_.pop_front();
    lock_.unlock();
    not_full_.Signal();
    return value;
  }

  bool TryPop(T* out) {
    lock_.lock();
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    if (items_.empty()) {
      lock_.unlock();
      return false;
    }
    *out = std::move(items_.front());
    items_.pop_front();
    lock_.unlock();
    not_full_.Signal();
    return true;
  }

  std::size_t Size() {
    lock_.lock();
    const std::size_t s = items_.size();
    lock_.unlock();
    return s;
  }

  Lock& lock() { return lock_; }

  // Total mutex acquisitions and producer waits on the full queue — the
  // paper's per-message-cost diagnostics for Figure 10.
  std::uint64_t lock_acquisitions() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }
  std::uint64_t futile_waits() const { return futile_waits_.load(std::memory_order_relaxed); }

 private:
  const std::size_t capacity_;
  Lock lock_;
  CrCondVar not_empty_;
  CrCondVar not_full_;
  std::deque<T> items_;
  std::atomic<std::uint64_t> lock_acquisitions_{0};
  std::atomic<std::uint64_t> futile_waits_{0};
};

}  // namespace malthus

#endif  // MALTHUS_SRC_SYNC_BLOCKING_QUEUE_H_
