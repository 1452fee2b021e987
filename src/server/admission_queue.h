// Bounded admission queue with CoDel queue management — the buffer between
// the open-loop arrival process and the worker pool.
//
// Arrivals tail-drop when the queue is full (the hard backstop bounding
// memory); dequeues consult the CoDel controller with the item's measured
// sojourn time, so a *standing* backlog — the signature of offered load
// beyond capacity — is shed at a controlled, increasing rate until queueing
// delay returns under target. Together the two mechanisms keep the queue
// short enough that served requests meet the latency SLO no matter how far
// offered load exceeds capacity; without them an open-loop overload grows
// the queue (and every request's sojourn) without bound.
//
// Plain FIFO + one spin lock + one condvar. The lock spins globally, so it
// must see few contenders: only KvServer's K workers pop and only the
// submitters push, which leaves the backend's lock as the interesting
// contention point.
//
// An idle consumer waits untimed on a strict-LIFO condvar (paper §6.10-6.11):
// the consumers are interchangeable, so each push wakes the one that parked
// last, whose CPU has been idle the shortest time (a shallower idle state,
// warmer caches), and no wait arms a kernel timer. Stop() alone releases
// blocked consumers.
#ifndef MALTHUS_SRC_SERVER_ADMISSION_QUEUE_H_
#define MALTHUS_SRC_SERVER_ADMISSION_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/core/cr_condvar.h"
#include "src/locks/tas.h"
#include "src/server/codel.h"
#include "src/server/request.h"

namespace malthus {

class AdmissionQueue {
 public:
  // With `codel_enabled`, dequeues consult a CoDel controller at
  // CoDelOptions' defaults (5 ms target, 100 ms interval).
  AdmissionQueue(std::size_t capacity, bool codel_enabled);
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // Enqueues unless the queue is at capacity (tail drop → false) or
  // stopped. Timestamps the enqueue for the sojourn measurement.
  bool TryPush(const ServerRequest& request);

  enum class PopStatus : std::uint8_t {
    kServe,    // item dequeued, sojourn under control — serve it
    kShed,     // item dequeued but CoDel says shed it (standing backlog)
    kStopped,  // Stop() was called — consumers should exit
  };
  struct PopResult {
    PopStatus status = PopStatus::kStopped;
    ServerRequest request{};
    std::chrono::nanoseconds sojourn{0};
  };

  // Blocks until an item arrives or Stop() is called. Returns kStopped
  // once Stop() has been called (remaining items are recovered via
  // DrainAll).
  PopResult Pop();

  // Wakes all blocked consumers and makes subsequent pops return kStopped.
  void Stop();

  // Re-arms a stopped queue (server restart). The owner must have drained
  // it first.
  void Restart();

  // Removes and returns everything still queued (teardown accounting).
  std::vector<ServerRequest> DrainAll();

  std::size_t Size();

 private:
  struct Item {
    ServerRequest request;
    std::chrono::steady_clock::time_point enqueued;
  };

  const std::size_t capacity_;
  const bool codel_enabled_;
  TtasLock lock_;
  CrCondVar not_empty_{CrCondVarOptions{.append_probability = 0}};
  std::deque<Item> items_;
  CoDel codel_;  // guarded by lock_ (consulted during pop)
  bool stopped_ = false;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_SERVER_ADMISSION_QUEUE_H_
