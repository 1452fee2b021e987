#include "src/server/admission_queue.h"

namespace malthus {

AdmissionQueue::AdmissionQueue(std::size_t capacity, bool codel_enabled)
    : capacity_(capacity), codel_enabled_(codel_enabled) {}

bool AdmissionQueue::TryPush(const ServerRequest& request) {
  const auto now = std::chrono::steady_clock::now();
  lock_.lock();
  if (stopped_ || items_.size() >= capacity_) {
    lock_.unlock();
    return false;
  }
  items_.push_back(Item{request, now});
  lock_.unlock();
  not_empty_.Signal();
  return true;
}

AdmissionQueue::PopResult AdmissionQueue::Pop() {
  lock_.lock();
  not_empty_.Wait(lock_, [this] { return stopped_ || !items_.empty(); });
  if (stopped_) {
    // Remaining items are drained (and accounted) by the owner via
    // DrainAll(); consumers just leave.
    lock_.unlock();
    return PopResult{PopStatus::kStopped, {}, {}};
  }
  Item item = items_.front();
  items_.pop_front();
  const auto now = std::chrono::steady_clock::now();
  const auto sojourn = now - item.enqueued;
  bool shed = false;
  if (codel_enabled_) {
    shed = codel_.OnDequeue(sojourn, now.time_since_epoch());
  }
  lock_.unlock();
  return PopResult{shed ? PopStatus::kShed : PopStatus::kServe, item.request,
                   sojourn};
}

void AdmissionQueue::Stop() {
  lock_.lock();
  stopped_ = true;
  lock_.unlock();
  not_empty_.Broadcast();
}

void AdmissionQueue::Restart() {
  lock_.lock();
  stopped_ = false;
  lock_.unlock();
}

std::vector<ServerRequest> AdmissionQueue::DrainAll() {
  std::vector<ServerRequest> out;
  lock_.lock();
  out.reserve(items_.size());
  for (const Item& item : items_) {
    out.push_back(item.request);
  }
  items_.clear();
  lock_.unlock();
  return out;
}

std::size_t AdmissionQueue::Size() {
  lock_.lock();
  const std::size_t s = items_.size();
  lock_.unlock();
  return s;
}

}  // namespace malthus
