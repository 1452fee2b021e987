#include "src/server/server.h"

#include <algorithm>

#include "src/chaos/failpoint.h"
#include "src/platform/sysinfo.h"
#include "src/platform/thread_registry.h"

namespace malthus {

KvServer::KvServer(const KvServerOptions& opts)
    : opts_(opts), queue_(opts.queue_capacity, opts.codel_enabled) {
  if (opts_.tenants == 0) {
    opts_.tenants = 1;
  }
  tenants_.reserve(opts_.tenants);
  for (std::uint32_t i = 0; i < opts_.tenants; ++i) {
    tenants_.push_back(std::make_unique<Tenant>());
  }
}

KvServer::~KvServer() { Stop(); }

bool KvServer::Start() {
  if (running_) {
    return true;
  }
  backend_ = MakeBackend(opts_.structure, opts_.lock_name, opts_.backend_shards);
  if (backend_ == nullptr) {
    return false;
  }
  queue_.Restart();
  // The pool is the concurrency restriction: K workers, and no surplus.
  const std::size_t k =
      opts_.max_inflight != 0
          ? opts_.max_inflight
          : static_cast<std::size_t>(EffectiveCpuCount());
  const std::size_t n = std::min(opts_.workers, k);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  running_ = true;
  return true;
}

void KvServer::Stop() {
  if (!running_) {
    return;
  }
  queue_.Stop();
  for (std::thread& w : workers_) {
    w.join();
  }
  workers_.clear();
  for (const ServerRequest& r : queue_.DrainAll()) {
    TenantRef(r.tenant).shed_at_stop.fetch_add(1, std::memory_order_relaxed);
  }
  running_ = false;
}

bool KvServer::Submit(const ServerRequest& request) {
  MALTHUS_FAILPOINT("server.admit");
  Tenant& t = TenantRef(request.tenant);
  t.offered.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.TryPush(request)) {
    MALTHUS_FAILPOINT("server.shed");
    t.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void KvServer::WorkerLoop() {
  for (;;) {
    const AdmissionQueue::PopResult res = queue_.Pop();
    if (res.status == AdmissionQueue::PopStatus::kStopped) {
      break;
    }
    if (res.status == AdmissionQueue::PopStatus::kShed) {
      // Standing backlog: CoDel converted this request into a controlled
      // shed instead of letting it (and everything behind it) blow the SLO.
      MALTHUS_FAILPOINT("server.shed");
      TenantRef(res.request.tenant)
          .shed_codel.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ServeOne(res.request, std::chrono::steady_clock::now());
  }
}

void KvServer::ServeOne(const ServerRequest& request,
                        std::chrono::steady_clock::time_point dequeued) {
  MALTHUS_FAILPOINT("server.dispatch");
  Tenant& t = TenantRef(request.tenant);
  // The worker's dense thread id rides into the backend so cache-style
  // structures can attribute displacement (footnote 33): who evicted whose
  // entry is meaningful only if every server worker passes its real tid.
  const std::uint32_t tid = Self().id;
  std::uint64_t value = 0;
  if (request.op == ServerRequest::Op::kGet) {
    if (backend_->Get(request.key, &value, tid)) {
      t.get_hits.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    backend_->Put(request.key, request.value, tid);
  }
  const auto end = std::chrono::steady_clock::now();
  const auto e2e = end - request.arrival;
  const auto service = end - dequeued;
  t.e2e.Record(e2e.count() > 0 ? static_cast<std::uint64_t>(e2e.count()) : 0);
  t.service.Record(
      service.count() > 0 ? static_cast<std::uint64_t>(service.count()) : 0);
  t.served.fetch_add(1, std::memory_order_relaxed);
}

TenantStats KvServer::SnapshotTenant(const Tenant& t) {
  TenantStats s;
  s.offered = t.offered.load(std::memory_order_relaxed);
  s.served = t.served.load(std::memory_order_relaxed);
  s.shed_queue_full = t.shed_queue_full.load(std::memory_order_relaxed);
  s.shed_codel = t.shed_codel.load(std::memory_order_relaxed);
  s.shed_at_stop = t.shed_at_stop.load(std::memory_order_relaxed);
  s.get_hits = t.get_hits.load(std::memory_order_relaxed);
  s.e2e_p50 = t.e2e.Percentile(50);
  s.e2e_p90 = t.e2e.Percentile(90);
  s.e2e_p99 = t.e2e.Percentile(99);
  s.e2e_p999 = t.e2e.Percentile(99.9);
  s.svc_p50 = t.service.Percentile(50);
  s.svc_p90 = t.service.Percentile(90);
  s.svc_p99 = t.service.Percentile(99);
  s.svc_p999 = t.service.Percentile(99.9);
  s.e2e_max = t.e2e.Max();
  s.e2e_mean = t.e2e.Mean();
  return s;
}

TenantStats KvServer::StatsFor(std::uint32_t tenant) const {
  return SnapshotTenant(TenantRef(tenant));
}

TenantStats KvServer::Aggregate() const {
  Tenant merged;
  TenantStats s;
  for (const auto& t : tenants_) {
    s.offered += t->offered.load(std::memory_order_relaxed);
    s.served += t->served.load(std::memory_order_relaxed);
    s.shed_queue_full += t->shed_queue_full.load(std::memory_order_relaxed);
    s.shed_codel += t->shed_codel.load(std::memory_order_relaxed);
    s.shed_at_stop += t->shed_at_stop.load(std::memory_order_relaxed);
    s.get_hits += t->get_hits.load(std::memory_order_relaxed);
    merged.e2e.Merge(t->e2e);
    merged.service.Merge(t->service);
  }
  s.e2e_p50 = merged.e2e.Percentile(50);
  s.e2e_p90 = merged.e2e.Percentile(90);
  s.e2e_p99 = merged.e2e.Percentile(99);
  s.e2e_p999 = merged.e2e.Percentile(99.9);
  s.svc_p50 = merged.service.Percentile(50);
  s.svc_p90 = merged.service.Percentile(90);
  s.svc_p99 = merged.service.Percentile(99);
  s.svc_p999 = merged.service.Percentile(99.9);
  s.e2e_max = merged.e2e.Max();
  s.e2e_mean = merged.e2e.Mean();
  return s;
}

}  // namespace malthus
