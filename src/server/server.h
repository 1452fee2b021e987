// KvServer — the multi-tenant request-serving front end over the repo's
// single-global-lock data structures, turning the paper's "overthreading
// collapses throughput" claim into a served-traffic SLO story.
//
// Pipeline:
//
//   open-loop arrivals (loadgen.h)
//        │ Submit()
//        ▼
//   AdmissionQueue ── tail drop at Submit, CoDel shed at dequeue ──▶ shed
//        │ Pop()
//        ▼
//   K = min(workers, max_inflight) worker threads, and no others
//        │
//        ▼
//   KvBackend (minidb / lru behind one Malthusian lock)
//
// Concurrency restriction at dispatch is a thread count: Start() runs
// K = min(workers, max_inflight) workers, so only K threads ever take the
// queue lock or reach the hot structure, and no surplus thread exists to
// park. A request therefore waits in one place, the queue, where CoDel and
// the bounded capacity see its whole wait and convert excess offered load
// into controlled shedding instead of unbounded queueing delay, so the p99
// of *served* requests stays flat as offered load sweeps past capacity.
//
// Every completed request lands in per-tenant log-bucket histograms:
// end-to-end (scheduled arrival → completion, coordinated-omission-safe)
// and service-only (dequeue → completion, i.e. lock wait + critical
// section).
//
// FailPoint sites (see docs/chaos.md): "server.admit" on the submit path,
// "server.shed" on every shed path, "server.dispatch" before the backend
// op.
#ifndef MALTHUS_SRC_SERVER_SERVER_H_
#define MALTHUS_SRC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/platform/align.h"
#include "src/server/admission_queue.h"
#include "src/server/backend.h"
#include "src/server/request.h"

namespace malthus {

struct KvServerOptions {
  // Worker pool size. Start() runs the smaller of `workers` and
  // `max_inflight` (K) threads.
  std::size_t workers = 4;
  std::size_t queue_capacity = 4096;

  // Queue management (CoDel at CoDelOptions' default target and interval).
  // Disabled = plain bounded FIFO: the "no admission control" arm, where
  // overload turns into queueing delay instead of shedding.
  bool codel_enabled = true;

  // K, the most requests ever in flight over the backend: Start() runs the
  // smaller of `workers` and K threads. 0 = EffectiveCpuCount(). K should
  // not exceed the CPUs the workers get: a worker preempted by another
  // busy thread on those CPUs stalls the others behind a FIFO lock handoff
  // to it (docs/server.md).
  std::uint32_t max_inflight = 0;

  // Backend selection (see backend.h). `backend_shards` applies to the
  // "sharded-*" structures: partition count for the ShardedTable layer
  // (0 = DefaultShardCount(), rounded up to a power of two).
  std::string structure = "minidb";
  std::string lock_name = "mcs-stp";
  std::size_t backend_shards = 0;

  std::uint32_t tenants = 1;
};

// Counter + percentile snapshot for one tenant (or the aggregate).
struct TenantStats {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t shed_queue_full = 0;  // tail-dropped at Submit
  std::uint64_t shed_codel = 0;       // shed by CoDel at dequeue
  // Always 0, kept for `kvbench/child.cc`; removable in the next
  // benchmark-defining change.
  std::uint64_t shed_gate_timeout = 0;
  std::uint64_t shed_at_stop = 0;  // still queued at Stop()
  std::uint64_t get_hits = 0;
  // Percentiles in nanoseconds.
  std::uint64_t e2e_p50 = 0, e2e_p90 = 0, e2e_p99 = 0, e2e_p999 = 0;
  std::uint64_t svc_p50 = 0, svc_p90 = 0, svc_p99 = 0, svc_p999 = 0;
  std::uint64_t e2e_max = 0;
  double e2e_mean = 0.0;

  std::uint64_t shed_total() const {
    return shed_queue_full + shed_codel + shed_at_stop;
  }
};

class KvServer {
 public:
  explicit KvServer(const KvServerOptions& opts);
  ~KvServer();
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Spawns min(workers, max_inflight) workers. Returns false if the
  // backend combination is unknown. Idempotent while running.
  bool Start();

  // Stops accepting work, joins the workers, and accounts still-queued
  // requests as shed_at_stop. Idempotent while stopped.
  void Stop();

  bool running() const { return running_; }

  // Open-loop entry point: never blocks. False = shed at the tail
  // (queue full), already counted against the tenant.
  bool Submit(const ServerRequest& request);

  // Snapshot of one tenant's counters + percentiles. Tenant ids are taken
  // modulo options().tenants on Submit, so any id is valid here.
  TenantStats StatsFor(std::uint32_t tenant) const;
  // Merged across tenants (histograms merged, then percentiles taken).
  TenantStats Aggregate() const;

  std::size_t QueueDepth() { return queue_.Size(); }
  // Always 0, kept for `kvbench/child.cc`; removable in the next
  // benchmark-defining change.
  std::size_t GateWaiters() const { return 0; }

  const KvServerOptions& options() const { return opts_; }
  KvBackend* backend() { return backend_.get(); }

 private:
  // Per-tenant accounting. Cache-line aligned: every worker hammers these
  // on every completion; adjacent tenants must not false-share.
  struct alignas(kCacheLineSize) Tenant {
    std::atomic<std::uint64_t> offered{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> shed_queue_full{0};
    std::atomic<std::uint64_t> shed_codel{0};
    std::atomic<std::uint64_t> shed_at_stop{0};
    std::atomic<std::uint64_t> get_hits{0};
    LatencyHistogram e2e;
    LatencyHistogram service;
  };

  void WorkerLoop();
  void ServeOne(const ServerRequest& request,
                std::chrono::steady_clock::time_point dequeued);
  Tenant& TenantRef(std::uint32_t tenant) const {
    return *tenants_[tenant % opts_.tenants];
  }
  static TenantStats SnapshotTenant(const Tenant& t);

  KvServerOptions opts_;
  AdmissionQueue queue_;
  std::unique_ptr<KvBackend> backend_;
  mutable std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<std::thread> workers_;
  bool running_ = false;
};

}  // namespace malthus

#endif  // MALTHUS_SRC_SERVER_SERVER_H_
