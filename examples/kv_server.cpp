// KV server demo: the full request-serving pipeline end to end. An
// open-loop Poisson generator offers Zipf-skewed multi-tenant traffic at a
// configurable fraction of measured capacity; the server serves the LRU
// backend from a bounded admission queue and prints per-tenant served/shed
// counts with end-to-end and service-only latency percentiles.
//
// Run it twice to see the SLO story (docs/server.md):
//
//   build/kv_server 1.5 on     # CPUs - 1 workers, CoDel: p99 stays bounded
//   build/kv_server 1.5 off    # 4x CPUs workers, deep FIFO: p99 inflates
//
//   build/kv_server [rate_multiple] [on|off] [lock] [seconds]
//
// `lock` is one of the backend's locks: mcs-stp or mcscr-stp (the
// default).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/platform/sysinfo.h"
#include "src/server/loadgen.h"
#include "src/server/server.h"

using namespace malthus;
using namespace std::chrono_literals;

namespace {

KvServerOptions Config(const std::string& lock, bool admission) {
  KvServerOptions opts;
  opts.lock_name = lock;
  opts.structure = "lru";
  opts.workers = static_cast<std::size_t>(std::max(2, EffectiveCpuCount())) * 4;
  // Admission on runs CPUs - 1 workers: the generator busy-waits on one of
  // the server's CPUs, so leave it that CPU and no worker is preempted by
  // it. Off runs the whole oversubscribed pool.
  opts.max_inflight =
      admission ? static_cast<std::uint32_t>(std::max(1, EffectiveCpuCount() - 1))
                : static_cast<std::uint32_t>(opts.workers);
  opts.tenants = 3;
  opts.codel_enabled = admission;
  opts.queue_capacity = admission ? 4096 : (1u << 16);
  return opts;
}

double MeasureCapacity(const std::string& lock) {
  KvServer server(Config(lock, /*admission=*/true));
  if (!server.Start()) {
    return 0.0;
  }
  LoadGenOptions load;
  load.rate_per_sec = 500000.0;
  load.duration = 400ms;
  load.tenants = 3;
  LoadGenerator gen(load);
  const LoadGenStats stats = gen.Run(server);
  server.Stop();
  const double seconds =
      std::chrono::duration<double>(stats.actual_duration).count();
  return seconds > 0
             ? static_cast<double>(server.Aggregate().served) / seconds
             : 0.0;
}

void PrintTenant(const char* label, const TenantStats& s) {
  std::printf(
      "%-10s offered %8llu  served %8llu  shed %7llu "
      "(full %llu, codel %llu)\n"
      "           e2e   p50 %8.1f us  p90 %8.1f us  p99 %8.1f us  "
      "p99.9 %8.1f us\n"
      "           svc   p50 %8.1f us  p99 %8.1f us\n",
      label, static_cast<unsigned long long>(s.offered),
      static_cast<unsigned long long>(s.served),
      static_cast<unsigned long long>(s.shed_total()),
      static_cast<unsigned long long>(s.shed_queue_full),
      static_cast<unsigned long long>(s.shed_codel),
      s.e2e_p50 / 1000.0, s.e2e_p90 / 1000.0, s.e2e_p99 / 1000.0,
      s.e2e_p999 / 1000.0, s.svc_p50 / 1000.0, s.svc_p99 / 1000.0);
}

}  // namespace

int main(int argc, char** argv) {
  const double multiple = argc > 1 ? std::atof(argv[1]) : 1.5;
  const bool admission = argc > 2 ? (std::strcmp(argv[2], "off") != 0) : true;
  const std::string lock = argc > 3 ? argv[3] : "mcscr-stp";
  const int seconds = argc > 4 ? std::atoi(argv[4]) : 2;

  std::printf("calibrating capacity (lock=%s)...\n", lock.c_str());
  const double capacity = MeasureCapacity(lock);
  if (capacity <= 0.0) {
    std::fprintf(stderr, "unknown lock or backend: %s\n", lock.c_str());
    return 1;
  }
  std::printf("capacity ~ %.0f req/s; offering %.2fx = %.0f req/s, "
              "admission %s\n\n",
              capacity, multiple, capacity * multiple,
              admission ? "ON (CPUs - 1 workers + CoDel)"
                        : "OFF (4x CPUs workers, deep FIFO)");

  KvServer server(Config(lock, admission));
  if (!server.Start()) {
    return 1;
  }
  LoadGenOptions load;
  load.rate_per_sec = capacity * multiple;
  load.duration = std::chrono::seconds(seconds);
  load.tenants = 3;
  load.tenant_weights = {6.0, 3.0, 1.0};  // skewed tenants
  load.zipf_theta = 0.99;
  LoadGenerator gen(load);
  const LoadGenStats stats = gen.Run(server);

  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (server.QueueDepth() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  server.Stop();

  for (std::uint32_t t = 0; t < 3; ++t) {
    char label[16];
    std::snprintf(label, sizeof(label), "tenant %u", t);
    PrintTenant(label, server.StatsFor(t));
  }
  std::printf("\n");
  PrintTenant("aggregate", server.Aggregate());
  std::printf("\ngenerator: offered %.0f req/s over %.2f s, max lag %.1f ms\n",
              stats.OfferedRate(),
              std::chrono::duration<double>(stats.actual_duration).count(),
              std::chrono::duration<double, std::milli>(stats.max_lag).count());
  return 0;
}
