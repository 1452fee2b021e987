// Overthreaded server: the paper's motivating scenario. A "server" spawns
// far more worker threads than the shared session table needs; each request
// takes the table lock (CS) then does private work (NCS). With a FIFO MCS
// lock, every worker churns through the lock and the aggregate working set
// thrashes; MalthusianMutex passivates the surplus workers, keeping
// throughput up and CPU consumption down while long-term fairness keeps all
// workers alive. The last line prints the measured CR / MCS-STP ratios of
// request rate and CPU; how they come out depends on the host.
//
//   build/examples/overthreaded_server [workers] [seconds]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/core/mcscr.h"
#include "src/harness/fixed_time.h"
#include "src/locks/any_lock.h"
#include "src/locks/mcs.h"
#include "src/metrics/admission_log.h"
#include "src/platform/sysinfo.h"
#include "src/rng/xorshift.h"

namespace {

struct SessionTable {
  std::vector<std::uint64_t> slots = std::vector<std::uint64_t>(1 << 16, 0);

  void Touch(malthus::XorShift64& rng) {
    for (int i = 0; i < 64; ++i) {
      slots[rng.NextBelow(slots.size())] += 1;
    }
  }
};

struct Served {
  double req_per_s;
  double cpu_x;
};

template <typename Lock>
Served ServeRequests(const char* label, int workers, std::chrono::milliseconds duration) {
  Lock table_lock;
  malthus::AdmissionLog log;
  table_lock.set_recorder(&log);
  SessionTable table;
  std::vector<std::vector<std::uint64_t>> scratch(
      static_cast<std::size_t>(workers), std::vector<std::uint64_t>(1 << 15, 1));

  malthus::BenchConfig config;
  config.threads = workers;
  config.duration = duration;
  std::atomic<std::uint64_t> sink{0};
  const malthus::BenchResult result = malthus::RunFixedTime(config, [&](int t) {
    malthus::XorShift64& rng = malthus::ThreadLocalRng();
    table_lock.lock();
    table.Touch(rng);
    table_lock.unlock();
    std::uint64_t sum = 0;
    auto& mine = scratch[static_cast<std::size_t>(t)];
    for (int i = 0; i < 256; ++i) {
      sum += mine[rng.NextBelow(mine.size())];
    }
    sink.fetch_add(sum, std::memory_order_relaxed);
  });

  const malthus::FairnessReport fairness = log.Report();
  std::printf("%-18s  %9.0f req/s   cpu %5.1fx   avgLWSS %5.1f   MTTR %4.0f   gini %.3f\n",
              label, result.Throughput(), result.usage.CpuUtilization(),
              fairness.average_lwss, fairness.mttr, fairness.gini);
  return {result.Throughput(), result.usage.CpuUtilization()};
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = argc > 1 ? std::atoi(argv[1]) : 3 * malthus::LogicalCpuCount();
  const int seconds = argc > 2 ? std::atoi(argv[2]) : 2;
  std::printf("overthreaded server: %d workers on %d logical CPUs, %ds per lock\n\n", workers,
              malthus::LogicalCpuCount(), seconds);
  const auto duration = std::chrono::seconds(seconds);
  ServeRequests<malthus::McsSpinLock>("mcs-s (FIFO)", workers, duration);
  const Served fifo = ServeRequests<malthus::McsStpLock>("mcs-stp (FIFO)", workers, duration);
  const Served cr = ServeRequests<malthus::MalthusianMutex>("malthusian (CR)", workers, duration);
  std::printf("\nmalthusian / mcs-stp: %.2fx the request rate at %.2fx the CPU\n",
              cr.req_per_s / fifo.req_per_s, cr.cpu_x / fifo.cpu_x);
  return 0;
}
