// Fixed-time-report-work benchmark driver (the paper's §6 methodology):
// spawn N concurrent threads, release them through a start barrier, run for
// a fixed measurement interval, and report the aggregate iterations
// completed — plus rusage deltas (voluntary context switches, CPU
// utilization) and the energy proxy for the Figure-4-style tables.
//
// The body callable is invoked once per iteration as body(thread_index);
// per-thread state lives in closures indexed by thread_index. Counters are
// cache-line padded. Median-of-K is provided by RunMedianOfK; dispersion
// (p10/p50/p90 across repetitions) by RunWithDispersion — on small hosts a
// single median hides scheduler-induced spread larger than the effects the
// benches exist to measure, so the tracked snapshots report all three.
//
// While a point runs at most as many workers as there are CPUs in the
// process affinity mask, the workers are pinned round-robin over those CPUs,
// one per CPU (MALTHUS_BENCH_PIN=0 disables): unpinned runs let the
// scheduler migrate spinners onto the owner's core mid-interval, which is
// the dominant variance source in bench_fig02/bench_abl_*.
// Past the CPU count the scheduler places the workers. Round-robin pinning
// would there do the opposite of its purpose: it would keep a spinner on
// the owner's or the heir's CPU for the whole interval, so an oversubscribed
// point would measure where the workers were pinned, not the lock.
//
// Environment knobs (all optional):
//   MALTHUS_BENCH_MS          — measurement interval per point (default 100)
//   MALTHUS_BENCH_REPS        — repetitions for median/dispersion (default 1)
//   MALTHUS_BENCH_MAXTHREADS  — cap on sweep thread counts (default 2×CPUs)
//   MALTHUS_BENCH_PIN         — pin worker threads to CPUs while they fit
//                               the allowed CPUs (default 1)
#ifndef MALTHUS_SRC_HARNESS_FIXED_TIME_H_
#define MALTHUS_SRC_HARNESS_FIXED_TIME_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/platform/align.h"
#include "src/platform/rusage.h"
#include "src/platform/sysinfo.h"

namespace malthus {

// Whether RunFixedTime pins worker threads (MALTHUS_BENCH_PIN, default on).
bool BenchPinningEnabled();

// Pins the calling thread to the `index`-th allowed CPU (round-robin over
// the process affinity mask). Best effort; a no-op on failure.
void PinThreadToCpuIndex(int index);

struct BenchConfig {
  int threads = 1;
  std::chrono::milliseconds duration{100};
  // Pin worker t to the t-th allowed CPU. Applies only while `threads` is at
  // most the number of allowed CPUs (LogicalCpuCount()); beyond that the
  // scheduler places the workers (see the file comment).
  bool pin_threads = BenchPinningEnabled();
};

struct BenchResult {
  std::uint64_t total_iterations = 0;
  double wall_seconds = 0.0;
  UsageDelta usage;
  std::vector<std::uint64_t> per_thread_iterations;

  double Throughput() const {
    return wall_seconds > 0 ? static_cast<double>(total_iterations) / wall_seconds : 0.0;
  }
};

// Sweep-direction helpers driven by environment variables.
std::chrono::milliseconds DefaultBenchDuration();
int DefaultBenchRepetitions();
int MaxSweepThreads();
// The paper's log-spaced X axis (1 2 5 10 20 50 100 200), clipped to `cap`
// and always including `cap` itself so the oversubscription cliff is
// visible at 2x the CPU count.
std::vector<int> SweepThreadCounts(int cap);

template <typename Body>
BenchResult RunFixedTime(const BenchConfig& config, Body&& body) {
  const int n = config.threads;
  const bool pin = config.pin_threads && n <= LogicalCpuCount();
  std::vector<CacheAligned<std::uint64_t>> counters(static_cast<std::size_t>(n));
  std::atomic<int> ready{0};
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      if (pin) {
        PinThreadToCpuIndex(t);
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        body(t);
        ++local;
      }
      *counters[static_cast<std::size_t>(t)] = local;
    });
  }

  while (ready.load(std::memory_order_acquire) != n) {
    std::this_thread::yield();
  }
  const UsageSnapshot usage_begin = CaptureUsage();
  const auto wall_begin = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(config.duration);
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }
  const auto wall_end = std::chrono::steady_clock::now();
  const UsageSnapshot usage_end = CaptureUsage();

  BenchResult result;
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_begin).count();
  result.usage = DiffUsage(usage_begin, usage_end, result.wall_seconds);
  result.per_thread_iterations.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const std::uint64_t c = *counters[static_cast<std::size_t>(t)];
    result.per_thread_iterations.push_back(c);
    result.total_iterations += c;
  }
  return result;
}

// Throughput dispersion across repetitions of one benchmark point.
// Medians alone are misleading exactly where this library operates: on an
// oversubscribed host the same point can legitimately run 2-5x apart
// depending on where the scheduler lands the owner, and a reader comparing
// two medians cannot tell a real regression from that spread.
struct DispersionStats {
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  int reps = 0;
};

// Runs `make_result()` `reps` times; returns the median-throughput run and
// fills `stats` with the nearest-rank p10/p50/p90 of throughput across the
// repetitions.
template <typename MakeResult>
BenchResult RunWithDispersion(int reps, MakeResult&& make_result, DispersionStats* stats) {
  reps = std::max(reps, 1);
  std::vector<BenchResult> results;
  results.reserve(static_cast<std::size_t>(reps));
  std::vector<double> throughputs;
  throughputs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    results.push_back(make_result());
    throughputs.push_back(results.back().Throughput());
  }
  std::vector<std::size_t> order(results.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return throughputs[a] < throughputs[b]; });
  if (stats != nullptr) {
    const auto at_percentile = [&](double p) {
      const auto rank = static_cast<std::size_t>(p * static_cast<double>(order.size() - 1) + 0.5);
      return throughputs[order[rank]];
    };
    stats->p10 = at_percentile(0.10);
    stats->p50 = at_percentile(0.50);
    stats->p90 = at_percentile(0.90);
    stats->reps = reps;
  }
  return results[order[order.size() / 2]];
}

// Runs `make_result()` `reps` times and returns the run with the median
// throughput.
template <typename MakeResult>
BenchResult RunMedianOfK(int reps, MakeResult&& make_result) {
  return RunWithDispersion(reps, std::forward<MakeResult>(make_result), nullptr);
}

}  // namespace malthus

#endif  // MALTHUS_SRC_HARNESS_FIXED_TIME_H_
