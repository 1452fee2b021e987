// Harness: fixed-time driver mechanics, sweep helpers, median-of-K, and the
// table renderer.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "src/harness/fixed_time.h"
#include "src/harness/table.h"
#include "tests/contention.h"

namespace malthus {
namespace {

TEST(FixedTime, RunsForApproximatelyTheInterval) {
  BenchConfig config;
  config.threads = 2;
  config.duration = std::chrono::milliseconds(100);
  const BenchResult result = RunFixedTime(config, [](int) {});
  EXPECT_GE(result.wall_seconds, 0.08);
  EXPECT_LE(result.wall_seconds, 2.0);
  EXPECT_GT(result.total_iterations, 0u);
}

TEST(FixedTime, PerThreadCountsSumToTotal) {
  BenchConfig config;
  config.threads = 4;
  config.duration = std::chrono::milliseconds(50);
  const BenchResult result = RunFixedTime(config, [](int) {});
  std::uint64_t sum = 0;
  for (const auto c : result.per_thread_iterations) {
    sum += c;
  }
  EXPECT_EQ(sum, result.total_iterations);
  EXPECT_EQ(result.per_thread_iterations.size(), 4u);
}

TEST(FixedTime, BodySeesCorrectThreadIndices) {
  BenchConfig config;
  config.threads = 3;
  config.duration = std::chrono::milliseconds(30);
  std::atomic<int> bad{0};
  RunFixedTime(config, [&](int t) {
    if (t < 0 || t >= 3) {
      bad.fetch_add(1);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(FixedTime, ThroughputScalesWithParallelism) {
  // An embarrassingly parallel body must speed up with threads (loose 1.5x
  // bound to stay robust on loaded CI machines).
  if (test::SingleCpuHost()) {
    GTEST_SKIP() << "throughput cannot scale with threads on one effective CPU";
  }
  BenchConfig one;
  one.threads = 1;
  one.duration = std::chrono::milliseconds(100);
  auto body = [](int) {
    volatile int sink = 0;
    for (int i = 0; i < 200; ++i) {
      sink = sink + i;
    }
  };
  const double t1 = RunFixedTime(one, body).Throughput();
  BenchConfig four = one;
  four.threads = 4;
  const double t4 = RunFixedTime(four, body).Throughput();
  EXPECT_GT(t4, 1.5 * t1);
}

TEST(FixedTime, UsageDeltaPopulated) {
  BenchConfig config;
  config.threads = 2;
  config.duration = std::chrono::milliseconds(50);
  const BenchResult result = RunFixedTime(config, [](int) {});
  EXPECT_GT(result.usage.cpu_seconds, 0.0);
  EXPECT_GT(result.usage.CpuUtilization(), 0.0);
}

cpu_set_t ProcessAffinity() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  return mask;
}

// The `index`-th CPU set in `mask`, or -1.
int NthCpu(const cpu_set_t& mask, int index) {
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask) && index-- == 0) {
      return cpu;
    }
  }
  return -1;
}

// The affinity mask each worker of a `pin_threads` run executes its body
// under, read on the worker's first iteration.
std::vector<cpu_set_t> WorkerAffinities(int threads) {
  BenchConfig config;
  config.threads = threads;
  config.duration = std::chrono::milliseconds(50);
  config.pin_threads = true;
  std::vector<cpu_set_t> masks(static_cast<std::size_t>(threads));
  std::vector<char> seen(static_cast<std::size_t>(threads), 0);
  RunFixedTime(config, [&](int t) {
    const auto i = static_cast<std::size_t>(t);
    if (seen[i] == 0) {
      EXPECT_EQ(sched_getaffinity(0, sizeof(masks[i]), &masks[i]), 0);
      seen[i] = 1;
    }
  });
  for (int t = 0; t < threads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], 1) << "worker " << t << " never ran its body";
  }
  return masks;
}

TEST(FixedTime, PinsOneWorkerPerAllowedCpuWhileTheyFit) {
  const cpu_set_t process = ProcessAffinity();
  const int allowed = CPU_COUNT(&process);
  const std::vector<cpu_set_t> masks = WorkerAffinities(allowed);
  for (int t = 0; t < allowed; ++t) {
    const cpu_set_t& mask = masks[static_cast<std::size_t>(t)];
    EXPECT_EQ(CPU_COUNT(&mask), 1) << "worker " << t;
    // Round-robin: worker t runs on the t-th allowed CPU.
    EXPECT_TRUE(CPU_ISSET(NthCpu(process, t), &mask)) << "worker " << t;
  }
}

TEST(FixedTime, LeavesWorkersToTheSchedulerPastTheAllowedCpus) {
  // Pinned round-robin, the surplus worker would share a CPU with another
  // for the whole run; every worker must keep the process mask instead.
  const cpu_set_t process = ProcessAffinity();
  const int allowed = CPU_COUNT(&process);
  const std::vector<cpu_set_t> masks = WorkerAffinities(allowed + 1);
  for (int t = 0; t <= allowed; ++t) {
    EXPECT_TRUE(CPU_EQUAL(&masks[static_cast<std::size_t>(t)], &process)) << "worker " << t;
  }
}

TEST(MedianOfK, PicksTheMedianRun) {
  int call = 0;
  const BenchResult median = RunMedianOfK(3, [&] {
    BenchResult r;
    r.wall_seconds = 1.0;
    // Throughputs 10, 30, 20 -> median 20.
    r.total_iterations = (call == 0) ? 10u : (call == 1 ? 30u : 20u);
    ++call;
    return r;
  });
  EXPECT_EQ(median.total_iterations, 20u);
}

TEST(Sweep, CountsAreSortedUniqueAndCapped) {
  const auto counts = SweepThreadCounts(20);
  ASSERT_FALSE(counts.empty());
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_LT(counts[i - 1], counts[i]);
  }
  EXPECT_EQ(counts.back(), 20);
  EXPECT_EQ(counts.front(), 1);
}

TEST(Sweep, EnvOverridesDuration) {
  setenv("MALTHUS_BENCH_MS", "7", 1);
  EXPECT_EQ(DefaultBenchDuration(), std::chrono::milliseconds(7));
  unsetenv("MALTHUS_BENCH_MS");
  EXPECT_EQ(DefaultBenchDuration(), std::chrono::milliseconds(100));
}

TEST(Sweep, MalformedEnvFallsBack) {
  setenv("MALTHUS_BENCH_MS", "banana", 1);
  EXPECT_EQ(DefaultBenchDuration(), std::chrono::milliseconds(100));
  unsetenv("MALTHUS_BENCH_MS");
}

TEST(Table, RendersAlignedColumns) {
  TextTable table({"lock", "throughput"});
  table.AddRow({"mcs-s", "123"});
  table.AddRow({"mcscr-stp", "456789"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("lock"), std::string::npos);
  EXPECT_NE(out.find("mcscr-stp"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(TextTable::Num(42), "42");
  EXPECT_EQ(TextTable::Num(1.5), "1.500");
  EXPECT_EQ(TextTable::Num(2500000, true), "2.50M");
  EXPECT_EQ(TextTable::Num(1500, true), "1.5k");
}

}  // namespace
}  // namespace malthus
