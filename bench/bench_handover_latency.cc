// §5.2 lock handover latency: the time from thread A's unlock() entry to
// waiting thread B's return from lock(). The paper's design discussion
// turns on this number: handoff to a *spinning* successor costs ~100 ns;
// handoff to a *parked* successor costs a kernel wake (the paper quotes
// 30000+ cycles best case), and those cycles accrue while the lock is
// logically held — which is why FIFO+parking collapses and why CR keeps
// the heir spinning.
//
// Method: two threads ping-pong over the lock; the releasing side
// timestamps immediately before unlock() and the acquiring side immediately
// after lock() returns; the median gap over many handovers is reported,
// along with the median cost of the unlock() call itself (the portion of
// the handover accrued while the lock is logically held). `parked` variants
// force the waiter to park (spin budget 0) to expose the kernel-wake cost.
//
// `wakeahead` variants call PrepareHandover() from inside the hold: for the
// queue locks (MCS family) at the *top* of the hold — their waiters stay
// enqueued across handovers, so the heir is already predictable there and
// the overlap is maximal; for the competitive-succession locks (LOITER,
// pthread-style) *immediately before unlock* — their waiters only enqueue
// after failing against the held lock, so a top-of-hold hint fires into an
// empty queue (this is also exactly where HandoverLockGuard fires). Either
// way the kernel wake overlaps the critical section and the grant itself
// needs no syscall. The per-variant futex-traffic counters (kernel_wakes /
// elided_wakes / wake_aheads / kernel_parks, as deltas per round and per
// *parked* round) show the mechanism working; the per-parked-round wake
// figure is the §5.2 quantity wake-ahead exists to drive to ~0 beyond the
// single in-hold hint wake.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/core/loiter.h"
#include "src/locks/handover_guard.h"

namespace {

using namespace malthus;
using namespace malthus::bench;

using Clock = std::chrono::steady_clock;

// When and whether the owner posts the heir's wake permit during the hold.
enum class Hint { kNone, kTopOfHold, kBeforeUnlock };

// Spin budget argument meaning "don't pin": the lock keeps its default,
// SeedSpinBudget().
constexpr std::uint32_t kLockDefaultBudget = UINT32_MAX;

struct HandoverStats {
  double median_handover_ns = 0.0;
  double p10_handover_ns = 0.0;
  double p90_handover_ns = 0.0;
  double median_unlock_ns = 0.0;
  double gap_samples = 0.0;
  // Main-side rounds whose acquisition went through the park phase (kernel
  // block or consumed permit) — the denominator for per-parked-round rates.
  double parked_rounds = 0.0;
};

// Nearest-rank percentile; p in [0, 1]. Sorts in place.
double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[rank];
}

double Median(std::vector<double>& v) { return Percentile(v, 0.5); }

// When `require_parked` is set, a round contributes samples only if the
// acquiring side actually entered the park phase of its wait (it consumed a
// permit or blocked in the kernel). The ping-pong is scheduler-coupled: on
// small machines it can slip into a decoupled mode where most acquisitions
// are uncontended, and unfiltered medians would then measure re-acquisition
// of a free lock rather than §5.2 handover.
template <typename Lock>
HandoverStats MeasureHandover(Lock& lock, int rounds, Hint hint, bool require_parked) {
  std::atomic<std::int64_t> release_stamp{0};
  std::vector<double> gaps;
  std::vector<double> unlock_costs;
  gaps.reserve(static_cast<std::size_t>(rounds));
  unlock_costs.reserve(static_cast<std::size_t>(rounds));
  std::atomic<bool> done{false};
  std::uint64_t parked_rounds = 0;

  std::thread partner([&] {
    while (!done.load(std::memory_order_acquire)) {
      lock.lock();
      const std::int64_t sent = release_stamp.load(std::memory_order_acquire);
      benchmark::DoNotOptimize(sent);
      if (hint == Hint::kTopOfHold) {
        // Maximal overlap between the heir's kernel wakeup and our
        // remaining critical section.
        PrepareHandoverIfSupported(lock);
      }
      // Hold briefly so the main thread queues up behind us.
      for (int i = 0; i < 2000; ++i) {
        CpuRelax();
      }
      if (hint == Hint::kBeforeUnlock) {
        // Guard placement: for competitive-succession locks the heir only
        // enqueues after failing against the held lock, so this is the
        // earliest point at which it is reliably predictable.
        PrepareHandoverIfSupported(lock);
      }
      release_stamp.store(Clock::now().time_since_epoch().count(), std::memory_order_release);
      lock.unlock();
    }
  });

  Parker& self_parker = Self().parker;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t parks_before = self_parker.kernel_waits() + self_parker.fast_path_parks();
    lock.lock();
    const auto now = Clock::now().time_since_epoch().count();
    // Did this acquisition go through the park phase (kernel block or
    // consumed permit)? Distinguishes real parked handovers from grabs of a
    // momentarily free lock.
    const bool parked_round =
        self_parker.kernel_waits() + self_parker.fast_path_parks() > parks_before;
    parked_rounds += parked_round ? 1 : 0;
    const std::int64_t sent = release_stamp.load(std::memory_order_acquire);
    if (sent != 0 && now > sent && (!require_parked || parked_round)) {
      gaps.push_back(static_cast<double>(now - sent));
    }
    if (hint == Hint::kTopOfHold) {
      PrepareHandoverIfSupported(lock);
    }
    for (int i = 0; i < 2000; ++i) {
      CpuRelax();
    }
    if (hint == Hint::kBeforeUnlock) {
      PrepareHandoverIfSupported(lock);
    }
    release_stamp.store(0, std::memory_order_relaxed);
    const auto unlock_begin = Clock::now();
    lock.unlock();
    const auto unlock_end = Clock::now();
    if (!require_parked || parked_round) {
      unlock_costs.push_back(
          static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  unlock_end - unlock_begin)
                                  .count()));
    }
    // Brief pause so the partner (not us) is the next owner.
    for (int i = 0; i < 4000; ++i) {
      CpuRelax();
    }
  }
  done.store(true, std::memory_order_release);
  partner.join();

  // Dispersion, not just the median: on small hosts the handover-gap p90
  // can sit orders of magnitude above the p10 (a preempted wake costs a
  // scheduling quantum), and the spread is itself the phenomenon §5.2 is
  // about.
  return HandoverStats{Median(gaps),
                       Percentile(gaps, 0.10),
                       Percentile(gaps, 0.90),
                       Median(unlock_costs),
                       static_cast<double>(gaps.size()),
                       static_cast<double>(parked_rounds)};
}

template <typename Lock>
void HandoverPoint(benchmark::State& state, std::uint32_t spin_budget, Hint hint,
                   int rounds = 2000, void (*configure)(Lock&) = nullptr) {
  for (auto _ : state) {
    Lock lock;
    if constexpr (requires(Lock& l, std::uint32_t b) { l.set_spin_budget(b); }) {
      if (spin_budget != kLockDefaultBudget) {
        lock.set_spin_budget(spin_budget);
      }
    }
    if (configure != nullptr) {
      configure(lock);
    }
    // Forced-park variants measure §5.2 parked handover; only rounds with a
    // real parked wait count.
    const bool require_parked = spin_budget == 0;
    const std::uint64_t parks_before = TotalKernelParks();
    const std::uint64_t wakes_before = TotalKernelWakes();
    const std::uint64_t elided_before = TotalElidedKernelWakes();
    const std::uint64_t aheads_before = TotalWakeAheads();
    const HandoverStats stats = MeasureHandover(lock, rounds, hint, require_parked);
    const double per_round = 1.0 / static_cast<double>(rounds);
    state.counters["median_handover_ns"] = stats.median_handover_ns;
    state.counters["handover_ns_p10"] = stats.p10_handover_ns;
    state.counters["handover_ns_p90"] = stats.p90_handover_ns;
    state.counters["median_unlock_ns"] = stats.median_unlock_ns;
    state.counters["gap_samples"] = stats.gap_samples;
    state.counters["parked_rounds"] = stats.parked_rounds;
    state.counters["kernel_parks_per_round"] =
        static_cast<double>(TotalKernelParks() - parks_before) * per_round;
    state.counters["kernel_wakes_per_round"] =
        static_cast<double>(TotalKernelWakes() - wakes_before) * per_round;
    state.counters["elided_wakes_per_round"] =
        static_cast<double>(TotalElidedKernelWakes() - elided_before) * per_round;
    state.counters["wake_aheads_per_round"] =
        static_cast<double>(TotalWakeAheads() - aheads_before) * per_round;
    // The §5.2 figure of merit: kernel wakes per handover that actually
    // went through the park phase. A wake-at-release design pays ~1 here;
    // a coupled wake-ahead steady state pays ~0 (the hint's wake either
    // collapses into a pending permit or lands inside the hold).
    const double per_parked = 1.0 / std::max(stats.parked_rounds, 1.0);
    state.counters["kernel_wakes_per_parked_round"] =
        static_cast<double>(TotalKernelWakes() - wakes_before) * per_parked;
  }
}

void RegisterAll() {
  const Hint kPlain = Hint::kNone;
  const Hint kWakeAhead = Hint::kTopOfHold;       // Queue locks: heir known early.
  const Hint kWakeAheadLate = Hint::kBeforeUnlock;  // Competitive locks.
  // TAS handover under competitive succession interacts with randomized
  // backoff, making individual rounds slow; fewer rounds keep the suite
  // quick while the median stays stable.
  benchmark::RegisterBenchmark(
      "Handover/tas",
      [=](benchmark::State& s) { HandoverPoint<TtasLock>(s, kLockDefaultBudget, kPlain, 100); })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/mcs-s",
      [=](benchmark::State& s) { HandoverPoint<McsSpinLock>(s, kLockDefaultBudget, kPlain); })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/mcs-stp-spinning",
      [=](benchmark::State& s) { HandoverPoint<McsStpLock>(s, kLockDefaultBudget, kPlain); })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/mcs-stp-spinning-wakeahead",
      [=](benchmark::State& s) { HandoverPoint<McsStpLock>(s, kLockDefaultBudget, kWakeAhead); })
      ->Iterations(1);
  // Forced-park variants keep only genuinely parked rounds; extra rounds
  // buy enough samples when the ping-pong drifts into its decoupled mode.
  benchmark::RegisterBenchmark(
      "Handover/mcs-stp-parked",
      [=](benchmark::State& s) { HandoverPoint<McsStpLock>(s, 0, kPlain, 6000); })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/mcs-stp-parked-wakeahead",
      [=](benchmark::State& s) { HandoverPoint<McsStpLock>(s, 0, kWakeAhead, 6000); })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/mcscr-stp",
      [=](benchmark::State& s) { HandoverPoint<McscrStpLock>(s, kLockDefaultBudget, kPlain); })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/mcscr-stp-wakeahead",
      [=](benchmark::State& s) { HandoverPoint<McscrStpLock>(s, kLockDefaultBudget, kWakeAhead); })
      ->Iterations(1);
  // LOITER: the partner is forced down the slow path (one fast-spin
  // attempt), so every round is a standby park/wake cycle — the §5.2 grant
  // path PR "handover everywhere" moved onto wake-ahead.
  const auto loiter_standby = +[](LoiterLock& l) {
    LoiterOptions opts;
    opts.fast_spin_attempts = 1;
    opts.max_fast_spinners = 1;
    l.set_options(opts);
  };
  benchmark::RegisterBenchmark("Handover/loiter-parked",
                               [=](benchmark::State& s) {
                                 HandoverPoint<LoiterLock>(s, 0, kPlain, 6000, loiter_standby);
                               })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/loiter-parked-wakeahead",
      [=](benchmark::State& s) {
        HandoverPoint<LoiterLock>(s, 0, kWakeAheadLate, 6000, loiter_standby);
      })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/pthread-style-parked",
      [=](benchmark::State& s) { HandoverPoint<PthreadStyleMutex>(s, 0, kPlain, 6000); })
      ->Iterations(1);
  benchmark::RegisterBenchmark(
      "Handover/pthread-style-parked-wakeahead",
      [=](benchmark::State& s) { HandoverPoint<PthreadStyleMutex>(s, 0, kWakeAheadLate, 6000); })
      ->Iterations(1);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
