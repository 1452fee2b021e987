#include "src/platform/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/platform/cpu.h"

namespace malthus {
namespace {

using Clock = std::chrono::steady_clock;

// One park-and-wake round trip on a virtual machine whose vCPUs have been
// idle (see calibrate.h).
constexpr double kSeedSpinNs = 100'000.0;

// The fastest of several short batches: a preemption or a stolen tick
// inflates one batch, not the answer.
double MeasureSpinIterationNs() {
  constexpr int kBatches = 10;
  constexpr int kItersPerBatch = 1000;
  double best_ns = std::numeric_limits<double>::max();
  for (int b = 0; b < kBatches; ++b) {
    const auto begin = Clock::now();
    for (int i = 0; i < kItersPerBatch; ++i) {
      CpuRelax();
    }
    const auto end = Clock::now();
    const double batch_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
    best_ns = std::min(best_ns, batch_ns / kItersPerBatch);
  }
  return std::max(0.5, best_ns);
}

}  // namespace

std::uint32_t SeedSpinBudget() {
  static const auto budget =
      static_cast<std::uint32_t>(std::max(1.0, std::round(kSeedSpinNs / SpinIterationNs())));
  return budget;
}

double SpinIterationNs() {
  static const double ns = MeasureSpinIterationNs();
  return ns;
}

}  // namespace malthus
