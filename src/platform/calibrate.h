// Spin-then-park budget, stated as a time.
//
// The paper spins "approximately 20000 cycles, an empirically derived
// estimate of the average round-trip context switch time" (§5.1) before it
// parks; Karlin/Lim show that spinning for one park-and-wake round trip and
// then parking is 2-competitive. The round trip is the host's, not the
// paper's. On the 4-vCPU development VM, a thread parked for 20-100 µs runs
// again 5-7 µs (median) after its wake, but one whose vCPU has halted for a
// millisecond takes 15-28 µs at the median and 27-163 µs at p90. The seed
// is 100 µs of spinning, converted once into spin-loop iterations with
// SpinIterationNs().
//
// 10 µs (the paper's 20,000 cycles at 2 GHz) was too short there. After the
// VM had idled for two minutes, MCS-STP waiters in kvbench's three-worker
// server ran out their spin behind slow wakes, every handover went to a
// parked heir, and the server stayed in that convoy for the whole 25 s run
// (3 of 3 runs; 30 µs: 1 of 1). At 100 µs it left the convoy within 1-3 s
// (4 of 4).
//
// Every spin-then-park lock spins that many iterations unless its options
// pin another count; nothing adapts it at run time. It is a constant, not a
// start-up measurement of the round trip, so constructing a lock neither
// spawns a thread nor blocks.
#ifndef MALTHUS_SRC_PLATFORM_CALIBRATE_H_
#define MALTHUS_SRC_PLATFORM_CALIBRATE_H_

#include <cstdint>

namespace malthus {

// 100 µs of spinning in spin-loop iterations: 100 µs / SpinIterationNs(),
// rounded, at least 1. Computed on first call, cached thereafter.
// Thread-safe.
std::uint32_t SeedSpinBudget();

// Measured cost of one CpuRelax(), the bulk of a spin-loop iteration, in
// nanoseconds. Measured on first call (10,000 iterations, ~0.2 ms), cached
// thereafter. Thread-safe.
double SpinIterationNs();

}  // namespace malthus

#endif  // MALTHUS_SRC_PLATFORM_CALIBRATE_H_
