// FailPoint fault injection: named, compile-time-gated chaos sites wired
// into the grant/splice/culling and park/wake paths of the lock stack.
//
// The races this library ships — wake-ahead permits racing ParkFor
// timeouts, a grant racing the splice of a passive waiter into the chain,
// a post-grant wake racing the grantee's exit, a pop racing a waiter's
// self-acquire — have windows of a few instructions. Scheduler luck
// exercises them once per million iterations; a FailPoint placed inside
// the window widens it on demand so a unit test covers the interleaving
// deterministically.
//
// Usage (production code):
//
//   MALTHUS_FAILPOINT("mcs.grant");              // maybe yield/delay here
//   if (MALTHUS_FAILPOINT_TRIGGERED("park.spurious")) {
//     return;                                     // inject a branch outcome
//   }
//
// When MALTHUS_FAILPOINTS is not defined both macros compile to nothing
// (((void)0) / false) — zero overhead, no registry, no strings in the
// binary. When compiled in but not configured, the cost per site is one
// relaxed load of a process-wide generation counter.
//
// Configuration (tests):
//
//   failpoint::Configure("mcs.grant", {.action = failpoint::Action::kYield,
//                                      .probability = 0.5});
//   failpoint::Reset();              // all sites off
//   failpoint::SetSeed(1234);        // reproducible per-thread RNG streams
//
// or from the environment (the chaos CI job):
//
//   MALTHUS_CHAOS="park.spurious=yield:0.2,mcs.grant=delay:0.5:2000"
//   MALTHUS_CHAOS_SEED=987654321
//
// Reproducibility: every probability draw comes from a per-thread xorshift
// stream derived from the global seed and a per-thread ordinal, so a given
// (seed, thread-interleaving) pair replays the same injection decisions.
// The chaos CI job echoes the seed on failure for replay.
#ifndef MALTHUS_SRC_CHAOS_FAILPOINT_H_
#define MALTHUS_SRC_CHAOS_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace malthus {
namespace failpoint {

enum class Action : std::uint8_t {
  kOff = 0,    // Site disabled.
  kYield,      // sched_yield() at the site (forced-preemption window).
  kDelay,      // Spin `delay_iters` CpuRelax iterations at the site.
  kTrigger,    // MALTHUS_FAILPOINT_TRIGGERED returns true (branch injection).
};

struct SiteConfig {
  Action action = Action::kOff;
  // Probability in [0,1] that a hit fires. 1.0 = always.
  double probability = 1.0;
  // Fire at most this many times (0 = unlimited). Lets a test arm a site
  // for exactly one interleaving.
  std::uint64_t max_hits = 0;
  // CpuRelax iterations for kDelay.
  std::uint32_t delay_iters = 1000;
};

struct SiteInfo {
  std::string name;
  SiteConfig config;
  std::uint64_t hits;   // Times Evaluate() was reached while armed.
  std::uint64_t fires;  // Times the action actually executed.
};

// Arms `site` with `config`. Creates the registry entry if the site has not
// been reached yet, so tests can configure before first use.
void Configure(const std::string& site, const SiteConfig& config);

// Disarms every site and zeroes hit/fire counters.
void Reset();

// Seeds the per-thread RNG streams. Threads derive their stream from this
// seed at first draw after the call.
void SetSeed(std::uint64_t seed);
std::uint64_t Seed();

// Times `site` fired (action executed). 0 for unknown sites.
std::uint64_t Fires(const std::string& site);
std::uint64_t Hits(const std::string& site);

// Snapshot of all registered sites (for docs/chaos.md verification and the
// watchdog dump).
std::vector<SiteInfo> Sites();

// Parses MALTHUS_CHAOS ("site=action[:prob[:delay_iters]],...", actions
// yield|delay|trigger) and MALTHUS_CHAOS_SEED. Called once from the first
// evaluated site; safe to call explicitly from test main()s.
void ConfigureFromEnv();

#ifdef MALTHUS_FAILPOINTS

namespace detail {

// Bumped on every Configure/Reset. Sites cache nothing across generations;
// the fast path when nothing is armed is one relaxed load observing 0.
extern std::atomic<std::uint64_t> g_armed_sites;

// Slow path: looks up (registering if needed) `site`, applies probability /
// max_hits, executes kYield/kDelay side effects, and returns true iff the
// site fired with kTrigger (for the _TRIGGERED macro).
bool Evaluate(const char* site);

inline bool Hit(const char* site) {
  if (g_armed_sites.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return Evaluate(site);
}

}  // namespace detail

#define MALTHUS_FAILPOINT(site) \
  ((void)::malthus::failpoint::detail::Hit(site))
#define MALTHUS_FAILPOINT_TRIGGERED(site) \
  (::malthus::failpoint::detail::Hit(site))

// True when fault injection is compiled into this build; tests use it to
// GTEST_SKIP chaos cases in plain builds.
inline constexpr bool kCompiledIn = true;

#else  // !MALTHUS_FAILPOINTS

#define MALTHUS_FAILPOINT(site) ((void)0)
#define MALTHUS_FAILPOINT_TRIGGERED(site) (false)

inline constexpr bool kCompiledIn = false;

#endif  // MALTHUS_FAILPOINTS

}  // namespace failpoint
}  // namespace malthus

#endif  // MALTHUS_SRC_CHAOS_FAILPOINT_H_
