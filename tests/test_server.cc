// KV server subsystem tests: Zipf generator distribution sanity, CoDel
// state machine under a fake clock, admission-queue semantics, server
// admission accounting, multi-tenant isolation, the worker count (Start()
// runs min(workers, max_inflight) threads and Stop() joins them all),
// teardown (no QNode leak, and no Stop() failure from other locks' timed
// waiters), an end-to-end sweep smoke under a stall watchdog, and the
// server FailPoint sites.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/chaos/failpoint.h"
#include "src/locks/lock_base.h"
#include "src/platform/park.h"
#include "src/server/admission_queue.h"
#include "src/server/backend.h"
#include "src/server/codel.h"
#include "src/server/loadgen.h"
#include "src/server/server.h"
#include "src/server/zipf.h"
#include "tests/contention.h"
#include "tests/watchdog.h"

namespace malthus {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Zipf generator.

TEST(Zipf, RankZeroDrawsItsAnalyticShare) {
  ZipfGenerator zipf(1000, 0.99);
  XorShift64 rng(1);
  constexpr int kSamples = 200000;
  int head = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.NextRank(rng) == 0) {
      ++head;
    }
  }
  const double observed = static_cast<double>(head) / kSamples;
  const double expected = zipf.HeadProbability();
  EXPECT_GT(expected, 0.1);  // theta=0.99, N=1000: the head is genuinely hot
  EXPECT_NEAR(observed, expected, expected * 0.1);
}

TEST(Zipf, FrequenciesDecreaseWithRank) {
  ZipfGenerator zipf(10000, 0.99);
  XorShift64 rng(2);
  std::vector<int> counts(10000, 0);
  for (int i = 0; i < 500000; ++i) {
    const std::uint64_t r = zipf.NextRank(rng);
    ASSERT_LT(r, 10000u);
    ++counts[r];
  }
  // Head ranks dominate successively coarser tail bands.
  const auto band = [&](std::size_t lo, std::size_t hi) {
    long total = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      total += counts[i];
    }
    return total;
  };
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(band(0, 10), band(10, 100) / 2);
  EXPECT_GT(band(0, 100), band(100, 1000) / 2);
  EXPECT_GT(band(0, 1000), band(1000, 10000));
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfGenerator zipf(100, 0.0);
  XorShift64 rng(3);
  std::vector<int> counts(100, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[zipf.NextRank(rng)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 100, kSamples / 100 * 0.25);
  }
}

TEST(Zipf, ScrambledKeysStayInRange) {
  ZipfGenerator zipf(4096, 0.99, /*scramble=*/true);
  XorShift64 rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 4096u);
  }
}

// ---------------------------------------------------------------------------
// CoDel under a fake clock: every transition at a deterministic timestamp.

constexpr auto kTarget = 5ms;
constexpr auto kInterval = 100ms;

CoDelOptions FakeOpts() {
  return CoDelOptions{.target = kTarget, .interval = kInterval};
}

std::chrono::nanoseconds At(std::int64_t ms) {
  return std::chrono::milliseconds(ms);
}

TEST(CoDel, BelowTargetNeverSheds) {
  CoDel codel(FakeOpts());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(codel.OnDequeue(4ms, At(1000 + i)));
  }
  EXPECT_FALSE(codel.dropping());
  EXPECT_EQ(codel.drops(), 0u);
}

TEST(CoDel, ShortSpikeAboveTargetIsForgiven) {
  CoDel codel(FakeOpts());
  // Above target for 90 ms — less than one interval — then back below.
  EXPECT_FALSE(codel.OnDequeue(20ms, At(1000)));
  EXPECT_FALSE(codel.OnDequeue(20ms, At(1050)));
  EXPECT_FALSE(codel.OnDequeue(20ms, At(1090)));
  EXPECT_FALSE(codel.OnDequeue(2ms, At(1095)));  // dip resets the streak
  // A fresh streak must again survive a full interval before shedding.
  EXPECT_FALSE(codel.OnDequeue(20ms, At(1100)));
  EXPECT_FALSE(codel.OnDequeue(20ms, At(1199)));
  EXPECT_EQ(codel.drops(), 0u);
  EXPECT_FALSE(codel.dropping());
}

TEST(CoDel, EntersDropStateAfterFullIntervalAboveTarget) {
  CoDel codel(FakeOpts());
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1000)));  // streak starts; arm at 1100
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1050)));
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1099)));
  EXPECT_TRUE(codel.OnDequeue(10ms, At(1100)));  // enter drop state: shed
  EXPECT_TRUE(codel.dropping());
  EXPECT_EQ(codel.drop_count(), 1u);
  // Next shed scheduled one full interval out (count == 1).
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1150)));
  EXPECT_TRUE(codel.OnDequeue(10ms, At(1200)));
  EXPECT_EQ(codel.drop_count(), 2u);
  // Control law accelerates: interval/sqrt(2) ≈ 70.7 ms after 1200.
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1265)));
  EXPECT_TRUE(codel.OnDequeue(10ms, At(1271)));
  EXPECT_EQ(codel.drop_count(), 3u);
  EXPECT_EQ(codel.drops(), 3u);
}

TEST(CoDel, ExitsDropStateWhenSojournRecovers) {
  CoDel codel(FakeOpts());
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1000)));
  EXPECT_TRUE(codel.OnDequeue(10ms, At(1100)));
  EXPECT_TRUE(codel.dropping());
  EXPECT_FALSE(codel.OnDequeue(1ms, At(1150)));  // recovered
  EXPECT_FALSE(codel.dropping());
  // Re-entering requires a fresh full interval above target.
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1200)));
  EXPECT_FALSE(codel.OnDequeue(10ms, At(1299)));
  EXPECT_TRUE(codel.OnDequeue(10ms, At(1300)));
}

TEST(CoDel, ResumesNearPreviousDropRate) {
  CoDel codel(FakeOpts());
  // Build an episode with several sheds (count climbs to 5).
  EXPECT_FALSE(codel.OnDequeue(10ms, At(0)));
  std::int64_t t = 100;
  EXPECT_TRUE(codel.OnDequeue(10ms, At(t)));  // count 1
  for (int expected_count = 2; expected_count <= 5; ++expected_count) {
    // Step past drop_next by walking in 1 ms ticks.
    std::uint32_t before = codel.drop_count();
    while (codel.drop_count() == before) {
      t += 1;
      codel.OnDequeue(10ms, At(t));
    }
  }
  EXPECT_EQ(codel.drop_count(), 5u);
  // Recover briefly, then overload again shortly after: the control-law
  // divisor resumes near the old rate (count = 5 - 2) instead of 1.
  EXPECT_FALSE(codel.OnDequeue(1ms, At(t + 1)));
  EXPECT_FALSE(codel.dropping());
  EXPECT_FALSE(codel.OnDequeue(10ms, At(t + 10)));
  EXPECT_TRUE(codel.OnDequeue(10ms, At(t + 110)));
  EXPECT_EQ(codel.drop_count(), 3u);
}

// ---------------------------------------------------------------------------
// Admission queue.

ServerRequest Req(std::uint32_t tenant, std::uint64_t key) {
  ServerRequest r;
  r.tenant = tenant;
  r.key = key;
  r.arrival = std::chrono::steady_clock::now();
  return r;
}

TEST(AdmissionQueue, FifoOrderAndSojourn) {
  AdmissionQueue q(16, /*codel_enabled=*/false);
  ASSERT_TRUE(q.TryPush(Req(0, 1)));
  ASSERT_TRUE(q.TryPush(Req(0, 2)));
  auto a = q.Pop();
  auto b = q.Pop();
  ASSERT_EQ(a.status, AdmissionQueue::PopStatus::kServe);
  ASSERT_EQ(b.status, AdmissionQueue::PopStatus::kServe);
  EXPECT_EQ(a.request.key, 1u);
  EXPECT_EQ(b.request.key, 2u);
  EXPECT_GE(a.sojourn.count(), 0);
}

TEST(AdmissionQueue, TailDropsAtCapacity) {
  AdmissionQueue q(4, false);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPush(Req(0, i)));
  }
  EXPECT_FALSE(q.TryPush(Req(0, 99)));
  EXPECT_EQ(q.Size(), 4u);
}

TEST(AdmissionQueue, StopWakesBlockedConsumersAndDrains) {
  // A lost wakeup would block the consumer forever; the watchdog turns it
  // into an abort.
  test::StallWatchdog watchdog(30s, [] {
    std::fprintf(stderr, "[StopWakes] consumer still blocked in Pop()\n");
  });
  AdmissionQueue q(16, false);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    // The push below may race the Stop: a consumer that wins the race takes
    // the item and blocks again, and Stop() must then wake it.
    AdmissionQueue::PopResult res = q.Pop();
    if (res.status == AdmissionQueue::PopStatus::kServe) {
      res = q.Pop();
    }
    EXPECT_EQ(res.status, AdmissionQueue::PopStatus::kStopped);
    popped.store(true);
  });
  std::this_thread::sleep_for(20ms);
  ASSERT_TRUE(q.TryPush(Req(0, 1)) || true);  // may race the Stop below
  q.Stop();
  consumer.join();
  EXPECT_TRUE(popped.load());
  q.DrainAll();
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_FALSE(q.TryPush(Req(0, 2)));  // stopped queues reject arrivals
  q.Restart();
  EXPECT_TRUE(q.TryPush(Req(0, 3)));
}

// Idle consumers wait LIFO: a push wakes the consumer that parked last,
// whose CPU has been idle the shortest time. Each consumer pops once and
// exits, so the second push can only reach the consumer that parked first.
TEST(AdmissionQueue, WakesTheMostRecentlyParkedConsumer) {
  test::StallWatchdog watchdog(30s, [] {
    std::fprintf(stderr, "[LifoWake] a consumer was never woken\n");
  });
  AdmissionQueue q(16, false);
  std::atomic<std::uint64_t> got_first{0};
  std::atomic<std::uint64_t> got_second{0};
  auto consume = [&q](std::atomic<std::uint64_t>* got) {
    const AdmissionQueue::PopResult res = q.Pop();
    ASSERT_EQ(res.status, AdmissionQueue::PopStatus::kServe);
    got->store(res.request.key);
  };
  const std::uint64_t parks = TotalKernelParks();
  std::thread first(consume, &got_first);
  test::AwaitKernelParksAbove(parks);
  std::thread second(consume, &got_second);
  test::AwaitKernelParksAbove(parks + 1);

  EXPECT_TRUE(q.TryPush(Req(0, 1)));
  while (got_first.load() == 0 && got_second.load() == 0) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(got_second.load(), 1u) << "the first push woke the earlier parker";
  EXPECT_EQ(got_first.load(), 0u);
  EXPECT_TRUE(q.TryPush(Req(0, 2)));
  first.join();
  second.join();
  EXPECT_EQ(got_first.load(), 2u);
}

// Untimed idle waits leave no timeout to paper over a lost wakeup, so every
// pushed item must reach a consumer by signals alone, and Stop() must
// release every consumer. Run with all threads on one CPU, where a push
// and a park interleave at preemption points, and unpinned, where the
// wake crosses CPUs.
void EveryPushedItemIsPopped(bool pin_to_one_cpu) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;
  constexpr std::uint64_t kTotal = std::uint64_t{kProducers} * kPerProducer;
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  if (pin_to_one_cpu) {
    cpu_set_t allowed;
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &allowed)) {
      ++cpu;
    }
    CPU_SET(cpu, &one_cpu);
  }
  auto maybe_pin = [&] {
    if (pin_to_one_cpu) {
      sched_setaffinity(0, sizeof(one_cpu), &one_cpu);
    }
  };
  AdmissionQueue q(64, false);
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> key_sum{0};
  test::StallWatchdog watchdog(30s, [&] {
    std::fprintf(stderr, "[Stranded] popped %llu of %llu, %zu still queued\n",
                 static_cast<unsigned long long>(popped.load()),
                 static_cast<unsigned long long>(kTotal), q.Size());
  });
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      maybe_pin();
      for (;;) {
        const AdmissionQueue::PopResult res = q.Pop();
        if (res.status == AdmissionQueue::PopStatus::kStopped) {
          return;
        }
        key_sum.fetch_add(res.request.key, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
        watchdog.Beat();
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      maybe_pin();
      for (int i = 1; i <= kPerProducer; ++i) {
        // A full queue tail-drops; retry until the item is in.
        while (!q.TryPush(Req(0, static_cast<std::uint64_t>(p) * kPerProducer + i))) {
          std::this_thread::yield();
        }
        watchdog.Beat();
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  while (popped.load() < kTotal) {
    std::this_thread::sleep_for(1ms);
  }
  q.Stop();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(key_sum.load(), kTotal * (kTotal + 1) / 2);
  EXPECT_TRUE(q.DrainAll().empty());
}

TEST(AdmissionQueue, NoPushedItemStrandedPinnedToOneCpu) { EveryPushedItemIsPopped(true); }

TEST(AdmissionQueue, NoPushedItemStrandedUnpinned) { EveryPushedItemIsPopped(false); }

// ---------------------------------------------------------------------------
// Server: admission accounting, isolation, teardown.

KvServerOptions SmallServer(const std::string& structure,
                            const std::string& lock) {
  KvServerOptions opts;
  opts.workers = 3;
  opts.queue_capacity = 1024;
  opts.structure = structure;
  opts.lock_name = lock;
  opts.tenants = 2;
  opts.max_inflight = 2;
  return opts;
}

void AwaitDrained(KvServer& server, std::chrono::milliseconds budget = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (server.QueueDepth() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
}

TEST(KvServer, UnknownBackendFailsStart) {
  KvServerOptions opts;
  opts.structure = "no-such-structure";
  KvServer server(opts);
  EXPECT_FALSE(server.Start());
  // Structures and registry locks no caller runs through the backend are
  // unknown to it.
  for (const char* structure : {"kchash", "sharded-kchash"}) {
    opts = KvServerOptions{};
    opts.structure = structure;
    KvServer server2(opts);
    EXPECT_FALSE(server2.Start()) << structure;
  }
  for (const char* lock :
       {"no-such-lock", "ticket", "throttled-mcs-stp", "tas", "pthread-style"}) {
    opts = KvServerOptions{};
    opts.lock_name = lock;
    KvServer server2(opts);
    EXPECT_FALSE(server2.Start()) << lock;
  }
}

TEST(KvServer, EveryOfferedRequestIsAccountedExactlyOnce) {
  for (const char* structure : {"lru", "sharded-lru", "minidb"}) {
    KvServer server(SmallServer(structure, "mcs-stp"));
    ASSERT_TRUE(server.Start());
    constexpr int kRequests = 2000;
    XorShift64 rng(11);
    for (int i = 0; i < kRequests; ++i) {
      ServerRequest r = Req(static_cast<std::uint32_t>(i % 2), rng.NextBelow(512));
      r.op = (i % 10 == 0) ? ServerRequest::Op::kPut : ServerRequest::Op::kGet;
      server.Submit(r);
    }
    AwaitDrained(server);
    server.Stop();
    const TenantStats agg = server.Aggregate();
    EXPECT_EQ(agg.offered, static_cast<std::uint64_t>(kRequests)) << structure;
    EXPECT_EQ(agg.served + agg.shed_total(), agg.offered) << structure;
    EXPECT_GT(agg.served, 0u) << structure;
    // Served requests have latencies recorded.
    EXPECT_GT(agg.e2e_p50, 0u) << structure;
    EXPECT_GE(agg.e2e_p999, agg.e2e_p50) << structure;
    EXPECT_GE(agg.e2e_max, agg.e2e_p999) << structure;
  }
}

TEST(KvServer, PerTenantAccountingIsolatesTenants) {
  KvServerOptions opts = SmallServer("lru", "mcs-stp");
  opts.tenants = 3;
  KvServer server(opts);
  ASSERT_TRUE(server.Start());
  const int per_tenant[] = {900, 300, 100};
  XorShift64 rng(12);
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < per_tenant[t]; ++i) {
      server.Submit(Req(static_cast<std::uint32_t>(t),
                        TenantKey(static_cast<std::uint32_t>(t), rng.NextBelow(256))));
    }
  }
  AwaitDrained(server);
  server.Stop();
  std::uint64_t total_offered = 0, total_served = 0;
  for (int t = 0; t < 3; ++t) {
    const TenantStats s = server.StatsFor(static_cast<std::uint32_t>(t));
    EXPECT_EQ(s.offered, static_cast<std::uint64_t>(per_tenant[t])) << t;
    EXPECT_EQ(s.served + s.shed_total(), s.offered) << t;
    total_offered += s.offered;
    total_served += s.served;
  }
  const TenantStats agg = server.Aggregate();
  EXPECT_EQ(agg.offered, total_offered);
  EXPECT_EQ(agg.served, total_served);
}

TEST(KvServer, BurstBeyondQueueCapacityTailDrops) {
  KvServerOptions opts = SmallServer("lru", "mcs-stp");
  opts.queue_capacity = 64;
  opts.workers = 1;
  KvServer server(opts);
  ASSERT_TRUE(server.Start());
  constexpr int kBurst = 20000;
  for (int i = 0; i < kBurst; ++i) {
    server.Submit(Req(0, static_cast<std::uint64_t>(i)));
  }
  AwaitDrained(server);
  server.Stop();
  const TenantStats agg = server.Aggregate();
  EXPECT_EQ(agg.offered, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(agg.shed_queue_full, 0u);
  EXPECT_EQ(agg.served + agg.shed_total(), agg.offered);
}

TEST(KvServer, GetReturnsWhatPutStored) {
  KvServerOptions opts = SmallServer("minidb", "mcscr-stp");
  opts.tenants = 1;
  KvServer server(opts);
  ASSERT_TRUE(server.Start());
  ServerRequest put = Req(0, 42);
  put.op = ServerRequest::Op::kPut;
  put.value = 0xDEADBEEF;
  server.Submit(put);
  AwaitDrained(server);
  ServerRequest get = Req(0, 42);
  server.Submit(get);
  AwaitDrained(server);
  server.Stop();
  EXPECT_EQ(server.Aggregate().get_hits, 1u);
}

// The sharded backends through the full server pipeline: every request
// accounted, some served.
TEST(KvServer, ShardedBackendsServeAndAccount) {
  for (const char* lock : {"mcs-stp", "mcscr-stp"}) {
    KvServerOptions opts = SmallServer("sharded-lru", lock);
    opts.backend_shards = 4;
    KvServer server(opts);
    ASSERT_TRUE(server.Start()) << lock;
    constexpr int kRequests = 2000;
    XorShift64 rng(21);
    for (int i = 0; i < kRequests; ++i) {
      ServerRequest r =
          Req(static_cast<std::uint32_t>(i % 2), rng.NextBelow(512));
      r.op = (i % 10 == 0) ? ServerRequest::Op::kPut : ServerRequest::Op::kGet;
      server.Submit(r);
    }
    AwaitDrained(server);
    server.Stop();
    const TenantStats agg = server.Aggregate();
    EXPECT_EQ(agg.offered, static_cast<std::uint64_t>(kRequests)) << lock;
    EXPECT_EQ(agg.served + agg.shed_total(), agg.offered) << lock;
    EXPECT_GT(agg.served, 0u) << lock;
  }
}

// The whole MakeBackend matrix: every structure × lock pair builds, reports
// its shard count, and returns what a Put stored.
TEST(KvBackend, EveryStructureAndLockServesAndReportsShards) {
  for (const char* lock : {"mcs-stp", "mcscr-stp"}) {
    for (const char* base : {"lru", "minidb"}) {
      for (const bool sharded : {false, true}) {
        const std::string structure =
            sharded ? std::string("sharded-") + base : std::string(base);
        // Requested counts round up to a power of two; the unsharded names
        // ignore them.
        for (const std::size_t shards : {std::size_t{3}, std::size_t{4}}) {
          auto backend = MakeBackend(structure, lock, shards);
          ASSERT_NE(backend, nullptr) << structure << "/" << lock;
          EXPECT_EQ(backend->shards(), sharded ? 4u : 1u)
              << structure << "/" << lock << " shards=" << shards;
          backend->Put(42, 0xDEADBEEF, 1);
          std::uint64_t value = 0;
          EXPECT_TRUE(backend->Get(42, &value, 1)) << structure << "/" << lock;
          EXPECT_EQ(value, 0xDEADBEEFu) << structure << "/" << lock;
        }
      }
    }
  }
}

// Displacement plumbing (footnote 33) end to end: distinct tids inserting
// past capacity must produce both self- and extrinsic-displacements, in the
// unsharded LRU and in every partition count of the sharded one.
TEST(KvBackend, DisplacementStatsAttributeEvictionsToTids) {
  for (const char* structure : {"lru", "sharded-lru"}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      if (std::string(structure) == "lru" && shards != 1) {
        continue;
      }
      auto backend = MakeBackend(structure, "mcs-stp", shards);
      ASSERT_NE(backend, nullptr) << structure;
      // The LRU backends hold 1<<15 entries; push well past capacity from
      // two randomly chosen tids so evictions both cross tid boundaries
      // (extrinsic) and stay within them (self). (A deterministic
      // alternation would correlate tid parity with eviction distance and
      // produce only one kind.)
      constexpr std::uint64_t kKeys = 3u << 15;
      XorShift64 tid_rng(7);
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        backend->Put(k, k, static_cast<std::uint32_t>(1 + tid_rng.NextBelow(2)));
      }
      const KvBackend::Displacement d = backend->displacement();
      EXPECT_GT(d.self, 0u) << structure << " shards=" << shards;
      EXPECT_GT(d.extrinsic, 0u) << structure << " shards=" << shards;
    }
  }
}

// Threads in this process: the entries of /proc/self/task.
std::size_t ThreadCount() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator{}));
}

// A joined thread can stay listed for a moment while the kernel releases
// it, so wait (bounded) for the count to reach `want`.
std::size_t AwaitThreadCount(std::size_t want) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  std::size_t n = ThreadCount();
  while (n != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
    n = ThreadCount();
  }
  return n;
}

// The pool is the concurrency restriction: Start() runs min(workers,
// max_inflight) threads, with no surplus to park, and Stop() reaches every
// worker through the queue's broadcast alone, so the process returns to
// its thread count after every Start/Stop round.
TEST(KvServer, StartsOnlyTheWorkersThatServe) {
  test::StallWatchdog watchdog(30s, [] {
    std::fprintf(stderr, "[StartsOnlyTheWorkers] stalled; qnode slots live=%llu\n",
                 static_cast<unsigned long long>(QNodeSlab().SlotsLive()));
  });
  const std::size_t baseline = ThreadCount();
  KvServerOptions opts = SmallServer("lru", "mcs-stp");
  opts.workers = 16;
  opts.max_inflight = 2;
  KvServer server(opts);
  ASSERT_TRUE(server.Start());
  EXPECT_EQ(ThreadCount(), baseline + 2);
  constexpr int kRequests = 2000;
  XorShift64 rng(31);
  for (int i = 0; i < kRequests; ++i) {
    server.Submit(Req(static_cast<std::uint32_t>(i % 2), rng.NextBelow(512)));
  }
  AwaitDrained(server);
  watchdog.Beat();
  server.Stop();
  watchdog.Beat();
  EXPECT_EQ(AwaitThreadCount(baseline), baseline);
  const TenantStats agg = server.Aggregate();
  EXPECT_EQ(agg.offered, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(agg.served + agg.shed_total(), agg.offered);
  EXPECT_GT(agg.served, 0u);
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(server.Start()) << round;
    EXPECT_EQ(ThreadCount(), baseline + 2) << round;
    server.Stop();
    EXPECT_EQ(AwaitThreadCount(baseline), baseline) << round;
    watchdog.Beat();
  }

  opts.workers = 4;
  opts.max_inflight = 4;
  KvServer full(opts);
  ASSERT_TRUE(full.Start());
  EXPECT_EQ(ThreadCount(), baseline + 4);
  full.Stop();
  EXPECT_EQ(AwaitThreadCount(baseline), baseline);
}

TEST(KvServer, StartStopChurnLeaksNothing) {
  // Short-lived worker pools leave nothing behind: an exiting worker hands
  // its QNodes back to the slab, so once the workers have joined the slab's
  // live-slot count is back where it started. This thread's own QNode pool
  // is filled first, so its first refill cannot move the count.
  ReleaseQNode(AcquireQNode());
  const std::uint64_t before = QNodeSlab().SlotsLive();
  for (int round = 0; round < 5; ++round) {
    KvServerOptions opts = SmallServer("lru", "mcs-stp");
    opts.workers = 4;
    opts.max_inflight = 1;
    KvServer server(opts);
    ASSERT_TRUE(server.Start());
    XorShift64 rng(round);
    for (int i = 0; i < 500; ++i) {
      server.Submit(Req(0, rng.NextBelow(128)));
    }
    server.Stop();
  }
  EXPECT_EQ(QNodeSlab().SlotsLive(), before);
}

// ---------------------------------------------------------------------------
// Open-loop load generation end to end.

TEST(LoadGen, OpenLoopOffersTheConfiguredRate) {
  KvServerOptions sopts = SmallServer("lru", "mcs-stp");
  KvServer server(sopts);
  ASSERT_TRUE(server.Start());
  LoadGenOptions lopts;
  lopts.rate_per_sec = 2000;
  lopts.duration = 250ms;
  lopts.tenants = 2;
  lopts.keys_per_tenant = 1024;
  LoadGenerator gen(lopts);
  const LoadGenStats stats = gen.Run(server);
  AwaitDrained(server);
  server.Stop();
  // Offered count tracks rate × duration (Poisson variance + edge effects).
  EXPECT_NEAR(static_cast<double>(stats.offered), 500.0, 150.0);
  EXPECT_EQ(stats.offered, stats.accepted + stats.dropped);
  const TenantStats agg = server.Aggregate();
  EXPECT_EQ(agg.offered, stats.offered);
  EXPECT_EQ(agg.served + agg.shed_total(), agg.offered);
}

TEST(LoadGen, TenantWeightsShapeOfferedLoad) {
  KvServerOptions sopts = SmallServer("lru", "mcs-stp");
  sopts.tenants = 2;
  KvServer server(sopts);
  ASSERT_TRUE(server.Start());
  LoadGenOptions lopts;
  lopts.rate_per_sec = 4000;
  lopts.duration = 250ms;
  lopts.tenants = 2;
  lopts.tenant_weights = {3.0, 1.0};
  lopts.keys_per_tenant = 1024;
  LoadGenerator gen(lopts);
  gen.Run(server);
  AwaitDrained(server);
  server.Stop();
  const TenantStats t0 = server.StatsFor(0);
  const TenantStats t1 = server.StatsFor(1);
  ASSERT_GT(t1.offered, 0u);
  const double ratio =
      static_cast<double>(t0.offered) / static_cast<double>(t1.offered);
  EXPECT_NEAR(ratio, 3.0, 1.0);
}

// Both admission arms at gentle open-loop load, under a stall watchdog: the
// server neither hangs nor shed-storms (the watchdog aborts with a state
// dump on stall; a shed storm fails the served-fraction assertion). CI also
// runs this pinned to one CPU.
TEST(ServerSweep, SmokeUnderWatchdogNoShedStormOrHang) {
  test::StallWatchdog watchdog(30s, [] {
    std::fprintf(stderr, "[ServerSweep] stalled; qnode slots live=%llu\n",
                 static_cast<unsigned long long>(QNodeSlab().SlotsLive()));
  });
  for (const bool admission : {true, false}) {
    KvServerOptions opts;
    opts.workers = 4;
    opts.queue_capacity = 2048;
    opts.structure = "lru";
    opts.lock_name = "mcs-stp";
    // Off runs every worker, on a plain FIFO.
    opts.max_inflight = admission ? 0 : static_cast<std::uint32_t>(opts.workers);
    opts.codel_enabled = admission;
    opts.tenants = 2;
    KvServer server(opts);
    ASSERT_TRUE(server.Start());
    watchdog.Beat();
    LoadGenOptions lopts;
    lopts.rate_per_sec = 3000;  // gentle: well under capacity on any host
    lopts.duration = 300ms;
    lopts.tenants = 2;
    lopts.keys_per_tenant = 4096;
    LoadGenerator gen(lopts);
    const LoadGenStats stats = gen.Run(server);
    watchdog.Beat();
    AwaitDrained(server);
    server.Stop();
    watchdog.Beat();
    const TenantStats agg = server.Aggregate();
    EXPECT_EQ(agg.served + agg.shed_total(), agg.offered);
    EXPECT_GT(stats.offered, 0u);
    // At well-under-capacity load the overwhelming majority must be served
    // — a shed storm here means the CoDel/dispatch plumbing is broken.
    EXPECT_GT(static_cast<double>(agg.served),
              0.7 * static_cast<double>(agg.offered))
        << "admission=" << admission;
  }
}

// ---------------------------------------------------------------------------
// FailPoint sites on the admission/shed/dispatch paths.

class ServerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "MALTHUS_FAILPOINTS not compiled in";
    }
    failpoint::Reset();
  }
  void TearDown() override {
    if (failpoint::kCompiledIn) {
      failpoint::Reset();
    }
  }
};

TEST_F(ServerChaosTest, AdmitAndDispatchSitesAreReached) {
  failpoint::Configure("server.admit",
                       {.action = failpoint::Action::kYield, .probability = 0.5});
  failpoint::Configure("server.dispatch",
                       {.action = failpoint::Action::kYield, .probability = 0.5});
  KvServer server(SmallServer("lru", "mcs-stp"));
  ASSERT_TRUE(server.Start());
  for (int i = 0; i < 200; ++i) {
    server.Submit(Req(0, static_cast<std::uint64_t>(i)));
  }
  AwaitDrained(server);
  server.Stop();
  EXPECT_GE(failpoint::Hits("server.admit"), 200u);
  EXPECT_GT(failpoint::Hits("server.dispatch"), 0u);
  const TenantStats agg = server.Aggregate();
  EXPECT_EQ(agg.served + agg.shed_total(), agg.offered);
}

TEST_F(ServerChaosTest, ShedSiteFiresOnTailDrop) {
  failpoint::Configure("server.shed",
                       {.action = failpoint::Action::kYield, .probability = 1.0});
  KvServerOptions opts = SmallServer("lru", "mcs-stp");
  opts.queue_capacity = 8;
  opts.workers = 1;
  KvServer server(opts);
  ASSERT_TRUE(server.Start());
  for (int i = 0; i < 5000; ++i) {
    server.Submit(Req(0, static_cast<std::uint64_t>(i)));
  }
  AwaitDrained(server);
  server.Stop();
  EXPECT_GT(failpoint::Hits("server.shed"), 0u);
  const TenantStats agg = server.Aggregate();
  EXPECT_GT(agg.shed_queue_full, 0u);
  EXPECT_EQ(agg.served + agg.shed_total(), agg.offered);
}

// Randomized storm over the server sites with yields injected everywhere,
// under a watchdog: no interleaving may hang or miscount.
TEST_F(ServerChaosTest, YieldStormPreservesAccounting) {
  failpoint::SetSeed(20260808);
  for (const char* site : {"server.admit", "server.shed", "server.dispatch"}) {
    failpoint::Configure(
        site, {.action = failpoint::Action::kYield, .probability = 0.3});
  }
  test::StallWatchdog watchdog(30s, [] {
    for (const auto& info : failpoint::Sites()) {
      std::fprintf(stderr, "  site %s hits=%llu fires=%llu\n",
                   info.name.c_str(),
                   static_cast<unsigned long long>(info.hits),
                   static_cast<unsigned long long>(info.fires));
    }
  });
  // SmallServer's max_inflight runs 2 workers; under taskset -c 0 they
  // share the CPU with the submitter, so the forced yields deschedule them.
  KvServerOptions opts = SmallServer("minidb", "mcscr-stp");
  opts.queue_capacity = 256;
  KvServer server(opts);
  ASSERT_TRUE(server.Start());
  XorShift64 rng(99);
  for (int i = 0; i < 3000; ++i) {
    ServerRequest r = Req(static_cast<std::uint32_t>(i % 2), rng.NextBelow(512));
    r.op = (i % 5 == 0) ? ServerRequest::Op::kPut : ServerRequest::Op::kGet;
    server.Submit(r);
    if (i % 64 == 0) {
      watchdog.Beat();
    }
  }
  AwaitDrained(server);
  server.Stop();
  watchdog.Beat();
  const TenantStats agg = server.Aggregate();
  EXPECT_EQ(agg.offered, 3000u);
  EXPECT_EQ(agg.served + agg.shed_total(), agg.offered);
}

}  // namespace
}  // namespace malthus
