// Telemetry registry and event-trace tests: lock-free recording vs
// aggregate-on-read, histogram bucket boundaries, ring wrap, env-knob
// validation, and the post-crash trace annex surviving recovery.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "tests/test_env.hpp"
#include "util/telemetry.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

uint64_t counter_named(const char* name) {
  for (const auto& c : telemetry::counters_snapshot()) {
    if (std::string(c.name) == name) return c.value;
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return 0;
}

telemetry::HistogramValue hist_named(const char* name) {
  for (const auto& h : telemetry::histograms_snapshot()) {
    if (std::string(h.name) == name) return h;
  }
  ADD_FAILURE() << "histogram " << name << " not in snapshot";
  return {};
}

TEST(ShardedCounter, ConcurrentAddsAggregateExactly) {
  telemetry::ShardedCounter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(c.read(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.read(), 0u);
}

TEST(Telemetry, ConcurrentCountsAggregateExactly) {
  const uint64_t before = counter_named("epoch.ops_begun");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        telemetry::count(telemetry::Ctr::kOpsBegun);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter_named("epoch.ops_begun") - before, kThreads * kPerThread);
}

TEST(Telemetry, HistogramBucketBoundaries) {
  const auto before = hist_named("epoch.writeback_batch_blocks");
  // Bucket i holds values of bit width i: 0 -> 0, 1 -> 1, {2,3} -> 2,
  // {4..7} -> 3, and anything wider than the table clamps to the top.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, ~0ull}) {
    telemetry::observe(telemetry::Hist::kDrainBatch, v);
  }
  const auto after = hist_named("epoch.writeback_batch_blocks");
  EXPECT_EQ(after.count - before.count, 6u);
  EXPECT_EQ(after.buckets[0] - before.buckets[0], 1u);
  EXPECT_EQ(after.buckets[1] - before.buckets[1], 1u);
  EXPECT_EQ(after.buckets[2] - before.buckets[2], 2u);
  EXPECT_EQ(after.buckets[3] - before.buckets[3], 1u);
  EXPECT_EQ(after.buckets[telemetry::kHistBuckets - 1] -
                before.buckets[telemetry::kHistBuckets - 1],
            1u);
  // Bucket upper bounds are 0, 2^i - 1, saturating at UINT64_MAX.
  EXPECT_EQ(telemetry::hist_bucket_upper(0), 0u);
  EXPECT_EQ(telemetry::hist_bucket_upper(1), 1u);
  EXPECT_EQ(telemetry::hist_bucket_upper(2), 3u);
  EXPECT_EQ(telemetry::hist_bucket_upper(3), 7u);
  EXPECT_EQ(telemetry::hist_bucket_upper(telemetry::kHistBuckets - 1), ~0ull);
}

TEST(Telemetry, PercentilesAreExactAtBucketBoundaries) {
  // hist_percentile is a pure function of the (hand-built) snapshot.
  telemetry::HistogramValue hv{};
  hv.buckets[0] = 1;  // one observation of 0
  hv.buckets[1] = 1;  // one observation of 1
  hv.buckets[2] = 2;  // two observations in [2, 3]
  hv.count = 4;
  // rank = ceil(q * count), clamped to [1, count]; the answer is the upper
  // bound of the bucket where the cumulative count first reaches the rank.
  EXPECT_EQ(telemetry::hist_percentile(hv, 0.0), 0u);   // rank 1 -> bucket 0
  EXPECT_EQ(telemetry::hist_percentile(hv, 0.25), 0u);  // rank 1
  EXPECT_EQ(telemetry::hist_percentile(hv, 0.5), 1u);   // rank 2 -> bucket 1
  EXPECT_EQ(telemetry::hist_percentile(hv, 0.75), 3u);  // rank 3 -> bucket 2
  EXPECT_EQ(telemetry::hist_percentile(hv, 0.99), 3u);  // rank 4
  EXPECT_EQ(telemetry::hist_percentile(hv, 1.0), 3u);
  // Out-of-range quantiles clamp rather than misbehave.
  EXPECT_EQ(telemetry::hist_percentile(hv, -1.0), 0u);
  EXPECT_EQ(telemetry::hist_percentile(hv, 2.0), 3u);
  const telemetry::Percentiles p = telemetry::hist_percentiles(hv);
  EXPECT_EQ(p.p50, 1u);
  EXPECT_EQ(p.p90, 3u);
  EXPECT_EQ(p.p99, 3u);
  EXPECT_EQ(p.p999, 3u);
}

TEST(Telemetry, PercentilesOfEmptyHistogramAreZero) {
  const telemetry::HistogramValue empty{};
  EXPECT_EQ(telemetry::hist_percentile(empty, 0.5), 0u);
  const telemetry::Percentiles p = telemetry::hist_percentiles(empty);
  EXPECT_EQ(p.p50, 0u);
  EXPECT_EQ(p.p999, 0u);
}

TEST(Telemetry, PercentileClampsToTopBucket) {
  telemetry::HistogramValue hv{};
  hv.buckets[telemetry::kHistBuckets - 1] = 1;  // one enormous observation
  hv.count = 1;
  EXPECT_EQ(telemetry::hist_percentile(hv, 0.5),
            telemetry::hist_bucket_upper(telemetry::kHistBuckets - 1));
}

TEST(Telemetry, TraceRingKeepsNewestOnWrap) {
  telemetry::trace_configure(64);  // the minimum (and already a power of two)
  for (uint64_t i = 0; i < 100; ++i) {
    telemetry::trace(telemetry::Ev::kEioRetry, i);
  }
  const auto events = telemetry::trace_snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Oldest-first, and only the newest 64 of the 100 survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].type,
              static_cast<uint32_t>(telemetry::Ev::kEioRetry));
    EXPECT_EQ(events[i].a0, 36 + i);
  }
  telemetry::trace_configure(0);
}

TEST(Telemetry, TraceSerializeRoundTrips) {
  telemetry::trace_configure(64);
  telemetry::trace(telemetry::Ev::kAdoption, 3, 17);
  telemetry::trace(telemetry::Ev::kWatchdogRestart, 1'000'000);
  char buf[4096];
  const std::size_t n = telemetry::trace_serialize(buf, sizeof(buf));
  ASSERT_GT(n, 0u);
  const auto events = telemetry::trace_deserialize(buf, n);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, static_cast<uint32_t>(telemetry::Ev::kAdoption));
  EXPECT_EQ(events[0].a0, 3u);
  EXPECT_EQ(events[0].a1, 17u);
  EXPECT_EQ(events[1].type,
            static_cast<uint32_t>(telemetry::Ev::kWatchdogRestart));
  // Garbage does not parse.
  buf[0] ^= 0xff;
  EXPECT_TRUE(telemetry::trace_deserialize(buf, n).empty());
  telemetry::trace_configure(0);
}

TEST(Telemetry, MalformedEnvKnobsThrow) {
  // Validation is strict: a garbage knob must fail loudly, never silently
  // run without the telemetry the user asked for.
  ASSERT_EQ(setenv("MONTAGE_TRACE", "bogus", 1), 0);
  EXPECT_THROW(telemetry::init_from_env(), std::invalid_argument);
  ASSERT_EQ(unsetenv("MONTAGE_TRACE"), 0);
  ASSERT_EQ(setenv("MONTAGE_STATS", "7", 1), 0);
  EXPECT_THROW(telemetry::init_from_env(), std::invalid_argument);
  ASSERT_EQ(unsetenv("MONTAGE_STATS"), 0);
  EXPECT_NO_THROW(telemetry::init_from_env());
}

TEST(Telemetry, GaugesAppearInJsonUntilUnregistered) {
  const int id =
      telemetry::register_gauge("test.gauge", "units", [] { return 42u; });
  ASSERT_GE(id, 0);
  const std::string with = telemetry::stats_json();
  EXPECT_NE(with.find("\"test.gauge\""), std::string::npos);
  EXPECT_EQ(with.rfind("{\"counters\":", 0), 0u);
  telemetry::unregister_gauge(id);
  const std::string without = telemetry::stats_json();
  EXPECT_EQ(without.find("\"test.gauge\""), std::string::npos);
}

TEST(Telemetry, StatsJsonCoversInstrumentedRun) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  for (int i = 0; i < 8; ++i) {
    es->begin_op();
    es->pnew<PBlk>();
    es->end_op();
    es->sync();
  }
  EXPECT_GT(counter_named("epoch.ops_begun"), 0u);
  EXPECT_GT(counter_named("epoch.advances"), 0u);
  EXPECT_GT(counter_named("nvm.lines_flushed_total") +
                env.region()->stats().lines_flushed,
            0u);
  EXPECT_GT(hist_named("epoch.sync_latency_ns").count, 0u);
  const std::string json = telemetry::stats_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"epoch.advance_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"ralloc.superblocks\""), std::string::npos);
}

TEST(Telemetry, CrashDumpsTraceAnnexAndRecoveryRestoresIt) {
  PersistentEnv env(64 << 20, no_advancer());
  telemetry::trace_configure(1024);
  telemetry::trace_reset();
  EpochSys* es = env.esys();
  for (int i = 0; i < 4; ++i) {
    es->begin_op();
    es->pnew<PBlk>();
    es->end_op();
    es->sync();  // drives epoch advances -> kEpochAdvance trace events
  }
  // Arm a crash on the next persistence event and trip it.
  env.region()->crash_at_event(env.region()->persistence_events() + 1);
  bool crashed = false;
  try {
    es->begin_op();
    es->pnew<PBlk>();
    es->end_op();
    es->sync();
  } catch (const nvm::CrashPointException&) {
    crashed = true;
    es->abort_op();
  }
  ASSERT_TRUE(crashed);
  env.region()->clear_crash_schedule();

  // The crash engine dumped the live trace into the region's annex.
  const auto annex = env.region()->crash_trace();
  ASSERT_FALSE(annex.empty());
  const auto has = [](const std::vector<telemetry::TraceEvent>& evs,
                      telemetry::Ev type) {
    for (const auto& e : evs) {
      if (e.type == static_cast<uint32_t>(type)) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(annex, telemetry::Ev::kEpochAdvance));
  EXPECT_TRUE(has(annex, telemetry::Ev::kCrashDump));

  // Wipe the live ring: everything the post-recovery snapshot shows from
  // before the crash must have come back through the persistent annex.
  telemetry::trace_reset();
  env.crash_and_recover(1, no_advancer());
  const auto merged = telemetry::trace_snapshot();
  EXPECT_TRUE(has(merged, telemetry::Ev::kEpochAdvance));
  EXPECT_TRUE(has(merged, telemetry::Ev::kCrashDump));
  EXPECT_TRUE(has(merged, telemetry::Ev::kRecoveryPhase));
  // Recovery re-dumped the merged trace, so the annex now tells the whole
  // story too (through the final clock-published phase).
  const auto redumped = env.region()->crash_trace();
  bool clock_published = false;
  for (const auto& e : redumped) {
    if (e.type == static_cast<uint32_t>(telemetry::Ev::kRecoveryPhase) &&
        e.a0 == 3) {
      clock_published = true;
    }
  }
  EXPECT_TRUE(clock_published);
  telemetry::trace_configure(0);
}

}  // namespace
}  // namespace montage
