// Perf-counter sampler tests: the graceful-degradation contract (disabled
// samplers read all-invalid and serialize as JSON nulls, MONTAGE_PERF=0
// forces every factory into that path), plus the live path — skipped, not
// failed, on hosts where the kernel refuses perf_event_open.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "util/perfcounters.hpp"
#include "util/telemetry.hpp"

namespace montage {
namespace {

TEST(PerfCounters, DisabledSamplerReadsAllInvalid) {
  util::PerfGroup g = util::PerfGroup::disabled();
  EXPECT_FALSE(g.available());
  g.start();  // all lifecycle calls are harmless no-ops when disabled
  g.stop();
  const util::PerfReading r = g.read();
  EXPECT_FALSE(r.any_valid());
  for (int i = 0; i < util::kNumPerfEvents; ++i) {
    EXPECT_FALSE(r.get(static_cast<util::PerfEvent>(i)).valid);
  }
  EXPECT_TRUE(g.register_telemetry_gauges().empty());
}

TEST(PerfCounters, InvalidReadingSerializesAsNulls) {
  const util::PerfReading r = util::PerfGroup::disabled().read();
  // Explicit nulls, never zeros: a consumer must be able to tell "not
  // measured" from "measured zero".
  EXPECT_EQ(r.to_json(),
            "{\"cycles\":null,\"instructions\":null,\"llc_misses\":null,"
            "\"task_clock_ns\":null}");
}

TEST(PerfCounters, EventNamesAreStable) {
  EXPECT_STREQ(util::perf_event_name(util::PerfEvent::kCycles), "cycles");
  EXPECT_STREQ(util::perf_event_name(util::PerfEvent::kInstructions),
               "instructions");
  EXPECT_STREQ(util::perf_event_name(util::PerfEvent::kLlcMisses),
               "llc_misses");
  EXPECT_STREQ(util::perf_event_name(util::PerfEvent::kTaskClockNs),
               "task_clock_ns");
}

TEST(PerfCounters, MontagePerfZeroForcesDisabled) {
  ASSERT_EQ(setenv("MONTAGE_PERF", "0", 1), 0);
  util::PerfGroup p = util::PerfGroup::process();
  EXPECT_FALSE(p.available());
  util::PerfGroup s = util::PerfGroup::self();
  EXPECT_FALSE(s.available());
  ASSERT_EQ(unsetenv("MONTAGE_PERF"), 0);
}

TEST(PerfCounters, MalformedMontagePerfThrows) {
  ASSERT_EQ(setenv("MONTAGE_PERF", "banana", 1), 0);
  EXPECT_THROW(util::PerfGroup::process(), std::invalid_argument);
  ASSERT_EQ(unsetenv("MONTAGE_PERF"), 0);
}

TEST(PerfCounters, SelfGroupCountsWorkWhenAvailable) {
  util::PerfGroup g = util::PerfGroup::self();
  if (!g.available()) {
    GTEST_SKIP() << "perf_event_open unavailable on this host";
  }
  g.start();
  // Burn some cycles the counters must see.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 2'000'000; ++i) sink = sink + i;
  g.stop();
  const util::PerfReading r = g.read();
  EXPECT_TRUE(r.any_valid());
  // task-clock is a software event: if anything opened, it did, and it must
  // have advanced during the busy loop.
  const util::PerfValue tc = r.get(util::PerfEvent::kTaskClockNs);
  if (tc.valid) {
    EXPECT_GT(tc.value, 0u);
  }
  const util::PerfValue ins = r.get(util::PerfEvent::kInstructions);
  if (ins.valid) {
    EXPECT_GT(ins.value, 1'000'000u);
  }
}

TEST(PerfCounters, PerfScopeAccumulatesAcrossSections) {
  util::PerfGroup g = util::PerfGroup::self();
  if (!g.available()) {
    GTEST_SKIP() << "perf_event_open unavailable on this host";
  }
  util::PerfReading acc{};
  for (int section = 0; section < 2; ++section) {
    util::PerfScope scope(g, acc);
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 500'000; ++i) sink = sink + i;
  }
  EXPECT_TRUE(acc.any_valid());
  const util::PerfValue tc = acc.get(util::PerfEvent::kTaskClockNs);
  if (tc.valid) {
    EXPECT_GT(tc.value, 0u);
  }
}

TEST(PerfCounters, ProcessModeCountsSpawnedThreads) {
  util::PerfGroup g = util::PerfGroup::process();
  if (!g.available()) {
    GTEST_SKIP() << "perf_event_open unavailable on this host";
  }
  g.start();
  std::thread worker([] {
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 1'000'000; ++i) sink = sink + i;
  });
  worker.join();
  g.stop();
  EXPECT_TRUE(g.read().any_valid());
}

TEST(PerfCounters, GaugesAppearInStatsJsonWhenAvailable) {
  util::PerfGroup g = util::PerfGroup::process();
  if (!g.available()) {
    GTEST_SKIP() << "perf_event_open unavailable on this host";
  }
  g.start();
  const std::vector<int> ids = g.register_telemetry_gauges();
  ASSERT_FALSE(ids.empty());
  const std::string json = telemetry::stats_json();
  EXPECT_NE(json.find("\"perf."), std::string::npos);
  util::unregister_perf_gauges(ids);
  EXPECT_EQ(telemetry::stats_json().find("\"perf."), std::string::npos);
}

}  // namespace
}  // namespace montage
