// Unit tests for the Prometheus exposition renderer, its strict linter, and
// the windowed-rate snapshot differ (DESIGN.md §14). The render tests go
// through the same lint() the scripts/check.sh scrape leg uses, so "the
// renderer emitted it" and "the CI validator accepts it" stay one predicate.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/promexpo.hpp"
#include "util/telemetry.hpp"

namespace montage {
namespace {

using promexpo::GaugeRow;
using promexpo::RateWindow;
using promexpo::Snapshot;

/// Shorthand: lint and return the message (empty == valid).
std::string lint_of(const std::string& text) { return promexpo::lint(text); }

TEST(Promexpo, MetricNameMapsDottedAndSanitizes) {
  EXPECT_EQ(promexpo::metric_name("epoch.advances"), "montage_epoch_advances");
  EXPECT_EQ(promexpo::metric_name("epoch.sync_latency_ns"),
            "montage_epoch_sync_latency_ns");
  // Anything outside [a-zA-Z0-9_:] becomes '_'.
  EXPECT_EQ(promexpo::metric_name("weird-name with/chars"),
            "montage_weird_name_with_chars");
}

TEST(Promexpo, RenderPassesOwnLintAndCarriesBuildRows) {
  const Snapshot snap = promexpo::capture(1'000'000'000ull);
  const std::vector<GaugeRow> gauges = {
      {"server.curr_connections", "open connections", 3.0}};
  const std::string text = promexpo::render(snap, gauges, nullptr);
  EXPECT_EQ(lint_of(text), "") << text.substr(0, 400);
  EXPECT_NE(text.find("montage_up 1\n"), std::string::npos);
  // Registry counters render as counter families with the _total suffix.
  EXPECT_NE(text.find("# TYPE montage_server_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("montage_server_curr_connections 3\n"),
            std::string::npos);
}

TEST(Promexpo, TotalSuffixIsNeverDoubled) {
  // Registry names like nvm.lines_flushed_total already end in _total; the
  // renderer must not emit montage_nvm_lines_flushed_total_total.
  const Snapshot snap{1, {{"nvm.lines_flushed_total", "lines", 7}}, {}};
  const std::string text = promexpo::render(snap, {}, nullptr);
  EXPECT_EQ(lint_of(text), "");
  EXPECT_NE(text.find("montage_nvm_lines_flushed_total 7\n"),
            std::string::npos);
  EXPECT_EQ(text.find("_total_total"), std::string::npos) << text;
}

TEST(Promexpo, RegistryHistogramRendersCumulativeBuckets) {
  // Feed one histogram a known spread, then verify the rendered buckets are
  // cumulative, end at +Inf, and agree with _count.
  telemetry::observe(telemetry::Hist::kSyncLatency, 5);
  telemetry::observe(telemetry::Hist::kSyncLatency, 5);
  telemetry::observe(telemetry::Hist::kSyncLatency, 1'000'000);
  const Snapshot snap = promexpo::capture(1);
  const std::string text = promexpo::render(snap, {}, nullptr);
  ASSERT_EQ(lint_of(text), "") << text.substr(0, 400);

  const std::string base = "montage_epoch_sync_latency_ns";
  uint64_t prev = 0;
  uint64_t last_bucket = 0;
  bool saw_inf = false;
  std::size_t pos = 0;
  while ((pos = text.find(base + "_bucket{le=", pos)) != std::string::npos) {
    const std::size_t val_at = text.find("} ", pos);
    ASSERT_NE(val_at, std::string::npos);
    const uint64_t v = std::strtoull(text.c_str() + val_at + 2, nullptr, 10);
    EXPECT_GE(v, prev) << "buckets must be cumulative";
    prev = v;
    last_bucket = v;
    saw_inf = text.compare(pos, base.size() + 17, base + "_bucket{le=\"+Inf\"") == 0;
    pos = val_at;
  }
  EXPECT_TRUE(saw_inf) << "last bucket series entry must be le=\"+Inf\"";
  const std::string count_tag = base + "_count ";
  const std::size_t count_at = text.find(count_tag);
  ASSERT_NE(count_at, std::string::npos);
  const uint64_t count =
      std::strtoull(text.c_str() + count_at + count_tag.size(), nullptr, 10);
  EXPECT_EQ(count, last_bucket) << "+Inf bucket must equal _count";
  EXPECT_GE(count, 3u);
  EXPECT_NE(text.find(base + "_sum "), std::string::npos);
}

TEST(Promexpo, LintAcceptsEscapedLabelsAndSpecialValues) {
  const std::string ok =
      "# HELP m_a a counter\n"
      "# TYPE m_a counter\n"
      "m_a{path=\"C:\\\\dir\",note=\"say \\\"hi\\\"\\n\"} 3\n"
      "# TYPE m_b gauge\n"
      "m_b +Inf\n"
      "# TYPE m_c gauge\n"
      "m_c NaN\n";
  EXPECT_EQ(lint_of(ok), "");
}

TEST(Promexpo, LintRejectsStructuralViolations) {
  // Missing trailing newline.
  EXPECT_NE(lint_of("# TYPE a counter\na 1"), "");
  // Sample with no preceding TYPE.
  EXPECT_NE(lint_of("a 1\n"), "");
  // Unknown TYPE keyword.
  EXPECT_NE(lint_of("# TYPE a summary\na 1\n"), "");
  // Duplicate TYPE for the same family.
  EXPECT_NE(lint_of("# TYPE a counter\na 1\n# TYPE a counter\n"), "");
  // Family reopened after a different family's samples.
  EXPECT_NE(lint_of("# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n"),
            "");
  // Duplicate (name, labels) sample.
  EXPECT_NE(lint_of("# TYPE a counter\na 1\na 2\n"), "");
  // Negative counter value.
  EXPECT_NE(lint_of("# TYPE a counter\na -1\n"), "");
  // Timestamps are not part of this exposition.
  EXPECT_NE(lint_of("# TYPE a counter\na 1 1700000000\n"), "");
}

TEST(Promexpo, LintEnforcesHistogramInvariants) {
  const std::string good =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 2\n"
      "h_bucket{le=\"4\"} 5\n"
      "h_bucket{le=\"+Inf\"} 6\n"
      "h_sum 19\n"
      "h_count 6\n";
  EXPECT_EQ(lint_of(good), "");
  // Non-cumulative bucket counts.
  EXPECT_NE(lint_of("# TYPE h histogram\n"
                    "h_bucket{le=\"1\"} 5\n"
                    "h_bucket{le=\"4\"} 2\n"
                    "h_bucket{le=\"+Inf\"} 6\n"
                    "h_sum 1\nh_count 6\n"),
            "");
  // le values out of order.
  EXPECT_NE(lint_of("# TYPE h histogram\n"
                    "h_bucket{le=\"4\"} 2\n"
                    "h_bucket{le=\"1\"} 2\n"
                    "h_bucket{le=\"+Inf\"} 6\n"
                    "h_sum 1\nh_count 6\n"),
            "");
  // Missing +Inf bucket.
  EXPECT_NE(lint_of("# TYPE h histogram\n"
                    "h_bucket{le=\"1\"} 2\n"
                    "h_sum 1\nh_count 2\n"),
            "");
  // _count disagrees with the +Inf bucket.
  EXPECT_NE(lint_of("# TYPE h histogram\n"
                    "h_bucket{le=\"+Inf\"} 6\n"
                    "h_sum 1\nh_count 7\n"),
            "");
  // Missing _sum.
  EXPECT_NE(lint_of("# TYPE h histogram\n"
                    "h_bucket{le=\"+Inf\"} 6\n"
                    "h_count 6\n"),
            "");
}

// ---- RateWindow: rates and percentiles from simulated snapshots ------------

/// A synthetic snapshot holding one counter and one histogram with known
/// identity strings (matching telemetry catalog naming conventions).
Snapshot synth(uint64_t t_ns, uint64_t ctr_value,
               const std::vector<std::pair<int, uint64_t>>& hist_buckets = {}) {
  Snapshot s;
  s.t_ns = t_ns;
  s.counters.push_back(
      telemetry::CounterValue{"epoch.advances", "advances", ctr_value});
  telemetry::HistogramValue hv{};
  hv.name = "epoch.sync_latency_ns";
  hv.unit = "ns";
  std::memset(hv.buckets, 0, sizeof hv.buckets);
  for (const auto& [idx, n] : hist_buckets) {
    hv.buckets[idx] = n;
    hv.count += n;
  }
  s.hists.push_back(hv);
  return s;
}

TEST(RateWindow, NotReadyUntilTwoSnapshotsSpanTime) {
  RateWindow w(4);
  EXPECT_FALSE(w.ready());
  EXPECT_EQ(w.span_seconds(), 0.0);
  EXPECT_EQ(w.counter_rate("epoch.advances"), 0.0);
  w.push(synth(1'000'000'000ull, 10));
  EXPECT_FALSE(w.ready()) << "one snapshot cannot define a rate";
  // A push that does not advance time is ignored.
  w.push(synth(1'000'000'000ull, 99));
  EXPECT_EQ(w.size(), 1u);
  w.push(synth(3'000'000'000ull, 210));
  EXPECT_TRUE(w.ready());
}

TEST(RateWindow, CounterRateIsDeltaOverSpan) {
  RateWindow w(8);
  w.push(synth(1'000'000'000ull, 100));
  w.push(synth(3'000'000'000ull, 300));
  EXPECT_DOUBLE_EQ(w.span_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(w.counter_rate("epoch.advances"), 100.0);
  // Unknown counters and negative deltas (restart) read as 0, never junk.
  EXPECT_EQ(w.counter_rate("no.such.counter"), 0.0);
  RateWindow reset(4);
  reset.push(synth(1'000'000'000ull, 500));
  reset.push(synth(2'000'000'000ull, 100));
  EXPECT_EQ(reset.counter_rate("epoch.advances"), 0.0);
}

TEST(RateWindow, EvictsOldestBeyondCapacityAndClampsTiny) {
  RateWindow w(1);  // clamped up to 2: a 1-deep window can never rate
  w.push(synth(1'000'000'000ull, 0));
  w.push(synth(2'000'000'000ull, 10));
  EXPECT_EQ(w.size(), 2u);
  EXPECT_TRUE(w.ready());

  RateWindow ring(3);
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.push(synth(i * 1'000'000'000ull, i * 100));
  }
  EXPECT_EQ(ring.size(), 3u);
  // Oldest retained is t=8s/v=800, newest t=10s/v=1000: 200 over 2 s.
  EXPECT_DOUBLE_EQ(ring.span_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(ring.counter_rate("epoch.advances"), 100.0);
}

TEST(RateWindow, WindowPercentileUsesBucketDeltas) {
  // Oldest snapshot carries 50 old observations in bucket 10; the window's
  // new traffic lands 100 observations in bucket 3 and 1 in bucket 20. The
  // windowed percentile must reflect only the delta, not the lifetime blend.
  RateWindow w(4);
  w.push(synth(1'000'000'000ull, 0, {{10, 50}}));
  w.push(synth(2'000'000'000ull, 0, {{10, 50}, {3, 100}, {20, 1}}));
  const uint64_t p50 = w.window_percentile("epoch.sync_latency_ns", 0.50);
  EXPECT_EQ(p50, telemetry::hist_bucket_upper(3));
  const uint64_t p999 = w.window_percentile("epoch.sync_latency_ns", 0.999);
  EXPECT_EQ(p999, telemetry::hist_bucket_upper(20));
  // No observations in the window -> 0.
  RateWindow idle(4);
  idle.push(synth(1'000'000'000ull, 0, {{10, 50}}));
  idle.push(synth(2'000'000'000ull, 0, {{10, 50}}));
  EXPECT_EQ(idle.window_percentile("epoch.sync_latency_ns", 0.99), 0u);
  EXPECT_EQ(w.window_percentile("no.such.hist", 0.5), 0u);
}

TEST(RateWindow, RenderEmitsWindowFamiliesOnceReady) {
  RateWindow w(4);
  w.push(synth(1'000'000'000ull, 100));
  const Snapshot current = synth(2'000'000'000ull, 400);
  // Window not ready yet (single snapshot): no window families rendered.
  std::string text = promexpo::render(current, {}, &w);
  EXPECT_EQ(lint_of(text), "");
  EXPECT_EQ(text.find("montage_window_seconds"), std::string::npos);
  w.push(current);
  text = promexpo::render(current, {}, &w);
  EXPECT_EQ(lint_of(text), "") << text.substr(0, 400);
  EXPECT_NE(text.find("montage_window_seconds 1\n"), std::string::npos);
  EXPECT_NE(
      text.find(
          "montage_window_rate_per_sec{name=\"epoch_advances\"} 300\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("montage_window_quantile{hist=\"epoch_sync_latency_ns\""),
            std::string::npos);
}

}  // namespace
}  // namespace montage
