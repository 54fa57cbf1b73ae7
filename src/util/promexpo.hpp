// Prometheus text exposition (format version 0.0.4) over the telemetry
// registry, plus a windowed snapshot differ deriving live rates. This is the
// rendering half of the live introspection plane (DESIGN.md §14); the KV
// server serves the output on `GET /metrics` from its admin listener.
//
// Mapping from the registry (dotted names) to Prometheus families:
//
//   counter  epoch.advances        -> montage_epoch_advances_total
//   gauge    region.lines          -> montage_region_lines
//   histogram epoch.sync_latency_ns -> montage_epoch_sync_latency_ns_bucket
//                                      {le="0"|"1"|"3"|...|"+Inf"} (cumulative)
//                                      + _sum + _count
//
// Bucket upper bounds come from telemetry::hist_bucket_upper (bit-width
// buckets), with the top bucket rendered as le="+Inf".
//
// The RateWindow keeps the last N timestamped snapshots and derives
// per-second rates and windowed percentiles from first/last deltas, so a
// scrape reports recent behaviour (ops/sec now, sync p99 over the window)
// instead of lifetime averages that flatten every transient. Rendered as:
//
//   montage_window_seconds                   span actually covered
//   montage_window_rate_per_sec{name="..."}  one row per registry counter
//   montage_window_quantile{hist="...",q="0.5"|"0.99"}  from bucket deltas
//
// lint() is a strict line-by-line validator of the exposition format — the
// unit tests and the scripts/check.sh scrape leg share it (via the
// metrics_lint tool), so "the server emitted it" and "Prometheus would
// accept it" stay the same predicate.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/telemetry.hpp"

namespace montage::promexpo {

/// A point-in-time capture of the telemetry registry with the timestamp it
/// was taken at (injected by the caller so tests can simulate time).
struct Snapshot {
  uint64_t t_ns;  ///< capture time, util::now_ns() domain
  std::vector<telemetry::CounterValue> counters;  ///< catalog order
  std::vector<telemetry::HistogramValue> hists;   ///< catalog order
};

/// Capture the registry now, stamped with `t_ns`.
Snapshot capture(uint64_t t_ns);

/// An extra gauge row supplied by the embedding process (dotted name, same
/// sanitization as registry rows): server connection counts, epoch clocks.
struct GaugeRow {
  std::string name;   ///< dotted, e.g. "server.curr_connections"
  std::string help;   ///< HELP text (plain words, no newlines)
  double value;       ///< sampled value
};

/// Number of snapshots a default-constructed RateWindow retains.
inline constexpr std::size_t kDefaultWindowSnapshots = 8;

/// Last-N snapshot ring deriving windowed rates. Not thread-safe — the
/// server guards it with its own mutex (pushed by the acceptor's 1 Hz tick,
/// read at scrape time).
class RateWindow {
 public:
  /// A window keeping the last `capacity` snapshots (>= 2).
  explicit RateWindow(std::size_t capacity = kDefaultWindowSnapshots);

  /// Append a snapshot, evicting the oldest beyond capacity. Pushes with a
  /// timestamp <= the newest snapshot's are ignored (time must advance).
  void push(Snapshot s);

  /// True once two snapshots span a nonzero interval — rates are defined.
  bool ready() const;

  /// Seconds between the oldest and newest retained snapshots (0 if !ready).
  double span_seconds() const;

  /// Per-second rate of counter `name` (dotted) across the window; 0 when
  /// not ready, the counter is unknown, or the delta is negative (reset).
  double counter_rate(std::string_view name) const;

  /// Percentile `q` of histogram `name` (dotted) over the window: bucket
  /// deltas newest-minus-oldest fed through telemetry::hist_percentile.
  /// 0 when not ready / unknown / no observations landed in the window.
  uint64_t window_percentile(std::string_view name, double q) const;

  /// Number of snapshots currently retained.
  std::size_t size() const { return snaps_.size(); }

 private:
  std::size_t cap_;
  std::deque<Snapshot> snaps_;
};

/// A dotted registry name as a Prometheus metric name: "montage_" prefix,
/// every character outside [a-zA-Z0-9_:] replaced with '_'.
std::string metric_name(std::string_view dotted);

/// Render the full exposition: registry counters as `montage_*_total`,
/// gauges as gauges, histograms as cumulative `_bucket`/`_sum`/`_count`
/// families, and — when `window` is non-null and ready — the windowed
/// rate/quantile families described above. Always includes `montage_up 1`.
/// The result passes lint().
std::string render(const Snapshot& snap, const std::vector<GaugeRow>& gauges,
                   const RateWindow* window);

/// Strict validator of a text-exposition payload. Returns the empty string
/// when `text` is well-formed, else "line N: <problem>" for the first
/// violation. Checks, beyond per-line syntax: TYPE precedes samples and
/// names one of counter|gauge|histogram; families are contiguous and never
/// reopened; no duplicate (name, labels) sample; histogram `_bucket` series
/// have strictly increasing `le`, non-decreasing (cumulative) counts, end at
/// le="+Inf", and agree with `_count`; the payload ends with a newline.
std::string lint(std::string_view text);

}  // namespace montage::promexpo
