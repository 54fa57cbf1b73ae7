// Shared vocabulary of the montage_bench suite: run options, the phase plan,
// the result record every workload fills in, and how end-to-end values are
// summarized.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "loglin_hist.hpp"

namespace suite {

class Tracer;

struct RunOptions {
  uint64_t seed = 1;
  /// Total measured time: a warm-up of seconds/11, then kIntervals
  /// intervals of 2*seconds/11 (the default 22 s gives 2 s + 5 x 4 s).
  double seconds = 22.0;
  Tracer* tracer = nullptr;  ///< non-null only for a --trace run
  std::string run_dir;       ///< scratch files: server region, port file, log

  double warmup_s() const { return seconds / 11.0; }
  double interval_s() const { return 2.0 * seconds / 11.0; }
  /// Length of the --trace probe phase (2 s at the default length).
  double probe_s() const { return std::min(2.0, seconds / 11.0); }
};

inline constexpr int kIntervals = 5;
inline constexpr int kWorkerThreads = 4;  ///< library workloads, closed loop

/// Set-up and crash-restart recovery are each timed several times per run
/// and reported as the median: at least 3 repetitions, more while they have
/// taken under a second in total, at most 11. A 20 ms set-up gets 11
/// samples; a 1.5 s one gets 3.
inline bool another_rep(int done, uint64_t elapsed_ns) {
  return done < 3 || (done < 11 && elapsed_ns < 1'000'000'000ull);
}

/// Median and quartiles, computed as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method) computes them.
struct Summary {
  double median = 0, q1 = 0, q3 = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  auto cut = [&](long i) {  // i-th of the three cut points, 1-based
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.median = cut(2);
  s.q3 = cut(3);
  return s;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool e2e = false;  ///< end-to-end (else per-layer)
  bool has_quartiles = false;
  double q1 = 0, q3 = 0;
  /// Read from a registry histogram, whose buckets are powers of two: the
  /// value is the upper bound of the bucket holding the percentile.
  bool log2_resolution = false;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct WorkloadResult {
  std::string name;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  uint64_t attempted = 0;  ///< operations issued in the measured phases
  uint64_t failed = 0;     ///< exceptions, errors, timeouts, failed checks

  /// An end-to-end value with the quartiles of its parts (per-interval
  /// values, or the repetitions it is the median of).
  void e2e(const std::string& n, double v, const std::vector<double>& parts,
           const std::string& unit) {
    const Summary s = summarize(parts);
    metrics.push_back({n, v, unit, true, true, s.q1, s.q3, false});
  }
  void e2e(const std::string& n, double v, const std::string& unit) {
    metrics.push_back({n, v, unit, true, false, 0, 0, false});
  }
  void layer(const std::string& n, double v, const std::string& unit,
             bool log2 = false) {
    metrics.push_back({n, v, unit, false, false, 0, 0, log2});
  }
  void check(const std::string& n, bool ok, const std::string& detail) {
    checks.push_back({n, ok, detail});
    if (!ok) ++failed;
  }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
};

/// Throughput and latency over a run's measured intervals. The reported
/// value pools the whole window (all ops over all the time; percentiles of
/// every sample); the per-interval values give the quartiles. In one batch
/// of ten queue_1k runs the pooled throughput repeated within 1.1%
/// (IQR/median) against 5.5% for the median of five intervals; in another,
/// with the host drifting, both spread by about 10%.
class IntervalStats {
 public:
  void add(const LogLinHist& reads, const LogLinHist& writes, uint64_t ops,
           double seconds) {
    LogLinHist all;
    all.merge(reads);
    all.merge(writes);
    reads_.merge(reads);
    writes_.merge(writes);
    ops_ += ops;
    seconds_ += seconds;
    tput_.push_back(static_cast<double>(ops) / seconds);
    op50_.push_back(all.percentile(0.5) / 1e3);
    op99_.push_back(all.percentile(0.99) / 1e3);
    rd50_.push_back(reads.percentile(0.5) / 1e3);
    rd99_.push_back(reads.percentile(0.99) / 1e3);
    wr50_.push_back(writes.percentile(0.5) / 1e3);
    wr99_.push_back(writes.percentile(0.99) / 1e3);
  }

  uint64_t ops() const { return ops_; }
  double seconds() const { return seconds_; }
  /// Throughput of each interval, in order.
  const std::vector<double>& interval_throughput() const { return tput_; }

  void report_throughput(WorkloadResult& r) const {
    r.e2e("throughput_ops_per_s", static_cast<double>(ops_) / seconds_, tput_, "ops/s");
  }

  /// op_* always; read_* / write_* when the window had reads / writes.
  void report_latency(WorkloadResult& r) const {
    LogLinHist all;
    all.merge(reads_);
    all.merge(writes_);
    r.e2e("op_p50_us", all.percentile(0.5) / 1e3, op50_, "us");
    r.e2e("op_p99_us", all.percentile(0.99) / 1e3, op99_, "us");
    if (reads_.count() != 0) {
      r.e2e("read_p50_us", reads_.percentile(0.5) / 1e3, rd50_, "us");
      r.e2e("read_p99_us", reads_.percentile(0.99) / 1e3, rd99_, "us");
    }
    if (writes_.count() != 0) {
      r.e2e("write_p50_us", writes_.percentile(0.5) / 1e3, wr50_, "us");
      r.e2e("write_p99_us", writes_.percentile(0.99) / 1e3, wr99_, "us");
    }
  }

 private:
  LogLinHist reads_, writes_;
  uint64_t ops_ = 0;
  double seconds_ = 0;
  std::vector<double> tput_, op50_, op99_, rd50_, rd99_, wr50_, wr99_;
};

/// num / den, or 0 when nothing was attempted.
inline double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// splitmix64 finalizer: a bijection on 64-bit words, used to derive
/// per-thread RNG seeds and seed-dependent keys from --seed.
inline uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

WorkloadResult run_queue_1k(const RunOptions& o);
WorkloadResult run_map_write_1k(const RunOptions& o);
WorkloadResult run_map_read_16(const RunOptions& o);
WorkloadResult run_kv_server(const RunOptions& o);

}  // namespace suite
