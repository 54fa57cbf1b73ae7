// LogLinHist against a sorted-vector reference: for several distributions,
// every reported percentile must be within 2% of the exact order statistic
// (the bucketing guarantees < 1%), and small values must be exact.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "loglin_hist.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: got %.3f want %.3f\n", what, got, want);
    ++failures;
  }
}

void check_against_reference(const char* name, const std::vector<uint64_t>& values) {
  suite::LogLinHist h;
  for (uint64_t v : values) h.record(v);
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  expect(h.count() == values.size(), name, static_cast<double>(h.count()),
         static_cast<double>(values.size()));
  for (double q : {0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * sorted.size()));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    const double want = static_cast<double>(sorted[rank - 1]);
    const double got = h.percentile(q);
    const double err = want == 0 ? std::abs(got) : std::abs(got - want) / want;
    expect(err <= 0.02, name, got, want);
  }
}

}  // namespace

int main() {
  std::mt19937_64 rng(42);

  // Log-uniform latencies from 50 ns to 50 ms: every bucket scale.
  std::vector<uint64_t> logu;
  std::uniform_real_distribution<double> exp10(std::log(50.0), std::log(5e7));
  for (int i = 0; i < 200'000; ++i) {
    logu.push_back(static_cast<uint64_t>(std::exp(exp10(rng))));
  }
  check_against_reference("log-uniform", logu);

  // Ops clustered between 8 and 16 us, where log2 buckets report 16383 for
  // all of them: the percentiles must still be told apart.
  std::vector<uint64_t> narrow;
  std::uniform_int_distribution<uint64_t> band(8'000, 16'000);
  for (int i = 0; i < 100'000; ++i) narrow.push_back(band(rng));
  check_against_reference("8-16us", narrow);
  suite::LogLinHist nh;
  for (uint64_t v : narrow) nh.record(v);
  expect(nh.percentile(0.9) - nh.percentile(0.1) > 5'000, "8-16us spread",
         nh.percentile(0.9) - nh.percentile(0.1), 6'400);

  // Heavy tail: mostly ~2 us with rare multi-millisecond stalls.
  std::vector<uint64_t> tail;
  std::lognormal_distribution<double> body(std::log(2'000.0), 0.3);
  for (int i = 0; i < 100'000; ++i) {
    tail.push_back(i % 500 == 0 ? 3'000'000 + i : static_cast<uint64_t>(body(rng)));
  }
  check_against_reference("heavy-tail", tail);

  // Values below 128 are recorded exactly; huge values do not overflow.
  for (uint64_t v = 0; v < 128; ++v) {
    suite::LogLinHist h;
    h.record(v);
    expect(h.percentile(0.5) == static_cast<double>(v), "exact small", h.percentile(0.5),
           static_cast<double>(v));
  }
  suite::LogLinHist big;
  big.record(UINT64_MAX);
  expect(std::abs(big.percentile(1.0) / 1.8446744073709552e19 - 1.0) < 0.01,
         "max value", big.percentile(1.0), 1.8446744073709552e19);
  expect(suite::LogLinHist::bucket_of(UINT64_MAX) == suite::LogLinHist::kBuckets - 1,
         "last bucket", suite::LogLinHist::bucket_of(UINT64_MAX),
         suite::LogLinHist::kBuckets - 1);

  // Merging two histograms equals recording everything into one.
  suite::LogLinHist a, b, both;
  for (std::size_t i = 0; i < logu.size(); ++i) {
    (i % 2 ? a : b).record(logu[i]);
    both.record(logu[i]);
  }
  a.merge(b);
  for (double q : {0.5, 0.99}) {
    expect(a.percentile(q) == both.percentile(q), "merge", a.percentile(q),
           both.percentile(q));
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d failures\n", failures);
    return 1;
  }
  std::printf("loglin_hist_test: ok\n");
  return 0;
}
