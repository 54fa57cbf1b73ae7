// Log-linear latency histogram (HdrHistogram-style bucketing).
//
// Values below 128 get one exact bucket each. Above that, every power of two
// [2^k, 2^(k+1)) is split into 64 equal sub-buckets, so a bucket is at most
// 1/64 of its lower bound wide. Reporting the bucket midpoint bounds the
// relative error of any percentile by 1/128 (< 1%). The registry's log2
// buckets, by contrast, report every op between 8 and 16 us as 16383 ns.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace suite {

class LogLinHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;  // 64
  static constexpr uint64_t kExact = 2 * kSub;               // 0..127 exact
  /// 128 exact buckets, then 64 per power of two for shifts 1..57.
  static constexpr int kBuckets = static_cast<int>(kExact + 57 * kSub);

  LogLinHist() : counts_(kBuckets, 0) {}

  static int bucket_of(uint64_t v) {
    if (v < kExact) return static_cast<int>(v);
    const int msb = 63 - std::countl_zero(v);  // >= 7
    const int shift = msb - kSubBits;          // >= 1
    const uint64_t top = v >> shift;           // in [64, 128)
    return static_cast<int>(kExact + (shift - 1) * kSub + (top - kSub));
  }

  /// Value reported for bucket `i`: exact below 128, else the midpoint of
  /// [top << shift, (top + 1) << shift).
  static double bucket_value(int i) {
    if (i < static_cast<int>(kExact)) return static_cast<double>(i);
    const uint64_t j = static_cast<uint64_t>(i) - kExact;
    const int shift = static_cast<int>(j / kSub) + 1;
    const uint64_t lo = (kSub + j % kSub) << shift;
    const uint64_t width = uint64_t{1} << shift;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }

  void record(uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
  }

  void merge(const LogLinHist& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }

  uint64_t count() const { return count_; }

  /// The value of the rank-ceil(q*count) sample (1-based, clamped to
  /// [1, count]), at bucket resolution; 0 for an empty histogram.
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return bucket_value(i);
    }
    return bucket_value(kBuckets - 1);
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

}  // namespace suite
