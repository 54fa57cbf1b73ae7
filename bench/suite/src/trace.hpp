// Bench-side spans for a --trace run, kept in memory and written at exit as
// Chrome trace-event JSON (viewable in Perfetto or chrome://tracing).
//
// Spans wrap the suite's own calls into each layer: sampled data-structure
// calls, sync() and recovery, set-up, and client requests to the server.
// Each span names its layer as the category and the span that caused it as
// `parent` (the phase it ran in).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/timing.hpp"

namespace suite {

struct Span {
  const char* name;  ///< static string
  const char* cat;   ///< layer: ds, montage, ralloc, nvm, server, client, bench
  uint64_t t0_ns;
  uint64_t t1_ns;
  uint32_t tid;
  uint64_t id;
  uint64_t parent;  ///< 0 = none
};

class Tracer {
 public:
  /// Per-request spans are recorded in the warm-up (phase 0) and in odd
  /// measured intervals only, so the even intervals measure what tracing
  /// costs (overhead_ratio).
  static bool sampling_phase(int phase) { return phase == 0 || phase % 2 == 1; }

  /// Untraced over traced throughput: the mean of intervals 2 and 4 over
  /// the mean of intervals 1, 3 and 5 (`tput` holds intervals 1..5).
  static double overhead_ratio(const std::vector<double>& tput) {
    const double traced = (tput[0] + tput[2] + tput[4]) / 3;
    return traced > 0 ? (tput[1] + tput[3]) / 2 / traced : 0.0;
  }

  uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Start attributing spans to a new workload (a trace "process").
  void begin_workload(const std::string& name);

  void add(const Span& s);
  void add(const std::vector<Span>& spans, uint64_t dropped);

  /// Write the Chrome trace-event JSON; false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::atomic<uint64_t> ids_{0};
  mutable std::mutex m_;
  std::vector<std::pair<int, Span>> spans_;  ///< (workload index, span)
  std::vector<std::string> workloads_;
  uint64_t dropped_ = 0;
};

/// One thread's sampled per-request spans: at most one per millisecond, at
/// most kMaxSpans (later ones are counted as dropped), handed to the Tracer
/// when the thread is done.
class SpanSampler {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 18;
  static constexpr uint64_t kEveryNs = 1'000'000;

  void offer(Tracer& tr, const char* name, const char* cat, uint64_t t0,
             uint64_t t1, uint32_t tid, uint64_t parent) {
    if (t1 - last_ns_ < kEveryNs) return;
    last_ns_ = t1;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back({name, cat, t0, t1, tid, tr.next_id(), parent});
    } else {
      ++dropped_;
    }
  }
  void hand_to(Tracer& tr) const { tr.add(spans_, dropped_); }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  uint64_t last_ns_ = 0;
};

/// Records one span of the main thread (trace tid 0) from construction to
/// destruction; does nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* cat,
             uint64_t parent = 0)
      : tracer_(tracer),
        span_{name, cat, montage::util::now_ns(), 0, 0,
              tracer != nullptr ? tracer->next_id() : 0, parent} {}
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.t1_ns = montage::util::now_ns();
    tracer_->add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace suite
