// Unified runtime telemetry: a process-wide metrics registry (counters,
// fixed-bucket latency histograms, late-bound gauges) plus a bounded
// ring-buffer event trace. DESIGN.md §9 documents the metric catalog and the
// trace schema.
//
// Two layers with different lifetimes:
//
//  * ShardedCounter — an always-available primitive (compiled regardless of
//    the kill switch): one cache-line-padded slot per thread, relaxed
//    increments on the owner's slot, aggregate-on-read. nvm::Region's
//    flush/fence statistics are built on it so a stats() snapshot never
//    observes a torn, contended pair of process-wide atomics.
//
//  * The registry + trace — instrumentation recorded from EpochSys, DCSS,
//    the hazard domain, Ralloc and nvm::Region. Compiled to
//    empty inlines when the CMake option MONTAGE_TELEMETRY is OFF
//    (-DMONTAGE_TELEMETRY_DISABLED), so the kill switch has zero overhead;
//    when compiled in, the record path is lock-free (per-thread padded slots,
//    relaxed atomics) and all aggregation happens on the reader's side.
//
// Runtime gating (values are validated with env_u64_checked — garbage
// throws instead of silently disabling telemetry a test believes is armed):
//
//   MONTAGE_TRACE=<n>  0 = trace off (default); 1 = on with the default
//                      4096-event ring; n >= 2 = on with capacity n
//                      (rounded up to a power of two, clamped to 2^20).
//   MONTAGE_STATS=<n>  0 = nothing (default); 1 = dump text to stderr at
//                      exit; 2 = dump JSON to stderr at exit.
//
// The trace can be serialized into a small persistent annex inside the
// nvm::Region header (see Region::dump_trace_annex): the deterministic
// crash engine dumps it at the instant an armed crash fires — emulating the
// eADR-style flush-on-power-fail window real platforms give firmware — so a
// post-crash trace survives in the region and EpochSys::recover() can
// restore and extend it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "util/padded.hpp"
#include "util/threadid.hpp"
#include "util/timing.hpp"

#if defined(MONTAGE_TELEMETRY_DISABLED)
#define MONTAGE_TELEMETRY_ENABLED 0
#else
#define MONTAGE_TELEMETRY_ENABLED 1
#endif

namespace montage::telemetry {

/// True when instrumentation is compiled in (CMake option MONTAGE_TELEMETRY).
inline constexpr bool kEnabled = MONTAGE_TELEMETRY_ENABLED != 0;

// ---- always-available sharded primitive -------------------------------------

/// A counter sharded over cache-line-padded per-thread slots: add() is a
/// relaxed increment of the calling thread's own line (lock-free, no
/// cross-thread traffic); read() aggregates all slots. Writers never block
/// readers and a read is a consistent monotone sample of concurrent adds.
/// NOT gated by the kill switch — infrastructure (nvm::Region stats) relies
/// on it unconditionally.
class ShardedCounter {
 public:
  static constexpr int kShards = util::ThreadIdPool::kMaxThreads;

  /// Add `n` to the calling thread's shard (relaxed, lock-free).
  void add(uint64_t n = 1) {
    shards_[util::thread_id()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Aggregate-on-read: the sum of every shard at this instant.
  uint64_t read() const {
    uint64_t total = 0;
    for (int i = 0; i < kShards; ++i) {
      total += shards_[i].value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zero every shard (racing adds may survive into the next read).
  void reset() {
    for (int i = 0; i < kShards; ++i) {
      shards_[i].value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  util::Padded<std::atomic<uint64_t>> shards_[kShards];
};

// ---- metric identifiers ------------------------------------------------------

/// Counter slots. The catalog (name, unit, recording site, cost) lives in
/// DESIGN.md §9; detail::kCounterMeta carries name and unit for dumps.
enum class Ctr : uint32_t {
  kOpsBegun,
  kOpsAborted,
  kEpochAdvances,
  kWbBoundary,
  kWbOverflow,
  kWbHelp,
  kWbDirect,
  kBlocksReclaimed,
  kSyncCalls,
  kSyncFast,
  kSyncTimeouts,
  kAdoptions,
  kWatchdogAlarms,
  kCooperativeAdvances,
  kSyncHelpedPayloads,
  kEioRetries,
  kPersistErrors,
  kOsnExceptions,
  kCasVerifyCalls,
  kCasVerifyRetries,
  kCasVerifyEpochFails,
  kHazardRetired,
  kHazardReclaimed,
  kHazardOrphaned,
  kRallocAllocs,
  kRallocFrees,
  kRallocSuperblocks,
  kRallocHugeAllocs,
  kNvmLinesFlushed,
  kNvmFences,
  kNvmEioInjected,
  kSrvConnsAccepted,
  kSrvConnsShed,
  kSrvRequests,
  kSrvRequestsShed,
  kSrvIdleClosed,
  kSrvStallClosed,
  kSrvBackpressure,
  kSrvSyncBatches,
  kSrvSyncPathSyncer,
  kSrvSyncPathCaller,
  kSrvSlowOps,
  kSrvAdminRequests,
  kEpochAdvanceLockWaits,
  kRallocArenaRefills,
  kCount,
};

/// Fixed-bucket histogram slots. Bucket `i` holds values whose bit width is
/// `i` — i.e. bucket 0 holds 0, bucket i (i >= 1) holds [2^(i-1), 2^i) —
/// with the last bucket absorbing everything wider.
enum class Hist : uint32_t {
  kAdvanceLatency,
  kSyncLatency,
  kDrainBatch,
  kReclaimBatch,
  kBenchOpLatency,
  kSrvAckLag,
  kSrvDrainLatency,
  kCount,
};

inline constexpr int kNumCounters = static_cast<int>(Ctr::kCount);
inline constexpr int kNumHists = static_cast<int>(Hist::kCount);
inline constexpr int kHistBuckets = 36;

/// Trace event types (schema in DESIGN.md §9).
enum class Ev : uint32_t {
  kEpochAdvance = 1,    ///< a0 = new clock value, a1 = blocks written back
  kAdoption = 2,        ///< a0 = victim thread id, a1 = adopted epoch
  kWatchdogRestart = 3, ///< a0 = ns since the last observed tick
  kEioRetry = 4,        ///< a0 = retry attempt number
  kPersistError = 5,    ///< a0 = attempts made before giving up
  kRecoveryPhase = 6,   ///< a0 = phase id (0 scan-begin, 1 scan-end,
                        ///<      2 resolve-end, 3 clock-published), a1 = aux
  kCrashDump = 7,       ///< a0 = persistence-event index that crashed
  kSyncSlow = 8,        ///< a0 = epochs advanced on behalf of the caller
};

/// One trace record: 32 bytes, fixed layout (also the persistent annex
/// element — see trace_serialize/trace_deserialize).
struct TraceEvent {
  uint64_t ts_ns;  ///< util::now_ns() at the recording site
  uint32_t tid;    ///< util::thread_id() of the recorder
  uint32_t type;   ///< Ev enumerator
  uint64_t a0;     ///< event-specific payload (see Ev)
  uint64_t a1;     ///< event-specific payload (see Ev)
};

// ---- aggregated snapshots ----------------------------------------------------

/// One counter's aggregated value with its catalog identity.
struct CounterValue {
  const char* name;
  const char* unit;
  uint64_t value;
};

/// One late-bound gauge sampled at snapshot time (same-name gauges summed).
/// Unlike CounterValue the identity strings are owned: gauge names come from
/// register_gauge callers, not the static catalog.
struct GaugeValue {
  std::string name;
  std::string unit;
  uint64_t value;
};

/// One histogram's aggregated buckets with catalog identity; `count` is the
/// sum of buckets, `sum` the sum of observed values.
struct HistogramValue {
  const char* name;
  const char* unit;
  uint64_t count;
  uint64_t sum;
  uint64_t buckets[kHistBuckets];
};

/// The standard percentile summary extracted from a histogram's buckets.
struct Percentiles {
  uint64_t p50;
  uint64_t p90;
  uint64_t p99;
  uint64_t p999;
};

/// Histogram bucket index for value `v`: its bit width (bucket 0 holds 0,
/// bucket i >= 1 holds [2^(i-1), 2^i)), clamped to the top bucket. Available
/// in both build flavours — bench-side recorders share the bucket scheme.
inline int hist_bucket_of(uint64_t v) {
  int w = 0;
  while (v != 0) {
    v >>= 1;
    ++w;
  }
  return w < kHistBuckets ? w : kHistBuckets - 1;
}

#if MONTAGE_TELEMETRY_ENABLED

namespace detail {

/// Per-thread metric storage: one padded block per thread so the record path
/// never shares a cache line across threads.
struct alignas(util::kCacheLineSize) ThreadSlots {
  std::atomic<uint64_t> counters[kNumCounters];
  std::atomic<uint64_t> hist[kNumHists][kHistBuckets];
  std::atomic<uint64_t> hist_sum[kNumHists];
};

extern ThreadSlots g_slots[util::ThreadIdPool::kMaxThreads];
extern std::atomic<bool> g_trace_on;

/// Out-of-line ring append for trace() once the armed check passed.
void trace_slow(Ev type, uint64_t a0, uint64_t a1);

}  // namespace detail

// ---- lock-free record path ---------------------------------------------------

/// Add `n` to counter `c` on the calling thread's private slot (relaxed).
inline void count(Ctr c, uint64_t n = 1) {
  detail::g_slots[util::thread_id()]
      .counters[static_cast<uint32_t>(c)]
      .fetch_add(n, std::memory_order_relaxed);
}

/// Record one observation of `v` into histogram `h` (relaxed, lock-free).
inline void observe(Hist h, uint64_t v) {
  auto& slots = detail::g_slots[util::thread_id()];
  const uint32_t hi = static_cast<uint32_t>(h);
  slots.hist[hi][hist_bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  slots.hist_sum[hi].fetch_add(v, std::memory_order_relaxed);
}

/// True when the event trace is armed (MONTAGE_TRACE / trace_configure).
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Record a trace event; a single relaxed load when tracing is off.
inline void trace(Ev type, uint64_t a0 = 0, uint64_t a1 = 0) {
  if (trace_enabled()) detail::trace_slow(type, a0, a1);
}

/// now_ns() when telemetry is compiled in, 0 (no clock read) when it is not.
/// For manual interval timing whose observe() sits on a different path than
/// the start timestamp (see EpochSys::try_advance_epoch).
inline uint64_t now_if_enabled() { return util::now_ns(); }

/// RAII interval timer: observes the elapsed ns into `h` at scope exit.
/// Compiles to nothing when the kill switch is off.
class ScopedTimer {
 public:
  /// Start timing an interval destined for histogram `h`.
  explicit ScopedTimer(Hist h) : h_(h), t0_(util::now_ns()) {}
  /// Observe the elapsed nanoseconds into the histogram.
  ~ScopedTimer() { observe(h_, util::now_ns() - t0_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Hist h_;
  uint64_t t0_;
};

#else  // MONTAGE_TELEMETRY_ENABLED

// Kill-switch flavour: the record path compiles to nothing.
inline void count(Ctr, uint64_t = 1) {}        ///< no-op (telemetry off)
inline void observe(Hist, uint64_t) {}         ///< no-op (telemetry off)
inline bool trace_enabled() { return false; }  ///< always false when off
inline void trace(Ev, uint64_t = 0, uint64_t = 0) {}  ///< no-op
inline uint64_t now_if_enabled() { return 0; }  ///< 0: no clock read when off
class ScopedTimer {
 public:
  explicit ScopedTimer(Hist) {}  ///< no-op (telemetry off)
};

#endif  // MONTAGE_TELEMETRY_ENABLED

// ---- configuration -----------------------------------------------------------
// All of the functions below exist in both build flavours; with the kill
// switch off they are no-ops returning empty data, so callers (benches,
// Region, tests) never need their own #if.

/// (Re)read MONTAGE_TRACE / MONTAGE_STATS and apply them: configures the
/// trace ring and registers the at-exit stats dump (once). Called by the
/// nvm::Region constructor so any Montage stack picks the knobs up; safe to
/// call repeatedly. Throws std::invalid_argument on malformed values.
void init_from_env();

/// Arm the event trace with a ring of `capacity` events (rounded up to a
/// power of two, clamped to [64, 2^20]); 0 disarms. Not thread-safe against
/// concurrent reconfiguration; racing recorders are safe (superseded rings
/// are leaked, never freed under a writer).
void trace_configure(uint64_t capacity);

/// Clear the trace ring (head to zero, all slots invalidated).
void trace_reset();

/// The most recent events, oldest first. Events being written concurrently
/// with the snapshot are skipped, never torn.
std::vector<TraceEvent> trace_snapshot();

/// Bulk-append pre-recorded events (e.g. a post-crash annex read back by
/// recovery) preserving their original timestamps and thread ids.
void trace_restore(const std::vector<TraceEvent>& events);

/// Serialize the newest trace events into `dst` (annex format: 16-byte
/// header + raw TraceEvents, newest events kept when `cap` is short).
/// Returns bytes written; 0 when the trace is off/empty or telemetry is
/// compiled out (the annex is then left untouched).
std::size_t trace_serialize(char* dst, std::size_t cap);

/// Parse an annex previously written by trace_serialize; empty on a missing
/// or malformed annex.
std::vector<TraceEvent> trace_deserialize(const char* src, std::size_t cap);

// ---- registry read side ------------------------------------------------------

/// Register a late-bound gauge sampled at dump time (e.g. a live Region's
/// line counter). Returns a handle for unregister_gauge, -1 when telemetry
/// is compiled out. Same-name gauges are summed in dumps.
int register_gauge(const std::string& name, const std::string& unit,
                   std::function<uint64_t()> fn);

/// Remove a gauge registered with register_gauge (no-op for -1/stale ids).
/// Must be called before the state the gauge closure reads is destroyed.
void unregister_gauge(int id);

/// Aggregated counters, catalog order.
std::vector<CounterValue> counters_snapshot();

/// Aggregated histograms, catalog order.
std::vector<HistogramValue> histograms_snapshot();

/// Sampled gauges, same-name entries summed (registration order otherwise).
/// Empty when telemetry is compiled out. The read side of register_gauge —
/// the Prometheus exposition (util/promexpo) renders these live.
std::vector<GaugeValue> gauges_snapshot();

/// Zero every counter and histogram slot (the trace is left alone; racing
/// recorders may survive into the next snapshot).
void reset_metrics();

/// Human-readable dump of counters, histograms (with approximate p50/p99),
/// gauges, and trace status.
void dump_text(std::FILE* out);

/// Machine-readable dump: one JSON document, schema in DESIGN.md §9.
void dump_json(std::FILE* out);

/// dump_json as a string (what `--stats-json` benches print).
std::string stats_json();

/// Upper bound (inclusive) of histogram bucket `i` — for tests and dumps.
uint64_t hist_bucket_upper(int i);

/// Exact-from-buckets percentile query: the inclusive upper bound of the
/// bucket holding the rank-ceil(q*count) observation (ranks are 1-based and
/// clamped to [1, count]). This is exact with respect to the bucket
/// resolution — the true value is <= the returned bound and > the previous
/// bucket's bound. Returns 0 for an empty histogram. Available in both
/// build flavours.
uint64_t hist_percentile(const HistogramValue& hv, double q);

/// p50/p90/p99/p999 of `hv` via hist_percentile (all 0 when empty).
Percentiles hist_percentiles(const HistogramValue& hv);

}  // namespace montage::telemetry
