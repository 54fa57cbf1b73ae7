#include "util/telemetry.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/env.hpp"

namespace montage::telemetry {

namespace {

struct Meta {
  const char* name;
  const char* unit;
};

// Catalog order must match the Ctr enum exactly (static_asserted below).
constexpr Meta kCounterMeta[kNumCounters] = {
    {"epoch.ops_begun", "ops"},
    {"epoch.ops_aborted", "ops"},
    {"epoch.advances", "advances"},
    {"epoch.writebacks_boundary", "blocks"},
    {"epoch.writebacks_overflow", "blocks"},
    {"epoch.writebacks_help", "blocks"},
    {"epoch.writebacks_direct", "blocks"},
    {"epoch.blocks_reclaimed", "blocks"},
    {"epoch.sync_calls", "calls"},
    {"epoch.sync_fast_path", "calls"},
    {"epoch.sync_timeouts", "calls"},
    {"epoch.adoptions", "ops"},
    {"epoch.watchdog_alarms", "alarms"},
    {"epoch.cooperative_advances", "advances"},
    {"epoch.sync_helped_payloads", "blocks"},
    {"epoch.eio_retries", "retries"},
    {"epoch.persist_errors", "errors"},
    {"epoch.old_see_new", "exceptions"},
    {"dcss.cas_verify_calls", "calls"},
    {"dcss.cas_verify_retries", "retries"},
    {"dcss.cas_verify_epoch_fails", "failures"},
    {"hazard.retired", "blocks"},
    {"hazard.reclaimed", "blocks"},
    {"hazard.orphaned", "blocks"},
    {"ralloc.allocations", "blocks"},
    {"ralloc.deallocations", "blocks"},
    {"ralloc.superblocks_reserved", "superblocks"},
    {"ralloc.huge_allocations", "extents"},
    {"nvm.lines_flushed_total", "lines"},
    {"nvm.fences_total", "fences"},
    {"nvm.eio_injected", "events"},
    {"server.connections_accepted", "connections"},
    {"server.connections_shed", "connections"},
    {"server.requests", "requests"},
    {"server.requests_shed", "requests"},
    {"server.idle_closed", "connections"},
    {"server.stall_closed", "connections"},
    {"server.backpressure_pauses", "pauses"},
    {"server.sync_batches", "batches"},
    {"server.sync_path_syncer", "syncs"},
    {"server.sync_path_caller", "syncs"},
    {"server.slow_ops", "requests"},
    {"server.admin_requests", "requests"},
    {"epoch.advance_lock_waits", "waits"},
    {"ralloc.arena_refills", "refills"},
};
static_assert(static_cast<uint32_t>(Ctr::kRallocArenaRefills) == kNumCounters - 1,
              "counter catalog out of sync with Ctr enum");

constexpr Meta kHistMeta[kNumHists] = {
    {"epoch.advance_latency_ns", "ns"},
    {"epoch.sync_latency_ns", "ns"},
    {"epoch.writeback_batch_blocks", "blocks"},
    {"epoch.reclaim_batch_blocks", "blocks"},
    {"bench.op_latency_ns", "ns"},
    {"server.ack_lag_ns", "ns"},
    {"server.drain_latency_ns", "ns"},
};
static_assert(static_cast<uint32_t>(Hist::kSrvDrainLatency) == kNumHists - 1,
              "histogram catalog out of sync with Hist enum");

constexpr uint64_t kAnnexMagic = 0x3130454341525444ull;  // "DTRACE01" LE
constexpr uint64_t kDefaultTraceCap = 4096;
constexpr uint64_t kMaxTraceCap = 1ull << 20;

struct AnnexHeader {
  uint64_t magic;
  uint32_t count;
  uint32_t esize;
};
static_assert(sizeof(AnnexHeader) == 16);
static_assert(sizeof(TraceEvent) == 32);

struct Gauge {
  int id;
  std::string name;
  std::string unit;
  std::function<uint64_t()> fn;
};

std::mutex& gauge_mutex() {
  static std::mutex m;
  return m;
}
std::vector<Gauge>& gauges() {
  static std::vector<Gauge> g;
  return g;
}

// Minimal JSON string escaping; metric names are controlled identifiers but
// gauge names come from callers.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

/// Sampled gauges, same-name entries summed (two live Regions both exporting
/// nvm.lines_flushed should read as one total, and JSON keys stay unique).
std::vector<std::pair<std::string, std::pair<std::string, uint64_t>>>
sample_gauges() {
  std::vector<std::pair<std::string, std::pair<std::string, uint64_t>>> out;
  std::lock_guard lk(gauge_mutex());
  for (const auto& g : gauges()) {
    const uint64_t v = g.fn ? g.fn() : 0;
    bool merged = false;
    for (auto& e : out) {
      if (e.first == g.name) {
        e.second.second += v;
        merged = true;
        break;
      }
    }
    if (!merged) out.push_back({g.name, {g.unit, v}});
  }
  return out;
}

}  // namespace

uint64_t hist_bucket_upper(int i) {
  if (i <= 0) return 0;
  if (i >= kHistBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

uint64_t hist_percentile(const HistogramValue& hv, double q) {
  if (hv.count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 1-based rank of the requested observation; ceil so p50 of {a,b} is a
  // (rank 1), never an interpolation the buckets cannot support.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(hv.count)));
  if (rank < 1) rank = 1;
  if (rank > hv.count) rank = hv.count;
  uint64_t cum = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    cum += hv.buckets[b];
    if (cum >= rank) return hist_bucket_upper(b);
  }
  return hist_bucket_upper(kHistBuckets - 1);
}

Percentiles hist_percentiles(const HistogramValue& hv) {
  return Percentiles{hist_percentile(hv, 0.50), hist_percentile(hv, 0.90),
                     hist_percentile(hv, 0.99), hist_percentile(hv, 0.999)};
}

#if MONTAGE_TELEMETRY_ENABLED

namespace detail {

ThreadSlots g_slots[util::ThreadIdPool::kMaxThreads];
std::atomic<bool> g_trace_on{false};

namespace {

// Trace ring: slots are seqlocks keyed by the global index that last wrote
// them (seq = 2*idx+1 while a write is in flight, 2*idx+2 once committed),
// so readers detect both torn writes and wrap-around reuse. Superseded rings
// are retired, never freed: a recorder that loaded the old pointer just
// before a reconfigure must still have valid memory to write into.
struct TraceSlot {
  std::atomic<uint64_t> seq{0};
  TraceEvent ev{};
};

struct TraceRing {
  uint64_t cap;
  std::unique_ptr<TraceSlot[]> slots;
};

std::atomic<TraceRing*> g_ring{nullptr};
std::atomic<uint64_t> g_head{0};
std::mutex g_cfg_m;
std::vector<std::unique_ptr<TraceRing>>& retired_rings() {
  static std::vector<std::unique_ptr<TraceRing>> r;
  return r;
}

std::atomic<int> g_stats_mode{0};
bool g_atexit_registered = false;

void append_raw(const TraceEvent& ev) {
  TraceRing* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const uint64_t idx = g_head.fetch_add(1, std::memory_order_relaxed);
  TraceSlot& s = ring->slots[idx & (ring->cap - 1)];
  s.seq.store(2 * idx + 1, std::memory_order_relaxed);
  s.ev = ev;
  s.seq.store(2 * idx + 2, std::memory_order_release);
}

void atexit_dump() {
  const int mode = g_stats_mode.load(std::memory_order_relaxed);
  if (mode == 1) dump_text(stderr);
  if (mode == 2) dump_json(stderr);
}

}  // namespace

void trace_slow(Ev type, uint64_t a0, uint64_t a1) {
  append_raw(TraceEvent{util::now_ns(),
                        static_cast<uint32_t>(util::thread_id()),
                        static_cast<uint32_t>(type), a0, a1});
}

}  // namespace detail

void trace_configure(uint64_t capacity) {
  std::lock_guard lk(detail::g_cfg_m);
  detail::g_trace_on.store(false, std::memory_order_relaxed);
  if (auto* old = detail::g_ring.exchange(nullptr, std::memory_order_acq_rel);
      old != nullptr) {
    detail::retired_rings().emplace_back(old);
  }
  detail::g_head.store(0, std::memory_order_relaxed);
  if (capacity == 0) return;
  uint64_t cap = 64;
  while (cap < capacity && cap < kMaxTraceCap) cap <<= 1;
  if (cap > kMaxTraceCap) cap = kMaxTraceCap;
  auto ring = std::make_unique<detail::TraceRing>();
  ring->cap = cap;
  ring->slots =
      std::make_unique<detail::TraceSlot[]>(static_cast<std::size_t>(cap));
  detail::g_ring.store(ring.release(), std::memory_order_release);
  detail::g_trace_on.store(true, std::memory_order_release);
}

void trace_reset() {
  std::lock_guard lk(detail::g_cfg_m);
  auto* ring = detail::g_ring.load(std::memory_order_acquire);
  detail::g_head.store(0, std::memory_order_relaxed);
  if (ring == nullptr) return;
  for (uint64_t i = 0; i < ring->cap; ++i) {
    ring->slots[i].seq.store(0, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> trace_snapshot() {
  auto* ring = detail::g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) return {};
  const uint64_t head = detail::g_head.load(std::memory_order_acquire);
  const uint64_t start = head > ring->cap ? head - ring->cap : 0;
  std::vector<TraceEvent> out;
  out.reserve(head - start);
  for (uint64_t i = start; i < head; ++i) {
    auto& s = ring->slots[i & (ring->cap - 1)];
    if (s.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
    TraceEvent ev = s.ev;
    if (s.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
    out.push_back(ev);
  }
  return out;
}

void trace_restore(const std::vector<TraceEvent>& events) {
  if (!trace_enabled()) return;
  for (const auto& ev : events) detail::append_raw(ev);
}

std::size_t trace_serialize(char* dst, std::size_t cap) {
  if (!trace_enabled() || cap < sizeof(AnnexHeader)) return 0;
  const auto events = trace_snapshot();
  if (events.empty()) return 0;
  const std::size_t max_n = (cap - sizeof(AnnexHeader)) / sizeof(TraceEvent);
  const std::size_t n = events.size() < max_n ? events.size() : max_n;
  const std::size_t skip = events.size() - n;  // keep the newest n
  AnnexHeader h{kAnnexMagic, static_cast<uint32_t>(n),
                static_cast<uint32_t>(sizeof(TraceEvent))};
  std::memcpy(dst, &h, sizeof h);
  std::memcpy(dst + sizeof h, events.data() + skip, n * sizeof(TraceEvent));
  return sizeof h + n * sizeof(TraceEvent);
}

std::vector<TraceEvent> trace_deserialize(const char* src, std::size_t cap) {
  if (cap < sizeof(AnnexHeader)) return {};
  AnnexHeader h;
  std::memcpy(&h, src, sizeof h);
  if (h.magic != kAnnexMagic || h.esize != sizeof(TraceEvent)) return {};
  const std::size_t max_n = (cap - sizeof(AnnexHeader)) / sizeof(TraceEvent);
  const std::size_t n = h.count < max_n ? h.count : max_n;
  std::vector<TraceEvent> out(n);
  std::memcpy(out.data(), src + sizeof h, n * sizeof(TraceEvent));
  return out;
}

void init_from_env() {
  const uint64_t trace = util::env_u64_checked("MONTAGE_TRACE", 0);
  const uint64_t stats = util::env_u64_checked("MONTAGE_STATS", 0);
  if (stats > 2) {
    throw std::invalid_argument(
        "MONTAGE_STATS=" + std::to_string(stats) +
        ": expected 0 (off), 1 (text at exit), 2 (json at exit)");
  }
  // Arm-only: MONTAGE_TRACE=0 (or unset) never disarms a trace a test armed
  // programmatically via trace_configure().
  if (trace > 0 && !trace_enabled()) {
    trace_configure(trace == 1 ? kDefaultTraceCap : trace);
  }
  detail::g_stats_mode.store(static_cast<int>(stats),
                             std::memory_order_relaxed);
  if (stats > 0) {
    std::lock_guard lk(detail::g_cfg_m);
    if (!detail::g_atexit_registered) {
      detail::g_atexit_registered = true;
      std::atexit(detail::atexit_dump);
    }
  }
}

int register_gauge(const std::string& name, const std::string& unit,
                   std::function<uint64_t()> fn) {
  static int next_id = 0;
  std::lock_guard lk(gauge_mutex());
  const int id = next_id++;
  gauges().push_back(Gauge{id, name, unit, std::move(fn)});
  return id;
}

void unregister_gauge(int id) {
  if (id < 0) return;
  std::lock_guard lk(gauge_mutex());
  auto& g = gauges();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i].id == id) {
      g.erase(g.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::vector<CounterValue> counters_snapshot() {
  std::vector<CounterValue> out(kNumCounters);
  for (int c = 0; c < kNumCounters; ++c) {
    uint64_t total = 0;
    for (int t = 0; t < util::ThreadIdPool::kMaxThreads; ++t) {
      total +=
          detail::g_slots[t].counters[c].load(std::memory_order_relaxed);
    }
    out[c] = {kCounterMeta[c].name, kCounterMeta[c].unit, total};
  }
  return out;
}

std::vector<HistogramValue> histograms_snapshot() {
  std::vector<HistogramValue> out(kNumHists);
  for (int h = 0; h < kNumHists; ++h) {
    HistogramValue& hv = out[h];
    hv.name = kHistMeta[h].name;
    hv.unit = kHistMeta[h].unit;
    hv.count = 0;
    hv.sum = 0;
    std::memset(hv.buckets, 0, sizeof hv.buckets);
    for (int t = 0; t < util::ThreadIdPool::kMaxThreads; ++t) {
      for (int b = 0; b < kHistBuckets; ++b) {
        hv.buckets[b] +=
            detail::g_slots[t].hist[h][b].load(std::memory_order_relaxed);
      }
      hv.sum += detail::g_slots[t].hist_sum[h].load(std::memory_order_relaxed);
    }
    for (int b = 0; b < kHistBuckets; ++b) hv.count += hv.buckets[b];
  }
  return out;
}

void reset_metrics() {
  for (int t = 0; t < util::ThreadIdPool::kMaxThreads; ++t) {
    auto& s = detail::g_slots[t];
    for (int c = 0; c < kNumCounters; ++c) {
      s.counters[c].store(0, std::memory_order_relaxed);
    }
    for (int h = 0; h < kNumHists; ++h) {
      for (int b = 0; b < kHistBuckets; ++b) {
        s.hist[h][b].store(0, std::memory_order_relaxed);
      }
      s.hist_sum[h].store(0, std::memory_order_relaxed);
    }
  }
}

void dump_text(std::FILE* out) {
  std::fprintf(out, "== montage telemetry ==\n");
  std::fprintf(out, "-- counters --\n");
  for (const auto& c : counters_snapshot()) {
    if (c.value == 0) continue;
    std::fprintf(out, "  %-32s %12" PRIu64 " %s\n", c.name, c.value, c.unit);
  }
  std::fprintf(out, "-- histograms --\n");
  for (const auto& h : histograms_snapshot()) {
    if (h.count == 0) continue;
    const double mean =
        static_cast<double>(h.sum) / static_cast<double>(h.count);
    const Percentiles p = hist_percentiles(h);
    std::fprintf(out,
                 "  %-32s count=%" PRIu64 " mean=%.1f p50<=%" PRIu64
                 " p90<=%" PRIu64 " p99<=%" PRIu64 " p999<=%" PRIu64 " %s\n",
                 h.name, h.count, mean, p.p50, p.p90, p.p99, p.p999, h.unit);
  }
  const auto gs = sample_gauges();
  if (!gs.empty()) {
    std::fprintf(out, "-- gauges --\n");
    for (const auto& g : gs) {
      std::fprintf(out, "  %-32s %12" PRIu64 " %s\n", g.first.c_str(),
                   g.second.second, g.second.first.c_str());
    }
  }
  const auto trace = trace_snapshot();
  std::fprintf(out, "-- trace: %s, %zu events buffered --\n",
               trace_enabled() ? "on" : "off", trace.size());
}

std::string stats_json() {
  std::string s;
  s.reserve(4096);
  char buf[384];
  s += "{\"telemetry\":1,\"counters\":{";
  bool first = true;
  for (const auto& c : counters_snapshot()) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"value\":%" PRIu64 ",\"unit\":\"%s\"}",
                  first ? "" : ",", c.name, c.value, c.unit);
    s += buf;
    first = false;
  }
  s += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms_snapshot()) {
    const double mean =
        h.count == 0 ? 0.0
                     : static_cast<double>(h.sum) / static_cast<double>(h.count);
    const Percentiles p = hist_percentiles(h);
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"unit\":\"%s\",\"count\":%" PRIu64
                  ",\"sum\":%" PRIu64 ",\"mean\":%.3f,\"p50\":%" PRIu64
                  ",\"p90\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"p999\":%" PRIu64
                  ",\"buckets\":[",
                  first ? "" : ",", h.name, h.unit, h.count, h.sum, mean,
                  p.p50, p.p90, p.p99, p.p999);
    s += buf;
    bool bfirst = true;
    for (int b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      std::snprintf(buf, sizeof buf, "%s{\"le\":%" PRIu64 ",\"n\":%" PRIu64 "}",
                    bfirst ? "" : ",", hist_bucket_upper(b), h.buckets[b]);
      s += buf;
      bfirst = false;
    }
    s += "]}";
    first = false;
  }
  s += "},\"gauges\":{";
  first = true;
  for (const auto& g : sample_gauges()) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"value\":%" PRIu64 ",\"unit\":\"%s\"}",
                  first ? "" : ",", json_escape(g.first).c_str(),
                  g.second.second, json_escape(g.second.first).c_str());
    s += buf;
    first = false;
  }
  std::snprintf(buf, sizeof buf,
                "},\"trace\":{\"enabled\":%s,\"events\":%zu}}",
                trace_enabled() ? "true" : "false", trace_snapshot().size());
  s += buf;
  return s;
}

void dump_json(std::FILE* out) {
  const std::string s = stats_json();
  std::fprintf(out, "%s\n", s.c_str());
}

std::vector<GaugeValue> gauges_snapshot() {
  std::vector<GaugeValue> out;
  for (auto& g : sample_gauges()) {
    out.push_back(GaugeValue{std::move(g.first), std::move(g.second.first),
                             g.second.second});
  }
  return out;
}

#else  // MONTAGE_TELEMETRY_ENABLED

// Kill-switch build: the registry is compiled out; these keep the call sites
// (benches, Region, tests) link-compatible without their own #ifs.

void trace_configure(uint64_t) {}
void trace_reset() {}
std::vector<TraceEvent> trace_snapshot() { return {}; }
void trace_restore(const std::vector<TraceEvent>&) {}
std::size_t trace_serialize(char*, std::size_t) { return 0; }
std::vector<TraceEvent> trace_deserialize(const char*, std::size_t) {
  return {};
}

void init_from_env() {
  // Knob values stay strictly validated even when telemetry is compiled out,
  // so a malformed knob never changes meaning across build flavours.
  (void)util::env_u64_checked("MONTAGE_TRACE", 0);
  const uint64_t stats = util::env_u64_checked("MONTAGE_STATS", 0);
  if (stats > 2) {
    throw std::invalid_argument(
        "MONTAGE_STATS=" + std::to_string(stats) +
        ": expected 0 (off), 1 (text at exit), 2 (json at exit)");
  }
}

int register_gauge(const std::string&, const std::string&,
                   std::function<uint64_t()>) {
  return -1;
}
void unregister_gauge(int) {}

std::vector<CounterValue> counters_snapshot() { return {}; }
std::vector<HistogramValue> histograms_snapshot() { return {}; }
std::vector<GaugeValue> gauges_snapshot() { return {}; }
void reset_metrics() {}

void dump_text(std::FILE* out) {
  std::fprintf(out, "== montage telemetry: compiled out ==\n");
}
std::string stats_json() { return "{\"telemetry\":0}"; }
void dump_json(std::FILE* out) {
  std::fprintf(out, "%s\n", stats_json().c_str());
}

#endif  // MONTAGE_TELEMETRY_ENABLED

}  // namespace montage::telemetry
