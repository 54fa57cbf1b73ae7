#include "registry.hpp"

#include <cstdlib>

#include "nvm/region.hpp"
#include "ralloc/ralloc.hpp"
#include "suite.hpp"
#include "util/telemetry.hpp"

namespace suite {

namespace tm = montage::telemetry;

namespace {

// Same mapping as the server's exposition: dots (and anything else outside
// [A-Za-z0-9_:]) become underscores.
std::string sanitize(std::string_view dotted) {
  std::string out(dotted);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string counter_family(std::string_view dotted) {
  std::string s = sanitize(dotted);
  if (s.size() < 6 || s.compare(s.size() - 6, 6, "_total") != 0) s += "_total";
  return s;
}

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

// Emulated device cost model used for nvm.device_ns_per_op: the per-line
// drain and per-fence costs the library workloads configure their region
// with (the figure benches' Optane-like defaults).
constexpr double kModelFlushNs = 15.0;
constexpr double kModelFenceNs = 200.0;

}  // namespace

uint64_t RegistrySnap::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double RegistrySnap::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

RegistrySnap snapshot_registry(const montage::nvm::Region* region,
                               const montage::ralloc::Ralloc* ral) {
  RegistrySnap s;
  for (const tm::CounterValue& c : tm::counters_snapshot()) {
    s.counters[counter_family(c.name)] = c.value;
  }
  for (const tm::HistogramValue& h : tm::histograms_snapshot()) {
    s.hists[sanitize(h.name)] =
        std::vector<uint64_t>(h.buckets, h.buckets + tm::kHistBuckets);
  }
  if (region != nullptr) {
    const auto rs = region->stats();
    s.gauges["nvm_lines_flushed"] = static_cast<double>(rs.lines_flushed);
    s.gauges["nvm_fences"] = static_cast<double>(rs.fences);
  }
  if (ral != nullptr) {
    s.gauges["ralloc_bytes_reserved"] =
        static_cast<double>(ral->stats().bytes_reserved);
  }
  return s;
}

RegistrySnap parse_prometheus(std::string_view text) {
  RegistrySnap s;
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (starts_with(line, "# TYPE ")) {
      const std::string_view rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp != std::string_view::npos) {
        types[std::string(rest.substr(0, sp))] = std::string(rest.substr(sp + 1));
      }
      continue;
    }
    if (line.empty() || line[0] == '#' || !starts_with(line, "montage_")) {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos) continue;
    const std::string value(line.substr(sp + 1));
    const std::string_view series = line.substr(0, sp);
    const std::size_t brace = series.find('{');
    const std::string name(series.substr(0, brace));
    const std::string key = name.substr(8);  // drop "montage_"
    if (brace != std::string_view::npos) {
      // Only histogram buckets are read among labelled series; they arrive
      // cumulative, in bucket order.
      if (name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0) {
        auto& b = s.hists[key.substr(0, key.size() - 7)];
        b.push_back(std::strtoull(value.c_str(), nullptr, 10));
      }
      continue;
    }
    const auto t = types.find(name);
    if (t == types.end()) continue;
    if (t->second == "counter") {
      s.counters[key] = std::strtoull(value.c_str(), nullptr, 10);
    } else if (t->second == "gauge") {
      s.gauges[key] = std::strtod(value.c_str(), nullptr);
    }
  }
  for (auto& [name, b] : s.hists) {
    for (std::size_t i = b.size(); i-- > 1;) b[i] -= b[i - 1];
  }
  return s;
}

uint64_t counter_delta(const RegistrySnap& a, const RegistrySnap& b,
                       const std::string& name) {
  const uint64_t va = a.counter(name), vb = b.counter(name);
  return vb >= va ? vb - va : 0;
}

double hist_delta_percentile(const RegistrySnap& a, const RegistrySnap& b,
                             const std::string& name, double q) {
  const auto ib = b.hists.find(name);
  if (ib == b.hists.end()) return 0.0;
  const auto ia = a.hists.find(name);
  tm::HistogramValue hv{};
  for (int i = 0; i < tm::kHistBuckets &&
                  i < static_cast<int>(ib->second.size());
       ++i) {
    const uint64_t before =
        ia == a.hists.end() || i >= static_cast<int>(ia->second.size())
            ? 0
            : ia->second[i];
    hv.buckets[i] = ib->second[i] >= before ? ib->second[i] - before : 0;
    hv.count += hv.buckets[i];
  }
  return static_cast<double>(tm::hist_percentile(hv, q));
}

void registry_layer_metrics(WorkloadResult& r, const RegistrySnap& a,
                            const RegistrySnap& b, uint64_t ops,
                            double seconds) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  auto per_op = [&](const std::string& counter) {
    return static_cast<double>(counter_delta(a, b, counter)) / n;
  };
  auto gauge_per_op = [&](const std::string& gauge) {
    return (b.gauge(gauge) - a.gauge(gauge)) / n;
  };
  r.layer("montage.wb_overflow_per_op", per_op("epoch_writebacks_overflow_total"), "blocks/op");
  r.layer("montage.wb_boundary_per_op", per_op("epoch_writebacks_boundary_total"), "blocks/op");
  r.layer("montage.wb_help_per_op", per_op("epoch_writebacks_help_total"), "blocks/op");
  r.layer("montage.wb_dedup_per_op", per_op("epoch_writebacks_dedup_hits_total"), "writes/op");
  r.layer("montage.reclaimed_per_op", per_op("epoch_blocks_reclaimed_total"), "blocks/op");
  r.layer("montage.mindicator_updates_per_op", per_op("mindicator_updates_total"), "updates/op");
  r.layer("montage.lockfree_reg_ratio",
          ratio(counter_delta(a, b, "epoch_registration_lockfree_hits_total"),
                counter_delta(a, b, "epoch_ops_begun_total")),
          "ratio");
  r.layer("montage.advances_per_s",
          static_cast<double>(counter_delta(a, b, "epoch_advances_total")) / seconds,
          "1/s");
  r.layer("montage.cooperative_advances_per_s",
          static_cast<double>(counter_delta(a, b, "epoch_cooperative_advances_total")) /
              seconds,
          "1/s");
  r.layer("montage.advance_us_p50",
          hist_delta_percentile(a, b, "epoch_advance_latency_ns", 0.5) / 1e3, "us", true);
  r.layer("montage.advance_us_p99",
          hist_delta_percentile(a, b, "epoch_advance_latency_ns", 0.99) / 1e3, "us", true);
  r.layer("montage.flush_lines_per_boundary_p50",
          hist_delta_percentile(a, b, "epoch_flush_lines_per_boundary", 0.5), "lines", true);

  r.layer("ralloc.allocs_per_op", per_op("ralloc_allocations_total"), "blocks/op");
  r.layer("ralloc.frees_per_op", per_op("ralloc_deallocations_total"), "blocks/op");
  r.layer("ralloc.arena_refills_per_op", per_op("ralloc_arena_refills_total"), "refills/op");
  r.layer("ralloc.arena_steals_per_op", per_op("ralloc_arena_steals_total"), "steals/op");
  r.layer("ralloc.bytes_reserved_mb", b.gauge("ralloc_bytes_reserved") / (1 << 20), "MiB");

  const double lines = gauge_per_op("nvm_lines_flushed");
  const double fences = gauge_per_op("nvm_fences");
  r.layer("nvm.lines_per_op", lines, "lines/op");
  r.layer("nvm.fences_per_op", fences, "fences/op");
  r.layer("nvm.device_ns_per_op", lines * kModelFlushNs + fences * kModelFenceNs, "ns/op");
}

}  // namespace suite
