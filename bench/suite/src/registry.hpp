// Snapshots of Montage's telemetry registry, keyed the way the server's
// Prometheus exposition names them, so the in-process registry (library
// workloads) and a /metrics scrape (kv_server) feed one set of formulas.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "suite.hpp"

namespace montage::nvm {
class Region;
}
namespace montage::ralloc {
class Ralloc;
}

namespace suite {

struct RegistrySnap {
  /// Counter families without the "montage_" prefix, e.g.
  /// "epoch_advances_total".
  std::map<std::string, uint64_t> counters;
  /// Gauges, e.g. "nvm_lines_flushed", "ralloc_bytes_reserved".
  std::map<std::string, double> gauges;
  /// Histograms as per-bucket (not cumulative) counts over the registry's
  /// log2 buckets, e.g. "epoch_sync_latency_ns".
  std::map<std::string, std::vector<uint64_t>> hists;

  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
};

/// The in-process registry, plus the region's flush/fence totals and the
/// allocator's reserved bytes as gauges (the names /metrics gives them).
RegistrySnap snapshot_registry(const montage::nvm::Region* region,
                               const montage::ralloc::Ralloc* ral);

/// Parse Prometheus text exposition as rendered by the server's /metrics.
RegistrySnap parse_prometheus(std::string_view text);

/// b - a for a counter (0 if it went backwards or is absent).
uint64_t counter_delta(const RegistrySnap& a, const RegistrySnap& b,
                       const std::string& name);

/// Percentile `q` of the observations a histogram gained between a and b,
/// at the registry's log2 resolution (the inclusive upper bound of the
/// bucket holding it); 0 when it gained none.
double hist_delta_percentile(const RegistrySnap& a, const RegistrySnap& b,
                             const std::string& name, double q);

/// The montage, ralloc and nvm per-layer metrics from the registry deltas
/// between two snapshots (library workloads: in-process; kv_server: the
/// server's /metrics), per op over `ops` and per second over `seconds`.
void registry_layer_metrics(WorkloadResult& r, const RegistrySnap& a,
                            const RegistrySnap& b, uint64_t ops,
                            double seconds);

}  // namespace suite
