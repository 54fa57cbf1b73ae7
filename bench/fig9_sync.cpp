// Figure 9: write-dominant hashmap with a sync() every k operations per
// thread, k swept over 1..1e5 (paper §6.1.2). Montage appears twice:
//   Montage(cb) — 64-entry circular write-back buffers (the default)
//   Montage(dw) — all written payloads flushed at the end of each operation
// Strict-DL systems persist every operation regardless of k, so their
// curves are flat; they are reported at each k for reference.
//
// Montage(cb-kill) is Montage(cb) with the background advancer killed
// halfway through each point and never restarted: sync() must drive its own
// cooperative advances, and the worst-case row (sync_max_ns) stays finite —
// the liveness claim of DESIGN.md §12 in benchmark form.
#include <chrono>
#include <thread>

#include "bench/map_adapters.hpp"

namespace montage::bench {
namespace {

using Val = util::InlineStr<1024>;

/// This is the figure about sync() cost, so the Montage series also report
/// the epoch-system sync-latency percentiles extracted from the telemetry
/// histogram (no rows while that histogram is empty).
void emit_sync_percentiles(const std::string& name, const std::string& x) {
  for (const auto& h : telemetry::histograms_snapshot()) {
    if (std::string(h.name) != "epoch.sync_latency_ns" || h.count == 0) {
      continue;
    }
    const telemetry::Percentiles p = telemetry::hist_percentiles(h);
    emit("fig9", name + "/sync_p50_ns", x, static_cast<double>(p.p50));
    emit("fig9", name + "/sync_p99_ns", x, static_cast<double>(p.p99));
    // Worst case (bucket-resolution exact): the bound sync() actually
    // delivered, which must stay finite even with the advancer dead.
    emit("fig9", name + "/sync_max_ns", x,
         static_cast<double>(telemetry::hist_percentile(h, 1.0)));
  }
}

template <typename Adapter>
void run_series(const Config& cfg, const std::string& name,
                const EpochSys::Options* esys_opts,
                bool kill_advancer = false) {
  const Val value = make_value<1024>();
  const auto buckets =
      std::max<uint64_t>(1024, static_cast<uint64_t>(1'000'000 * cfg.scale));
  const uint64_t sync_intervals[] = {1, 10, 100, 1000, 10000};
  for (uint64_t k : sync_intervals) {
    BenchEnv env(cfg);
    EpochSys::Options transient_opts;
    transient_opts.transient = true;
    transient_opts.start_advancer = false;
    env.make_esys(esys_opts != nullptr ? *esys_opts : transient_opts);
    Adapter a(env, buckets);
    preload_map(a, buckets / 2, buckets, value);
    telemetry::reset_metrics();  // isolate this point's sync histogram
    std::thread killer;
    if (kill_advancer) {
      // Die mid-run and never come back: the second half of every point
      // runs advancer-free, so the sync percentiles cover both regimes.
      killer = std::thread([&env, secs = cfg.seconds] {
        std::this_thread::sleep_for(std::chrono::duration<double>(secs / 2));
        env.esys()->inject_advancer_kill();
      });
    }
    const uint64_t lines0 = nvm::Region::global()->stats().lines_flushed;
    const ThroughputResult r = run_map_mix(a, cfg.max_threads, cfg.seconds, 0,
                                           1, 1, buckets, value,
                                           /*sync_every=*/k);
    const uint64_t lines1 = nvm::Region::global()->stats().lines_flushed;
    if (killer.joinable()) killer.join();
    emit_result("fig9", name, std::to_string(k), r);
    // Montage series only — see fig8_payload.cpp for the rationale.
    if (esys_opts != nullptr && !esys_opts->transient) {
      emit_lines_per_op("fig9", name, std::to_string(k), r, lines0, lines1);
    }
    if (esys_opts != nullptr) emit_sync_percentiles(name, std::to_string(k));
  }
}

void main_impl() {
  const Config cfg = Config::from_env();
  EpochSys::Options cb;  // defaults: 64-entry buffers
  EpochSys::Options dw;
  dw.write_back = WriteBack::kPerOp;
  EpochSys::Options transient_opts;
  transient_opts.transient = true;
  transient_opts.start_advancer = false;

  run_series<TransientMapAdapter<Val, ds::NvmMem>>(cfg, "NVM(T)", nullptr);
  run_series<MontageMapAdapter<Val>>(cfg, "Montage(T)", &transient_opts);
  run_series<MontageMapAdapter<Val>>(cfg, "Montage(cb)", &cb);
  run_series<MontageMapAdapter<Val>>(cfg, "Montage(cb-kill)", &cb,
                                     /*kill_advancer=*/true);
  run_series<MontageMapAdapter<Val>>(cfg, "Montage(dw)", &dw);
  run_series<SoftMapAdapter<Val>>(cfg, "SOFT", nullptr);
  run_series<NvTraverseMapAdapter<Val>>(cfg, "NVTraverse", nullptr);
  run_series<DaliMapAdapter<Val>>(cfg, "Dali", nullptr);
  run_series<ModMapAdapter<Val>>(cfg, "MOD", nullptr);
  run_series<ProntoMapAdapter<Val, baselines::ProntoMode::kFull>>(
      cfg, "Pronto-Full", nullptr);
  run_series<ProntoMapAdapter<Val, baselines::ProntoMode::kSync>>(
      cfg, "Pronto-Sync", nullptr);
  run_series<MnemosyneMapAdapter<Val>>(cfg, "Mnemosyne", nullptr);
}

}  // namespace
}  // namespace montage::bench

int main(int argc, char** argv) {
  montage::bench::parse_args(argc, argv);
  std::printf("figure,series,x,value\n");
  montage::bench::main_impl();
  montage::bench::emit_stats_json();
  return 0;
}
