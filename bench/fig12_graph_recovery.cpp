// Figure 12: time to rebuild a large social graph, by thread count.
// The paper uses the SNAP Orkut network (~3 M vertices, 117 M edges); we
// substitute a synthetic power-law (Chung-Lu style) graph of configurable
// size (MONTAGE_GRAPH_VERTICES / MONTAGE_GRAPH_EDGES), which preserves the
// degree skew the comparison depends on.
//
// Series (value = seconds, lower is better):
//   DRAM(T)    — parallel construction of the transient graph from edge lists
//   Montage(T) — parallel construction with payloads in NVM, no persistence
//   Montage    — RECOVERY of the persistent graph: Ralloc perusal +
//                EpochSys::recover + parallel index rebuild (paper §6.4)
#include <memory>

#include "bench/common.hpp"
#include "ds/montage_graph.hpp"
#include "ds/transient_graph.hpp"
#include "util/zipf.hpp"

namespace montage::bench {
namespace {

struct EdgeList {
  uint64_t nvertices;
  std::vector<std::pair<uint64_t, uint64_t>> edges;
};

/// Chung-Lu style power-law edge list: endpoint popularity ~ zipf(0.75).
EdgeList make_powerlaw(uint64_t nvertices, uint64_t nedges) {
  EdgeList el;
  el.nvertices = nvertices;
  el.edges.reserve(nedges);
  util::ZipfianGenerator za(nvertices, 0.75, 11);
  util::ZipfianGenerator zb(nvertices, 0.75, 13);
  while (el.edges.size() < nedges) {
    const uint64_t a = za.next_scrambled();
    const uint64_t b = zb.next_scrambled();
    if (a != b) el.edges.emplace_back(a, b);
  }
  return el;
}

template <typename G>
double construct_parallel(G& g, const EdgeList& el, int threads) {
  util::Stopwatch sw;
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        for (uint64_t v = t; v < el.nvertices;
             v += static_cast<uint64_t>(threads)) {
          g.add_vertex(v, v);
        }
      });
    }
    for (auto& th : ts) th.join();
  }
  {
    std::vector<std::thread> ts;
    const std::size_t chunk = (el.edges.size() + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        const std::size_t lo = std::min(el.edges.size(), t * chunk);
        const std::size_t hi = std::min(el.edges.size(), lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) {
          g.add_edge(el.edges[i].first, el.edges[i].second, i);
        }
      });
    }
    for (auto& th : ts) th.join();
  }
  return sw.elapsed_s();
}

void main_impl() {
  const Config cfg = Config::from_env();
  const uint64_t nvertices = util::env_u64_checked(
      "MONTAGE_GRAPH_VERTICES",
      std::max<uint64_t>(4096, static_cast<uint64_t>(3'000'000 * cfg.scale)));
  const uint64_t nedges = util::env_u64_checked(
      "MONTAGE_GRAPH_EDGES",
      std::max<uint64_t>(16384, static_cast<uint64_t>(nvertices * 16)));
  const EdgeList el = make_powerlaw(nvertices, nedges);

  for (int t : cfg.thread_counts()) {
    ds::TransientGraph<uint64_t, uint64_t, ds::DramMem> g(nvertices);
    emit("fig12", "DRAM(T)", std::to_string(t),
         construct_parallel(g, el, t));
  }
  for (int t : cfg.thread_counts()) {
    BenchEnv env(cfg);
    EpochSys::Options opts;
    opts.transient = true;
    opts.start_advancer = false;
    env.make_esys(opts);
    ds::MontageGraph<uint64_t, uint64_t> g(env.esys(), nvertices);
    emit("fig12", "Montage(T)", std::to_string(t),
         construct_parallel(g, el, t));
  }
  // Montage recovery: build + sync once, then time recovery per thread
  // count. The perusal is re-runnable on the intact region image.
  {
    nvm::RegionOptions ropts;
    ropts.size = 6ull << 30;
    ropts.mode = nvm::PersistMode::kLatency;
    ropts.flush_latency_ns = cfg.flush_ns;
    ropts.fence_latency_ns = cfg.fence_ns;
    nvm::Region::init_global(ropts);
    auto ral = std::make_unique<ralloc::Ralloc>(nvm::Region::global(),
                                                ralloc::Ralloc::Mode::kFresh);
    ralloc::Ralloc::set_default_instance(ral.get());
    {
      EpochSys::Options opts;
      auto esys = std::make_unique<EpochSys>(ral.get(), opts);
      EpochSys::set_default_esys(esys.get());
      ds::MontageGraph<uint64_t, uint64_t> g(esys.get(), nvertices);
      construct_parallel(g, el, 1);
      esys->sync();
      esys->stop_advancer();
    }
    for (int t : cfg.thread_counts()) {
      util::Stopwatch sw;
      auto recovered_ral = std::make_unique<ralloc::Ralloc>(
          nvm::Region::global(), ralloc::Ralloc::Mode::kRecover);
      EpochSys::Options opts;
      opts.start_advancer = false;
      EpochSys esys(recovered_ral.get(), opts, /*recover=*/true);
      auto survivors = esys.recover(t);
      ds::MontageGraph<uint64_t, uint64_t> g(&esys, nvertices);
      g.recover(survivors, t);
      const double secs = sw.elapsed_s();
      emit("fig12", "Montage", std::to_string(t), secs);
      if (g.vertex_count() != nvertices) {
        std::fprintf(stderr, "fig12: recovery mismatch (%zu vs %lu)\n",
                     g.vertex_count(), static_cast<unsigned long>(nvertices));
      }
    }
    ralloc::Ralloc::set_default_instance(nullptr);
    nvm::Region::destroy_global();
  }
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
