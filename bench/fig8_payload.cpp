// Figure 8: single-threaded throughput vs payload size (16 B – 4 KB).
//   (a) queues, 1:1 enqueue:dequeue
//   (b) hashmaps, 2:1:1 get:insert:remove
#include "bench/map_adapters.hpp"
#include "bench/queue_adapters.hpp"

namespace montage::bench {
namespace {

template <std::size_t N>
void queue_point(const Config& cfg) {
  using Val = util::InlineStr<N>;
  const Val value = make_value<N>();
  const std::string x = std::to_string(N);

  auto run = [&](const std::string& name, auto make_adapter,
                 const EpochSys::Options* opts) {
    BenchEnv env(cfg);
    EpochSys::Options transient_opts;
    transient_opts.transient = true;
    transient_opts.start_advancer = false;
    env.make_esys(opts != nullptr ? *opts : transient_opts);
    auto a = make_adapter(env);
    const uint64_t lines0 = nvm::Region::global()->stats().lines_flushed;
    const ThroughputResult r = run_queue_mix(*a, 1, cfg.seconds, value);
    const uint64_t lines1 = nvm::Region::global()->stats().lines_flushed;
    emit_result("fig8a", name, x, r);
    // Persistence-cost axis, Montage series only: baseline systems' flush
    // counts swing with their own batching heuristics at smoke durations.
    if (opts != nullptr && !opts->transient) {
      emit_lines_per_op("fig8a", name, x, r, lines0, lines1);
    }
  };

  EpochSys::Options montage_opts;
  EpochSys::Options transient_opts;
  transient_opts.transient = true;
  transient_opts.start_advancer = false;

  run("DRAM(T)", [](BenchEnv& e) {
    return std::make_unique<TransientQueueAdapter<Val, ds::DramMem>>(e);
  }, nullptr);
  run("NVM(T)", [](BenchEnv& e) {
    return std::make_unique<TransientQueueAdapter<Val, ds::NvmMem>>(e);
  }, nullptr);
  run("Montage(T)", [](BenchEnv& e) {
    return std::make_unique<MontageQueueAdapter<Val>>(e);
  }, &transient_opts);
  run("Montage", [](BenchEnv& e) {
    return std::make_unique<MontageQueueAdapter<Val>>(e);
  }, &montage_opts);
  run("Friedman", [](BenchEnv& e) {
    return std::make_unique<FriedmanQueueAdapter<Val>>(e);
  }, nullptr);
  run("MOD", [](BenchEnv& e) {
    return std::make_unique<ModQueueAdapter<Val>>(e);
  }, nullptr);
  run("Pronto-Sync", [](BenchEnv& e) {
    return std::make_unique<
        ProntoQueueAdapter<Val, baselines::ProntoMode::kSync>>(e);
  }, nullptr);
  run("Mnemosyne", [](BenchEnv& e) {
    return std::make_unique<MnemosyneQueueAdapter<Val>>(e);
  }, nullptr);
}

template <std::size_t N>
void map_point(const Config& cfg) {
  using Val = util::InlineStr<N>;
  const Val value = make_value<N>();
  const std::string x = std::to_string(N);
  const auto buckets =
      std::max<uint64_t>(1024, static_cast<uint64_t>(1'000'000 * cfg.scale));

  auto run = [&](const std::string& name, auto make_adapter,
                 const EpochSys::Options* opts) {
    BenchEnv env(cfg);
    EpochSys::Options transient_opts;
    transient_opts.transient = true;
    transient_opts.start_advancer = false;
    env.make_esys(opts != nullptr ? *opts : transient_opts);
    auto a = make_adapter(env);
    preload_map(*a, buckets / 2, buckets, value);
    const uint64_t lines0 = nvm::Region::global()->stats().lines_flushed;
    const ThroughputResult r =
        run_map_mix(*a, 1, cfg.seconds, 2, 1, 1, buckets, value);
    const uint64_t lines1 = nvm::Region::global()->stats().lines_flushed;
    emit_result("fig8b", name, x, r);
    if (opts != nullptr && !opts->transient) {
      emit_lines_per_op("fig8b", name, x, r, lines0, lines1);
    }
  };

  EpochSys::Options montage_opts;
  EpochSys::Options transient_opts;
  transient_opts.transient = true;
  transient_opts.start_advancer = false;

  run("DRAM(T)", [&](BenchEnv& e) {
    return std::make_unique<TransientMapAdapter<Val, ds::DramMem>>(e, buckets);
  }, nullptr);
  run("NVM(T)", [&](BenchEnv& e) {
    return std::make_unique<TransientMapAdapter<Val, ds::NvmMem>>(e, buckets);
  }, nullptr);
  run("Montage(T)", [&](BenchEnv& e) {
    return std::make_unique<MontageMapAdapter<Val>>(e, buckets);
  }, &transient_opts);
  run("Montage", [&](BenchEnv& e) {
    return std::make_unique<MontageMapAdapter<Val>>(e, buckets);
  }, &montage_opts);
  run("SOFT", [&](BenchEnv& e) {
    return std::make_unique<SoftMapAdapter<Val>>(e, buckets);
  }, nullptr);
  run("NVTraverse", [&](BenchEnv& e) {
    return std::make_unique<NvTraverseMapAdapter<Val>>(e, buckets);
  }, nullptr);
  run("Dali", [&](BenchEnv& e) {
    return std::make_unique<DaliMapAdapter<Val>>(e, buckets);
  }, nullptr);
  run("MOD", [&](BenchEnv& e) {
    return std::make_unique<ModMapAdapter<Val>>(e, buckets);
  }, nullptr);
  run("Pronto-Sync", [&](BenchEnv& e) {
    return std::make_unique<
        ProntoMapAdapter<Val, baselines::ProntoMode::kSync>>(e, buckets);
  }, nullptr);
  run("Mnemosyne", [&](BenchEnv& e) {
    return std::make_unique<MnemosyneMapAdapter<Val>>(e, buckets);
  }, nullptr);
}

void main_impl() {
  const Config cfg = Config::from_env();
  queue_point<16>(cfg);
  queue_point<64>(cfg);
  queue_point<256>(cfg);
  queue_point<1024>(cfg);
  queue_point<4096>(cfg);
  map_point<16>(cfg);
  map_point<64>(cfg);
  map_point<256>(cfg);
  map_point<1024>(cfg);
  map_point<4096>(cfg);
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
