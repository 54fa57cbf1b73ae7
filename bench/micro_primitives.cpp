// Google-benchmark microbenchmarks of Montage's building blocks, including
// the ablations DESIGN.md calls out:
//   * DCSS cas_verify vs a plain CAS (the price of epoch verification)
//   * Ralloc hot path, PNEW/PDELETE, BEGIN_OP/END_OP, persist/fence.
#include <benchmark/benchmark.h>

#include <memory>

#include "montage/dcss.hpp"
#include "montage/recoverable.hpp"
#include "nvm/region.hpp"
#include "ralloc/ralloc.hpp"

namespace montage {
namespace {

struct MicroEnv {
  std::unique_ptr<ralloc::Ralloc> ral;
  std::unique_ptr<EpochSys> esys;

  MicroEnv() {
    nvm::RegionOptions ropts;
    ropts.size = 1ull << 30;
    ropts.mode = nvm::PersistMode::kPassthrough;
    nvm::Region::init_global(ropts);
    ral = std::make_unique<ralloc::Ralloc>(nvm::Region::global(),
                                           ralloc::Ralloc::Mode::kFresh);
    EpochSys::Options opts;
    opts.start_advancer = false;
    esys = std::make_unique<EpochSys>(ral.get(), opts);
  }
  ~MicroEnv() {
    esys.reset();
    ral.reset();
    nvm::Region::destroy_global();
  }
};

MicroEnv& env() {
  static MicroEnv e;
  return e;
}

struct SmallPayload : public PBlk {
  GENERATE_FIELD(uint64_t, val, SmallPayload);
};

void BM_RallocAllocFree(benchmark::State& state) {
  auto* ral = env().ral.get();
  for (auto _ : state) {
    void* p = ral->allocate(64);
    benchmark::DoNotOptimize(p);
    ral->deallocate(p);
  }
}
BENCHMARK(BM_RallocAllocFree);

void BM_HeapAllocFree(benchmark::State& state) {
  for (auto _ : state) {
    void* p = ::operator new(64);
    benchmark::DoNotOptimize(p);
    ::operator delete(p);
  }
}
BENCHMARK(BM_HeapAllocFree);

void BM_BeginEndOp(benchmark::State& state) {
  auto* es = env().esys.get();
  for (auto _ : state) {
    es->begin_op();
    es->end_op();
  }
}
BENCHMARK(BM_BeginEndOp);

void BM_PnewPdelete(benchmark::State& state) {
  auto* es = env().esys.get();
  for (auto _ : state) {
    es->begin_op();
    auto* p = es->pnew<SmallPayload>();
    es->pdelete(p);
    es->end_op();
  }
}
BENCHMARK(BM_PnewPdelete);

void BM_SetInPlace(benchmark::State& state) {
  auto* es = env().esys.get();
  es->begin_op();
  auto* p = es->pnew<SmallPayload>();
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->set_val(++v));
  }
  es->end_op();
}
BENCHMARK(BM_SetInPlace);

// Ablation: epoch-verified CAS vs a plain CAS on the same word type.
void BM_DcssCasVerify(benchmark::State& state) {
  auto* es = env().esys.get();
  AtomicVerifiable<uint64_t> cell(0);
  es->begin_op();
  uint64_t v = 0;
  for (auto _ : state) {
    cell.cas_verify(es, v, v + 1);
    ++v;
  }
  es->end_op();
}
BENCHMARK(BM_DcssCasVerify);

void BM_PlainCas(benchmark::State& state) {
  AtomicVerifiable<uint64_t> cell(0);
  uint64_t v = 0;
  for (auto _ : state) {
    cell.cas(v, v + 1);
    ++v;
  }
}
BENCHMARK(BM_PlainCas);

void BM_PersistFence1KB(benchmark::State& state) {
  auto* ral = env().ral.get();
  auto* region = nvm::Region::global();
  void* p = ral->allocate(1024);
  for (auto _ : state) {
    region->persist(p, 1024);
    region->fence();
  }
  ral->deallocate(p);
}
BENCHMARK(BM_PersistFence1KB);

void BM_EpochAdvance(benchmark::State& state) {
  auto* es = env().esys.get();
  for (auto _ : state) {
    es->advance_epoch();
  }
}
BENCHMARK(BM_EpochAdvance);

}  // namespace
}  // namespace montage

BENCHMARK_MAIN();
