// The library workloads: queue_1k, map_write_1k and map_read_16.
//
// Each one runs in this process against a fresh emulated-NVM region:
//   1. set-up (region, allocator, epoch system, structure, preload), timed
//      several times (another_rep); the last set-up is the one measured;
//   2. kWorkerThreads closed-loop workers: a warm-up, then kIntervals
//      measured intervals (IntervalStats);
//   3. --trace only: a probe phase timing direct calls into public functions
//      on the live epoch system, with the same threads and payload type;
//   4. sync(), then several crash-restart recoveries of the region, each
//      checked against the state the workers left behind.
#include <atomic>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ds/montage_hashmap.hpp"
#include "ds/montage_queue.hpp"
#include "loglin_hist.hpp"
#include "montage/epoch_sys.hpp"
#include "nvm/region.hpp"
#include "ralloc/ralloc.hpp"
#include "registry.hpp"
#include "suite.hpp"
#include "trace.hpp"
#include "util/inline_str.hpp"
#include "util/rand.hpp"
#include "util/timing.hpp"

namespace suite {
namespace {

using montage::EpochSys;
using montage::PBlk;
using montage::util::now_ns;
using montage::util::to_seconds;
using Rng = montage::util::Xorshift128Plus;
using Key = montage::util::InlineStr<32>;

/// A fixed-size value whose every byte is a function of two words (the
/// words themselves, then a fill byte derived from both), so a torn or
/// misplaced copy is detectable.
template <std::size_t N>
struct Blob {
  static_assert(N >= 16);
  char b[N];

  static Blob make(uint64_t a, uint64_t c) {
    Blob v;
    std::memcpy(v.b, &a, 8);
    std::memcpy(v.b + 8, &c, 8);
    std::memset(v.b + 16, fill(a, c), N - 16);
    return v;
  }
  uint64_t word(int i) const {
    uint64_t w = 0;
    std::memcpy(&w, b + 8 * i, 8);
    return w;
  }
  bool is(uint64_t a, uint64_t c) const {
    if (word(0) != a || word(1) != c) return false;
    const char f = fill(a, c);
    for (std::size_t i = 16; i < N; ++i) {
      if (b[i] != f) return false;
    }
    return true;
  }
  bool intact() const { return is(word(0), word(1)); }

 private:
  static char fill(uint64_t a, uint64_t c) {
    return static_cast<char>((mix64(a * 31 + c) & 0x7f) | 1);
  }
};

enum OpKind { kGet, kInsert, kRemove, kEnqueue, kDequeue };
constexpr const char* kOpNames[] = {"map.get", "map.insert", "map.remove",
                                    "queue.enqueue", "queue.dequeue"};

/// Per-thread outcome counts: the ds-layer ratios and the value checks.
struct Outcome {
  uint64_t get_try = 0, get_hit = 0;
  uint64_t insert_try = 0, insert_ok = 0;
  uint64_t remove_try = 0, remove_ok = 0;
  uint64_t enqueued = 0, dequeue_try = 0, dequeue_ok = 0;
  uint64_t bad_values = 0;  ///< values returned torn or for the wrong key
  uint64_t exceptions = 0;

  void add(const Outcome& o) {
    get_try += o.get_try;
    get_hit += o.get_hit;
    insert_try += o.insert_try;
    insert_ok += o.insert_ok;
    remove_try += o.remove_try;
    remove_ok += o.remove_ok;
    enqueued += o.enqueued;
    dequeue_try += o.dequeue_try;
    dequeue_ok += o.dequeue_ok;
    bad_values += o.bad_values;
    exceptions += o.exceptions;
  }
};

struct WorkerState {
  int tid = 0;
  Rng rng{0};
  Outcome out;
  uint64_t seq = 0;           ///< queue: next sequence number produced
  bool enqueue_next = false;  ///< queue: strict enqueue/dequeue alternation
};

// ---- queue_1k ----------------------------------------------------------------

/// MontageQueue, 1:1 enqueue:dequeue, 1 KB values (the fig6 shape). Each
/// worker strictly alternates, so the length stays within kWorkerThreads of
/// the preload and no dequeue finds the queue empty. A value encodes its
/// producer and that producer's sequence number, so FIFO order per producer
/// is checkable after recovery.
class QueueWorkload {
 public:
  static constexpr const char* kName = "queue_1k";
  static constexpr std::size_t kRegionBytes = 512ull << 20;
  static constexpr uint64_t kPreload = 1024;
  using Value = Blob<1024>;
  using DS = montage::ds::MontageQueue<Value>;
  using Payload = DS::Payload;
  static constexpr double kItemBytes = sizeof(Value);

  struct Live {
    uint64_t count = 0;  ///< queue length
  };

  explicit QueueWorkload(uint64_t seed) : seed_tag_(mix64(seed) >> 8) {}

  void create(EpochSys* es) { ds_ = std::make_unique<DS>(es); }
  void destroy() { ds_.reset(); }
  bool preload() {
    for (uint64_t i = 0; i < kPreload; ++i) ds_->enqueue(value(kWorkerThreads, i));
    return true;
  }
  void thread_start(WorkerState& ws) const {
    ws.enqueue_next = (mix64(seed_tag_ + ws.tid) & 1) != 0;
  }
  OpKind op(WorkerState& ws) {
    const bool enq = ws.enqueue_next;
    ws.enqueue_next = !enq;
    if (enq) {
      ds_->enqueue(value(ws.tid, ws.seq++));
      ++ws.out.enqueued;
      return kEnqueue;
    }
    ++ws.out.dequeue_try;
    if (auto v = ds_->dequeue()) {
      ++ws.out.dequeue_ok;
      if (!well_formed(*v)) ++ws.out.bad_values;
    }
    return kDequeue;
  }

  Live snapshot(WorkloadResult& r, const Outcome& total) {
    Live live{ds_->size()};
    const uint64_t produced = kPreload + total.enqueued;
    r.check("counts_balance", produced - total.dequeue_ok == live.count,
            "enqueued " + std::to_string(produced) + " - dequeued " +
                std::to_string(total.dequeue_ok) + " vs length " +
                std::to_string(live.count));
    return live;
  }

  void rebuild(EpochSys* es, const std::vector<PBlk*>& survivors) {
    ds_ = std::make_unique<DS>(es);
    ds_->recover(survivors);
  }

  /// Empty when the recovered queue matches `live`; else what differs.
  std::string recovered_mismatch(const Live& live) {
    const uint64_t len = ds_->size();
    if (len == live.count) return "";
    return "recovered length " + std::to_string(len) + " != live " +
           std::to_string(live.count);
  }

  /// Drains the recovered queue, checking every value and the FIFO order of
  /// each producer's items.
  std::string final_mismatch(const Live& live) {
    std::vector<uint64_t> next_seq(kWorkerThreads + 1, 0);
    uint64_t drained = 0;
    while (auto v = ds_->dequeue()) {
      ++drained;
      if (!well_formed(*v)) return "torn value in recovered queue";
      const uint64_t producer = v->word(0) & 0xff;
      const uint64_t seq = v->word(1);
      if (seq < next_seq[producer]) {
        return "producer " + std::to_string(producer) + " out of order";
      }
      next_seq[producer] = seq + 1;
    }
    return drained == live.count ? "" : "drained " + std::to_string(drained);
  }

  Payload* probe_payload(EpochSys* es) const {
    return es->pnew<Payload>(value(0, 0), 0);
  }
  Value probe_value() const { return value(0, 1); }

 private:
  Value value(uint64_t producer, uint64_t seq) const {
    return Value::make((seed_tag_ << 8) | producer, seq);
  }
  bool well_formed(const Value& v) const {
    return v.intact() && (v.word(0) >> 8) == seed_tag_ &&
           (v.word(0) & 0xff) <= kWorkerThreads;
  }

  uint64_t seed_tag_;
  std::unique_ptr<DS> ds_;
};

// ---- map_write_1k / map_read_16 ----------------------------------------------

/// MontageHashMap (fig7 shape): 32 B keys over a fixed key range, half of it
/// preloaded, uniform key choice, a get:insert:remove mix. The value stored
/// under key id k is always Blob::make(k, seed), so every get and remove can
/// check what it returned.
template <class Cfg>
class MapWorkload {
 public:
  static constexpr const char* kName = Cfg::kName;
  static constexpr std::size_t kRegionBytes = Cfg::kRegionBytes;
  using Value = Blob<Cfg::kValueBytes>;
  using DS = montage::ds::MontageHashMap<Key, Value>;
  using Payload = typename DS::Payload;
  static constexpr double kItemBytes = sizeof(Key) + sizeof(Value);

  struct Live {
    std::vector<uint8_t> present;
    uint64_t count = 0;
  };

  explicit MapWorkload(uint64_t seed) : seed_(seed), keys_(Cfg::kRange) {
    // Seed-dependent key strings (mix64 is a bijection, so they are
    // distinct), padded to the paper's 32 B.
    for (uint64_t id = 0; id < Cfg::kRange; ++id) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%024llu",
                    static_cast<unsigned long long>(mix64(seed ^ mix64(id))));
      keys_[id] = Key(buf);
    }
  }

  void create(EpochSys* es) { ds_ = std::make_unique<DS>(es, Cfg::kRange); }
  void destroy() { ds_.reset(); }

  bool preload() {
    std::atomic<uint64_t> failed{0};
    parallel_ids(Cfg::kPreload, [&](uint64_t id) {
      if (!ds_->insert(keys_[id], Value::make(id, seed_))) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    return failed.load() == 0;
  }

  void thread_start(WorkerState&) const {}

  OpKind op(WorkerState& ws) {
    constexpr uint64_t kMix = Cfg::kGet + Cfg::kInsert + Cfg::kRemove;
    const uint64_t pick = ws.rng.next_bounded(kMix);
    const uint64_t id = ws.rng.next_bounded(Cfg::kRange);
    if (pick < Cfg::kGet) {
      ++ws.out.get_try;
      if (auto v = ds_->get(keys_[id])) {
        ++ws.out.get_hit;
        if (!v->is(id, seed_)) ++ws.out.bad_values;
      }
      return kGet;
    }
    if (pick < Cfg::kGet + Cfg::kInsert) {
      ++ws.out.insert_try;
      if (ds_->insert(keys_[id], Value::make(id, seed_))) ++ws.out.insert_ok;
      return kInsert;
    }
    ++ws.out.remove_try;
    if (auto v = ds_->remove(keys_[id])) {
      ++ws.out.remove_ok;
      if (!v->is(id, seed_)) ++ws.out.bad_values;
    }
    return kRemove;
  }

  Live snapshot(WorkloadResult& r, const Outcome& total) {
    uint64_t bad = 0;
    Live live = scan(&bad);
    const uint64_t expect = Cfg::kPreload + total.insert_ok - total.remove_ok;
    r.check("counts_balance",
            bad == 0 && live.count == expect && ds_->size() == expect,
            "preload + inserted - removed = " + std::to_string(expect) +
                ", keys found " + std::to_string(live.count) + ", size " +
                std::to_string(ds_->size()) + ", bad values " +
                std::to_string(bad));
    return live;
  }

  void rebuild(EpochSys* es, const std::vector<PBlk*>& survivors) {
    ds_ = std::make_unique<DS>(es, Cfg::kRange);
    ds_->recover(survivors, kWorkerThreads);
  }

  std::string recovered_mismatch(const Live& live) {
    uint64_t bad = 0;
    const Live rec = scan(&bad);
    uint64_t differ = 0;
    for (uint64_t id = 0; id < Cfg::kRange; ++id) {
      differ += rec.present[id] != live.present[id];
    }
    if (differ == 0 && bad == 0 && ds_->size() == live.count) return "";
    return std::to_string(differ) + " keys differ, " + std::to_string(bad) +
           " bad values, size " + std::to_string(ds_->size()) + " vs " +
           std::to_string(live.count);
  }

  /// Every recovery was already compared key by key.
  std::string final_mismatch(const Live&) { return ""; }

  Payload* probe_payload(EpochSys* es) const {
    return es->template pnew<Payload>(keys_[0], Value::make(0, seed_));
  }
  Value probe_value() const { return Value::make(1, seed_); }

 private:
  template <class F>
  static void parallel_ids(uint64_t n, F f) {
    std::vector<std::thread> ts;
    for (int t = 0; t < kWorkerThreads; ++t) {
      ts.emplace_back([&, t] {
        for (uint64_t id = t; id < n; id += kWorkerThreads) f(id);
      });
    }
    for (auto& th : ts) th.join();
  }

  /// Which keys the map holds, reading every key in the range.
  Live scan(uint64_t* bad) {
    Live live;
    live.present.assign(Cfg::kRange, 0);
    std::atomic<uint64_t> nbad{0};
    parallel_ids(Cfg::kRange, [&](uint64_t id) {
      if (auto v = ds_->get(keys_[id])) {
        live.present[id] = 1;
        if (!v->is(id, seed_)) nbad.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (uint8_t p : live.present) live.count += p;
    *bad = nbad.load();
    return live;
  }

  uint64_t seed_;
  std::vector<Key> keys_;
  std::unique_ptr<DS> ds_;
};

/// Write-only, no global lock, 256K x ~1.1 KB payloads: larger than the
/// last-level cache, so its accesses miss where queue_1k's hit.
struct MapWrite1kCfg {
  static constexpr const char* kName = "map_write_1k";
  static constexpr std::size_t kValueBytes = 1024;
  static constexpr uint64_t kRange = 512 * 1024;
  static constexpr uint64_t kPreload = 256 * 1024;
  static constexpr uint64_t kGet = 0, kInsert = 1, kRemove = 1;
  static constexpr std::size_t kRegionBytes = 1536ull << 20;
};

/// Read-mostly with 16 B values and a cache-resident working set: gets skip
/// begin_op, so the write path barely runs; small payloads show line packing.
struct MapRead16Cfg {
  static constexpr const char* kName = "map_read_16";
  static constexpr std::size_t kValueBytes = 16;
  static constexpr uint64_t kRange = 64 * 1024;
  static constexpr uint64_t kPreload = 32 * 1024;
  static constexpr uint64_t kGet = 18, kInsert = 1, kRemove = 1;
  static constexpr std::size_t kRegionBytes = 256ull << 20;
};

// ---- the environment ----------------------------------------------------------

/// Region + allocator + epoch system. crash() drops the allocator and epoch
/// system without any shutdown work and keeps the region, whose bytes a
/// later recover() rebuilds from.
class LibEnv {
 public:
  LibEnv() = default;
  ~LibEnv() {
    crash();
    montage::nvm::Region::destroy_global();
  }
  LibEnv(const LibEnv&) = delete;
  LibEnv& operator=(const LibEnv&) = delete;

  void fresh(std::size_t region_bytes) {
    crash();
    montage::nvm::RegionOptions ro;
    ro.size = region_bytes;
    // The figure benches' Optane-like device: 15 ns of drain per flushed
    // line, 200 ns per fence, a 10 us write-pending queue.
    ro.mode = montage::nvm::PersistMode::kLatency;
    ro.flush_latency_ns = 15;
    ro.fence_latency_ns = 200;
    ro.wpq_backlog_ns = 10'000;
    montage::nvm::Region::init_global(ro);
    ral_ = std::make_unique<montage::ralloc::Ralloc>(
        region(), montage::ralloc::Ralloc::Mode::kFresh);
    esys_ = std::make_unique<EpochSys>(ral_.get(), EpochSys::Options{});
  }

  void crash() {
    esys_.reset();
    ral_.reset();
  }

  /// Ralloc(kRecover) + EpochSys(recover) + EpochSys::recover.
  std::vector<PBlk*> recover() {
    ral_ = std::make_unique<montage::ralloc::Ralloc>(
        region(), montage::ralloc::Ralloc::Mode::kRecover);
    EpochSys::Options opts;
    opts.start_advancer = false;
    esys_ = std::make_unique<EpochSys>(ral_.get(), opts, /*recover=*/true);
    return esys_->recover(kWorkerThreads);
  }

  montage::nvm::Region* region() const { return montage::nvm::Region::global(); }
  montage::ralloc::Ralloc* ral() const { return ral_.get(); }
  EpochSys* esys() const { return esys_.get(); }

 private:
  std::unique_ptr<montage::ralloc::Ralloc> ral_;
  std::unique_ptr<EpochSys> esys_;
};

// ---- probe phase -----------------------------------------------------------------

/// Times direct calls into public functions of each layer, on the live epoch
/// system, from kWorkerThreads threads at once: an empty operation
/// (begin_op, end_op), pnew + one field set inside an operation, pdelete in
/// the next, a raw allocate/deallocate, and persist_fence of one payload's
/// bytes. Reported as medians with the clock's own read cost subtracted.
template <class W>
void probe_phase(WorkloadResult& r, const W& w, LibEnv& env, double seconds) {
  using Payload = typename W::Payload;
  enum { kBegin, kEnd, kPnew, kSet, kPdelete, kAlloc, kFree, kPersist, kN };
  static constexpr const char* kNames[kN] = {
      "montage.begin_op_ns", "montage.end_op_ns",  "montage.pnew_ns",
      "montage.set_field_ns", "montage.pdelete_ns", "ralloc.alloc_ns",
      "ralloc.free_ns",       "nvm.persist_fence_ns"};
  EpochSys* es = env.esys();
  montage::ralloc::Ralloc* ral = env.ral();
  montage::nvm::Region* region = env.region();
  const auto v = w.probe_value();

  std::vector<std::vector<LogLinHist>> hists(kWorkerThreads,
                                             std::vector<LogLinHist>(kN));
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> ts;
  for (int t = 0; t < kWorkerThreads; ++t) {
    ts.emplace_back([&, t] {
      auto& h = hists[t];
      void* target = ral->allocate(sizeof(Payload));
      while (now_ns() < deadline) {
        uint64_t t0 = now_ns();
        es->begin_op();
        uint64_t t1 = now_ns();
        es->end_op();
        uint64_t t2 = now_ns();
        h[kBegin].record(t1 - t0);
        h[kEnd].record(t2 - t1);

        es->begin_op();
        t0 = now_ns();
        Payload* p = w.probe_payload(es);
        t1 = now_ns();
        p = p->set_val(v);
        t2 = now_ns();
        es->end_op();
        h[kPnew].record(t1 - t0);
        h[kSet].record(t2 - t1);

        es->begin_op();
        t0 = now_ns();
        es->pdelete(p);
        t1 = now_ns();
        es->end_op();
        h[kPdelete].record(t1 - t0);

        t0 = now_ns();
        void* m = ral->allocate(sizeof(Payload));
        t1 = now_ns();
        ral->deallocate(m);
        t2 = now_ns();
        h[kAlloc].record(t1 - t0);
        h[kFree].record(t2 - t1);

        t0 = now_ns();
        region->persist_fence(target, sizeof(Payload));
        t1 = now_ns();
        h[kPersist].record(t1 - t0);
      }
      ral->deallocate(target);
    });
  }
  for (auto& th : ts) th.join();

  LogLinHist clock;
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t t0 = now_ns();
    clock.record(now_ns() - t0);
  }
  const double clock_ns = clock.percentile(0.5);
  for (int k = 0; k < kN; ++k) {
    LogLinHist all;
    for (auto& h : hists) all.merge(h[k]);
    r.layer(kNames[k], std::max(0.0, all.percentile(0.5) - clock_ns), "ns");
  }
}

// ---- running a library workload ----------------------------------------------------

struct alignas(64) WorkerSlot {
  static constexpr int kPhases = 1 + kIntervals;  ///< warm-up + intervals
  WorkerState ws;
  LogLinHist read[kPhases], write[kPhases];
  uint64_t ops[kPhases] = {};
  SpanSampler spans;
};

template <class W>
WorkloadResult run_lib(const RunOptions& o) {
  WorkloadResult r;
  r.name = W::kName;
  Tracer* tr = o.tracer;
  if (tr != nullptr) tr->begin_workload(W::kName);
  W w(o.seed);  // inputs: built from the seed, outside the timed set-up
  LibEnv env;

  std::vector<double> setup_s;
  bool preload_ok = true;
  const uint64_t setup_start = now_ns();
  for (int rep = 0; another_rep(rep, now_ns() - setup_start); ++rep) {
    w.destroy();
    ScopedSpan span(tr, "setup", "bench");
    const uint64_t t0 = now_ns();
    env.fresh(W::kRegionBytes);
    w.create(env.esys());
    preload_ok = w.preload() && preload_ok;
    setup_s.push_back(to_seconds(now_ns() - t0));
  }
  r.check("preload", preload_ok, "every preloaded insert succeeded");

  // Measured phases. Workers attribute each op to the phase current when it
  // completes; phase -1 stops them. An op's latency is the time between
  // consecutive clock reads, so each op costs one clock read.
  constexpr int kStop = -1;
  std::atomic<int> phase{0};
  uint64_t phase_span[WorkerSlot::kPhases] = {};
  if (tr != nullptr) {
    for (uint64_t& id : phase_span) id = tr->next_id();
  }
  std::vector<std::unique_ptr<WorkerSlot>> slots;
  for (int t = 0; t < kWorkerThreads; ++t) {
    slots.push_back(std::make_unique<WorkerSlot>());
    WorkerState& ws = slots[t]->ws;
    ws.tid = t;
    ws.rng = Rng(mix64(o.seed * 1000 + t + 1));
    w.thread_start(ws);
  }
  std::latch started(kWorkerThreads + 1);
  std::vector<std::thread> ts;
  for (int t = 0; t < kWorkerThreads; ++t) {
    ts.emplace_back([&, t] {
      WorkerSlot& s = *slots[t];
      started.arrive_and_wait();
      uint64_t t_prev = now_ns();
      for (;;) {
        OpKind kind = kGet;
        try {
          kind = w.op(s.ws);
        } catch (const std::exception&) {
          ++s.ws.out.exceptions;
        }
        const uint64_t t_now = now_ns();
        const int ph = phase.load(std::memory_order_relaxed);
        if (ph == kStop) break;
        (kind == kGet ? s.read[ph] : s.write[ph]).record(t_now - t_prev);
        ++s.ops[ph];
        if (tr != nullptr && Tracer::sampling_phase(ph)) {
          s.spans.offer(*tr, kOpNames[kind], "ds", t_prev, t_now,
                        static_cast<uint32_t>(t + 1), phase_span[ph]);
        }
        t_prev = t_now;
      }
    });
  }
  started.arrive_and_wait();
  uint64_t t_phase[WorkerSlot::kPhases + 1];
  t_phase[0] = now_ns();
  std::this_thread::sleep_for(std::chrono::duration<double>(o.warmup_s()));
  const RegistrySnap before = snapshot_registry(env.region(), env.ral());
  for (int i = 1; i <= kIntervals; ++i) {
    phase.store(i, std::memory_order_relaxed);
    t_phase[i] = now_ns();
    std::this_thread::sleep_for(std::chrono::duration<double>(o.interval_s()));
  }
  phase.store(kStop, std::memory_order_relaxed);
  t_phase[WorkerSlot::kPhases] = now_ns();
  const RegistrySnap after = snapshot_registry(env.region(), env.ral());
  for (auto& th : ts) th.join();
  if (tr != nullptr) {
    for (int i = 0; i < WorkerSlot::kPhases; ++i) {
      tr->add({i == 0 ? "warmup" : "interval", "bench", t_phase[i],
               t_phase[i + 1], 0, phase_span[i], 0});
    }
    for (auto& s : slots) s->spans.hand_to(*tr);
  }

  IntervalStats st;
  for (int i = 1; i <= kIntervals; ++i) {
    LogLinHist rd, wr;
    uint64_t ops = 0;
    for (auto& s : slots) {
      rd.merge(s->read[i]);
      wr.merge(s->write[i]);
      ops += s->ops[i];
    }
    st.add(rd, wr, ops, to_seconds(t_phase[i + 1] - t_phase[i]));
  }
  Outcome total;
  for (auto& s : slots) total.add(s->ws.out);
  r.attempted = st.ops();
  r.failed += total.exceptions;
  st.report_throughput(r);
  st.report_latency(r);
  r.e2e("setup_s", summarize(setup_s).median, setup_s, "s");

  registry_layer_metrics(r, before, after, st.ops(), st.seconds());
  auto ds_ratio = [&](const char* name, uint64_t ok, uint64_t tried) {
    if (tried != 0) r.layer(name, ratio(ok, tried), "ratio");
  };
  ds_ratio("ds.insert_ok_ratio", total.insert_ok, total.insert_try);
  ds_ratio("ds.remove_ok_ratio", total.remove_ok, total.remove_try);
  ds_ratio("ds.get_hit_ratio", total.get_hit, total.get_try);
  ds_ratio("ds.dequeue_nonempty_ratio", total.dequeue_ok, total.dequeue_try);
  if (tr != nullptr) {
    r.layer("trace.overhead_ratio", Tracer::overhead_ratio(st.interval_throughput()),
            "ratio");
    ScopedSpan span(tr, "probe", "bench");
    probe_phase(r, w, env, o.probe_s());
  }
  r.check("values_intact", total.bad_values == 0,
          std::to_string(total.bad_values) + " torn or misplaced values returned");
  r.check("no_exceptions", total.exceptions == 0,
          std::to_string(total.exceptions) + " operations threw");

  const typename W::Live live = w.snapshot(r, total);
  r.e2e("space_amp",
        after.gauge("ralloc_bytes_reserved") /
            (static_cast<double>(std::max<uint64_t>(live.count, 1)) * W::kItemBytes),
        "ratio");
  {
    const RegistrySnap s0 = snapshot_registry(nullptr, nullptr);
    ScopedSpan span(tr, "sync", "montage");
    env.esys()->sync();
    const RegistrySnap s1 = snapshot_registry(nullptr, nullptr);
    r.layer("montage.sync_us_p50",
            hist_delta_percentile(s0, s1, "epoch_sync_latency_ns", 0.5) / 1e3, "us",
            true);
    r.layer("montage.sync_us_p99",
            hist_delta_percentile(s0, s1, "epoch_sync_latency_ns", 0.99) / 1e3, "us",
            true);
  }

  // Crash-restart recoveries of the synced region. The structure the last
  // one rebuilt stays up for the final check.
  std::vector<double> recover_s, esys_s, rebuild_s;
  std::string mismatch;
  const uint64_t recover_start = now_ns();
  for (int rep = 0; another_rep(rep, now_ns() - recover_start); ++rep) {
    w.destroy();
    env.crash();
    ScopedSpan span(tr, "recover", "bench");
    const uint64_t t0 = now_ns();
    std::vector<PBlk*> survivors;
    {
      ScopedSpan s(tr, "montage.recover", "montage", span.id());
      survivors = env.recover();
    }
    const uint64_t t1 = now_ns();
    {
      ScopedSpan s(tr, "ds.rebuild", "ds", span.id());
      w.rebuild(env.esys(), survivors);
    }
    const uint64_t t2 = now_ns();
    recover_s.push_back(to_seconds(t2 - t0));
    esys_s.push_back(to_seconds(t1 - t0));
    rebuild_s.push_back(to_seconds(t2 - t1));
    const std::string m = w.recovered_mismatch(live);
    if (mismatch.empty() && !m.empty()) {
      mismatch = "recovery " + std::to_string(rep + 1) + ": " + m;
    }
  }
  if (mismatch.empty()) mismatch = w.final_mismatch(live);
  w.destroy();
  r.check("recovered_equals_live", mismatch.empty(),
          mismatch.empty() ? "every recovery matched the synced live state"
                           : mismatch);
  r.e2e("recover_s", summarize(recover_s).median, recover_s, "s");
  r.layer("montage.recover_s", summarize(esys_s).median, "s");
  r.layer("ds.rebuild_s", summarize(rebuild_s).median, "s");
  r.e2e("error_rate", ratio(r.failed, r.attempted), "ratio");
  return r;
}

}  // namespace

WorkloadResult run_queue_1k(const RunOptions& o) { return run_lib<QueueWorkload>(o); }
WorkloadResult run_map_write_1k(const RunOptions& o) {
  return run_lib<MapWorkload<MapWrite1kCfg>>(o);
}
WorkloadResult run_map_read_16(const RunOptions& o) {
  return run_lib<MapWorkload<MapRead16Cfg>>(o);
}

}  // namespace suite
