// The kv_server workload: the real montage_kv_server binary over loopback.
//
// The server runs 2 workers on a file-backed region in this run's scratch
// directory. The load comes from this process: kClientThreads threads with
// kConnsPerThread connections each, memcached text, 90:10 get:set over
// kRecords preloaded keys chosen with zipf(0.99), 64 B values. Phases:
//   1. set-up: spawn on a fresh region and preload, timed several times;
//   2. closed-loop pipelined saturation: a warm-up, then kIntervals
//      intervals, reporting throughput;
//   3. open loop at a fixed kOpenLoopRate: kIntervals intervals, reporting
//      latency timed from each request's scheduled send time (a set counts
//      until its ACK, which the server sends only once the set is durable);
//   4. a burst of distinct-key sets, all acknowledged, then kill -9 and
//      several restart rounds, each timed to the first GET hit and checked:
//      every acked burst key must read back byte-identical, and no value may
//      be torn. Preloaded keys missing after the first restart are counted
//      (server.preload_lost_after_kill9) rather than failing the run: they
//      expose a known recovery bug (README.md, "Known issue").
// The admin port's /metrics is scraped around phases 2-3 for the per-layer
// registry deltas.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kv_client.hpp"
#include "loglin_hist.hpp"
#include "registry.hpp"
#include "suite.hpp"
#include "trace.hpp"
#include "util/rand.hpp"
#include "util/timing.hpp"
#include "util/zipf.hpp"

extern char** environ;

namespace suite {
namespace {

using montage::util::now_ns;
using montage::util::to_seconds;

constexpr uint64_t kRecords = 100'000;
constexpr int kClientThreads = 2;
constexpr int kConnsPerThread = 2;
constexpr int kSetPercent = 10;
constexpr double kZipfTheta = 0.99;
/// Requests outstanding per connection in the closed-loop phase.
constexpr std::size_t kPipelineDepth = 16;
/// Fixed open-loop arrival rate (requests/s, all threads together): under
/// half of the lowest saturation throughput measured on the 4-vCPU VM the
/// suite was built on (84K-172K ops/s as host contention varied).
constexpr double kOpenLoopRate = 20'000;
constexpr uint64_t kBurst = 2048;  ///< acked distinct-key sets before kill -9
constexpr int kServerWorkers = 2;
constexpr int kRegionMb = 512;

/// Phase numbers shared by the main thread and the client threads.
constexpr int kStop = -1;
constexpr int kFirstOpen = 1 + kIntervals;          ///< first open-loop interval
constexpr int kPhases = 1 + 2 * kIntervals;         ///< warm-up + both phases

/// One montage_kv_server process. The destructor kills it (SIGKILL) and
/// reaps it; the child also dies with this process (PR_SET_PDEATHSIG).
class ServerProc {
 public:
  ServerProc(const std::string& run_dir, const std::string& region) {
    const std::string port_file = run_dir + "/kv_server.port";
    const std::string log_file = run_dir + "/kv_server.log";
    ::unlink(port_file.c_str());
    // The child gets this environment minus any MONTAGE_* knob, plus the
    // suite's fixed configuration; built before fork so the child only
    // execs.
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "MONTAGE_", 8) != 0) env.emplace_back(*e);
    }
    env.push_back("MONTAGE_SERVER_PORT=0");
    env.push_back("MONTAGE_SERVER_ADMIN_PORT=0");
    env.push_back("MONTAGE_SERVER_THREADS=" + std::to_string(kServerWorkers));
    env.push_back("MONTAGE_SERVER_REGION=" + region);
    env.push_back("MONTAGE_SERVER_REGION_MB=" + std::to_string(kRegionMb));
    std::vector<char*> envp;
    for (std::string& s : env) envp.push_back(s.data());
    envp.push_back(nullptr);
    std::string bin = MONTAGE_SUITE_SERVER_BIN;
    std::string arg = "--port-file=" + port_file;
    char* argv[] = {bin.data(), arg.data(), nullptr};
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(1);
      const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execve(argv[0], argv, envp.data());
      _exit(127);
    }
    if (pid_ < 0) return;
    // The server writes its ports (atomically) once it is serving, which on
    // a reopened region is after recovery.
    const uint64_t deadline = now_ns() + 60'000'000'000ull;
    while (port_ == 0 && now_ns() < deadline) {
      if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
        unsigned p = 0, ap = 0;
        if (std::fscanf(f, "%u %u", &p, &ap) == 2) {
          port_ = static_cast<uint16_t>(p);
          admin_port_ = static_cast<uint16_t>(ap);
        }
        std::fclose(f);
      }
      if (port_ != 0) break;
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(1000);
    }
  }
  ~ServerProc() { kill9(); }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  bool ok() const { return pid_ > 0 && port_ != 0; }
  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }

  void kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
};

/// Issue requests 0..n-1 over `conns`, keeping up to `depth` outstanding on
/// each, and hand each response to on_response(i, response). False if a
/// connection broke or `timeout_s` passed first.
template <class MakeRequest, class OnResponse>
bool run_batch(std::vector<std::unique_ptr<kv::Conn>>& conns, uint64_t n,
               std::size_t depth, MakeRequest make, OnResponse on_response,
               double timeout_s = 60) {
  std::vector<std::deque<uint64_t>> fifo(conns.size());
  std::vector<pollfd> pfds(conns.size());
  uint64_t next = 0, done = 0;
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(timeout_s * 1e9);
  while (done < n) {
    if (now_ns() > deadline) return false;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      while (next < n && fifo[c].size() < depth) {
        conns[c]->queue(make(next));
        fifo[c].push_back(next++);
      }
      if (!conns[c]->flush()) return false;
      pfds[c] = {conns[c]->fd(),
                 static_cast<short>(POLLIN | (conns[c]->want_write() ? POLLOUT : 0)),
                 0};
    }
    ::poll(pfds.data(), pfds.size(), 10);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!conns[c]->receive()) return false;
      kv::Response resp;
      while (!fifo[c].empty() && conns[c]->next(&resp)) {
        on_response(fifo[c].front(), resp);
        fifo[c].pop_front();
        ++done;
      }
    }
  }
  return true;
}

std::vector<std::unique_ptr<kv::Conn>> connect_all(uint16_t port, int n) {
  std::vector<std::unique_ptr<kv::Conn>> conns;
  for (int i = 0; i < n; ++i) conns.push_back(std::make_unique<kv::Conn>(port));
  return conns;
}

struct Pending {
  uint64_t t_ref;  ///< send time (closed loop) or scheduled time (open loop)
  uint64_t id;
  bool is_set;
};

struct alignas(64) ClientSlot {
  LogLinHist read[kPhases], write[kPhases];
  uint64_t done[kPhases] = {};
  uint64_t sets_done = 0;  ///< sets answered in the measured phases
  LogLinHist lag;          ///< open loop: actual minus scheduled send time
  uint64_t gets = 0, get_hits = 0, sets = 0, stored = 0;
  uint64_t shed = 0, errors = 0, bad_values = 0, unanswered = 0;
  SpanSampler spans;
};

/// One load-generating thread: closed loop through the saturation phases,
/// open loop at its share of kOpenLoopRate after them.
void client_thread(int t, uint16_t port, uint64_t seed,
                   const std::vector<std::string>& keys,
                   const std::atomic<int>& phase, ClientSlot& s, Tracer* tr,
                   const uint64_t* phase_span, std::latch& started) {
  // Finer sleeps than the default 50 us timer slack: the open loop's
  // per-thread inter-send gap is 100 us.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  std::vector<std::unique_ptr<kv::Conn>> conns = connect_all(port, kConnsPerThread);
  std::vector<std::deque<Pending>> fifo(kConnsPerThread);
  montage::util::ZipfianGenerator zipf(kRecords, kZipfTheta, mix64(seed * 97 + t));
  montage::util::Xorshift128Plus rng(mix64(seed * 89 + t));
  const uint64_t period_ns =
      static_cast<uint64_t>(1e9 / (kOpenLoopRate / kClientThreads));
  uint64_t version = (static_cast<uint64_t>(t) + 1) << 40;
  uint64_t next_sched = 0;  // 0 until the open loop starts
  std::size_t rr = 0;

  auto issue = [&](std::size_t c, uint64_t t_ref) {
    const uint64_t id = zipf.next_scrambled();
    const bool is_set = rng.next_bounded(100) < kSetPercent;
    conns[c]->queue(is_set ? kv::set_request(keys[id], kv::value(id, ++version))
                           : kv::get_request(keys[id]));
    fifo[c].push_back({t_ref, id, is_set});
  };
  auto handle = [&](const Pending& p, const kv::Response& r, uint64_t t_now, int ph) {
    ++(p.is_set ? s.sets : s.gets);
    switch (r.kind) {
      case kv::Response::kValue:
        if (p.is_set) {
          ++s.errors;
        } else {
          ++s.get_hits;
          if (!kv::value_ok(r.data, p.id)) ++s.bad_values;
        }
        break;
      case kv::Response::kMiss:
        s.errors += p.is_set;
        break;
      case kv::Response::kStored:
        ++(p.is_set ? s.stored : s.errors);
        break;
      case kv::Response::kServerError:
        ++s.shed;
        break;
      default:
        ++s.errors;
    }
    if (ph < 0) return;
    const uint64_t lat = t_now - p.t_ref;
    (p.is_set ? s.write[ph] : s.read[ph]).record(lat);
    if (p.is_set && ph >= 1) ++s.sets_done;
    ++s.done[ph];
    if (tr != nullptr && Tracer::sampling_phase(ph)) {
      s.spans.offer(*tr, p.is_set ? "kv.set" : "kv.get", "client", p.t_ref, t_now,
                    static_cast<uint32_t>(t + 1), phase_span[ph]);
    }
  };
  auto outstanding = [&] {
    std::size_t n = 0;
    for (auto& f : fifo) n += f.size();
    return n;
  };

  started.arrive_and_wait();
  std::vector<pollfd> pfds(kConnsPerThread);
  uint64_t stop_deadline = 0;
  for (;;) {
    const int ph = phase.load(std::memory_order_relaxed);
    uint64_t now = now_ns();
    if (ph == kStop) {
      // Collect what is still owed, for at most 5 s.
      if (stop_deadline == 0) stop_deadline = now + 5'000'000'000ull;
      if (outstanding() == 0 || now > stop_deadline) break;
    } else if (ph < kFirstOpen) {
      for (std::size_t c = 0; c < conns.size(); ++c) {
        while (fifo[c].size() < kPipelineDepth) issue(c, now);
      }
    } else if (next_sched == 0) {
      // Entering the open loop: let the closed loop's requests drain first.
      if (outstanding() == 0) next_sched = now;
    } else {
      while (next_sched <= now) {
        s.lag.record(now - next_sched);
        issue(rr++ % conns.size(), next_sched);
        next_sched += period_ns;
      }
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      conns[c]->flush();
      pfds[c] = {conns[c]->fd(),
                 static_cast<short>(POLLIN | (conns[c]->want_write() ? POLLOUT : 0)),
                 0};
    }
    // Sleep until a response arrives or a socket drains, for at most 1 ms,
    // and in the open loop no later than the next scheduled send.
    uint64_t wait_ns = 1'000'000;
    if (next_sched != 0 && ph != kStop) {
      now = now_ns();
      wait_ns = next_sched > now ? std::min(wait_ns, next_sched - now) : 0;
    }
    timespec ts{0, static_cast<long>(wait_ns)};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    bool broken = false;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      broken |= !conns[c]->receive();
      kv::Response r;
      while (!fifo[c].empty() && conns[c]->next(&r)) {
        const Pending p = fifo[c].front();
        fifo[c].pop_front();
        handle(p, r, now_ns(), phase.load(std::memory_order_relaxed));
      }
    }
    if (broken) break;
  }
  s.unanswered = outstanding();
}

}  // namespace

WorkloadResult run_kv_server(const RunOptions& o) {
  WorkloadResult r;
  r.name = "kv_server";
  Tracer* tr = o.tracer;
  if (tr != nullptr) tr->begin_workload(r.name);
  const std::string region = o.run_dir + "/kv_server.region";
  std::vector<std::string> keys(kRecords + kBurst);
  for (uint64_t id = 0; id < keys.size(); ++id) keys[id] = kv::key(o.seed, id);

  // 1. Set-up: spawn on a fresh region, then preload every record.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProc> srv;
  bool setup_ok = true;
  const uint64_t setup_start = now_ns();
  for (int rep = 0; another_rep(rep, now_ns() - setup_start); ++rep) {
    srv.reset();
    ::unlink(region.c_str());
    ScopedSpan span(tr, "setup", "bench");
    const uint64_t t0 = now_ns();
    srv = std::make_unique<ServerProc>(o.run_dir, region);
    if (!srv->ok()) {
      r.check("server_start", false, "montage_kv_server did not start; see kv_server.log");
      return r;
    }
    auto conns = connect_all(srv->port(), kClientThreads * kConnsPerThread);
    uint64_t stored = 0;
    const bool ran = run_batch(
        conns, kRecords, 64,
        [&](uint64_t id) { return kv::set_request(keys[id], kv::value(id, 0)); },
        [&](uint64_t, const kv::Response& resp) {
          stored += resp.kind == kv::Response::kStored;
        });
    setup_ok = setup_ok && ran && stored == kRecords;
    setup_s.push_back(to_seconds(now_ns() - t0));
  }
  r.check("preload", setup_ok, "every preloaded set was acknowledged STORED");

  // 2-3. Saturation, then the open loop.
  std::atomic<int> phase{0};
  uint64_t phase_span[kPhases] = {};
  if (tr != nullptr) {
    for (uint64_t& id : phase_span) id = tr->next_id();
  }
  std::vector<std::unique_ptr<ClientSlot>> slots;
  for (int t = 0; t < kClientThreads; ++t) slots.push_back(std::make_unique<ClientSlot>());
  std::latch started(kClientThreads + 1);
  std::vector<std::thread> ts;
  for (int t = 0; t < kClientThreads; ++t) {
    ts.emplace_back(client_thread, t, srv->port(), o.seed, std::cref(keys),
                    std::cref(phase), std::ref(*slots[t]), tr, phase_span,
                    std::ref(started));
  }
  started.arrive_and_wait();
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  uint64_t t_phase[kPhases + 1];
  t_phase[0] = now_ns();
  sleep_s(o.warmup_s());
  const RegistrySnap before = parse_prometheus(kv::http_get(srv->admin_port(), "/metrics"));
  for (int i = 1; i < kPhases; ++i) {
    phase.store(i, std::memory_order_relaxed);
    t_phase[i] = now_ns();
    // The library workloads' interval time, split 3:2 between saturation
    // and open-loop intervals.
    sleep_s((i < kFirstOpen ? 0.6 : 0.4) * o.interval_s());
  }
  phase.store(kStop, std::memory_order_relaxed);
  t_phase[kPhases] = now_ns();
  const RegistrySnap after = parse_prometheus(kv::http_get(srv->admin_port(), "/metrics"));
  for (auto& th : ts) th.join();
  if (tr != nullptr) {
    for (int i = 0; i < kPhases; ++i) {
      tr->add({i == 0 ? "warmup" : i < kFirstOpen ? "saturation" : "open_loop",
               "bench", t_phase[i], t_phase[i + 1], 0, phase_span[i], 0});
    }
    for (auto& s : slots) s->spans.hand_to(*tr);
  }

  // Throughput from the saturation phase, latency from the open loop.
  IntervalStats saturation, open_loop;
  for (int i = 1; i < kPhases; ++i) {
    LogLinHist rd, wr;
    uint64_t done = 0;
    for (auto& s : slots) {
      rd.merge(s->read[i]);
      wr.merge(s->write[i]);
      done += s->done[i];
    }
    (i < kFirstOpen ? saturation : open_loop)
        .add(rd, wr, done, to_seconds(t_phase[i + 1] - t_phase[i]));
  }
  const uint64_t measured = saturation.ops() + open_loop.ops();
  uint64_t sets_done = 0;
  ClientSlot total;
  for (auto& s : slots) {
    total.lag.merge(s->lag);
    total.gets += s->gets;
    total.get_hits += s->get_hits;
    total.sets += s->sets;
    total.stored += s->stored;
    total.shed += s->shed;
    total.errors += s->errors;
    total.bad_values += s->bad_values;
    total.unanswered += s->unanswered;
    sets_done += s->sets_done;
  }
  r.attempted = measured + total.unanswered;
  r.failed += total.shed + total.errors + total.unanswered;
  saturation.report_throughput(r);
  open_loop.report_latency(r);
  r.e2e("setup_s", summarize(setup_s).median, setup_s, "s");
  r.e2e("space_amp",
        after.gauge("ralloc_bytes_reserved") /
            static_cast<double>(kRecords * (keys[0].size() + 64)),
        "ratio");

  const double measured_s = to_seconds(t_phase[kPhases] - t_phase[1]);
  registry_layer_metrics(r, before, after, measured, measured_s);
  const uint64_t syncs = counter_delta(before, after, "server_sync_batches_total");
  r.layer("montage.sync_us_p50",
          hist_delta_percentile(before, after, "epoch_sync_latency_ns", 0.5) / 1e3, "us",
          true);
  r.layer("montage.sync_us_p99",
          hist_delta_percentile(before, after, "epoch_sync_latency_ns", 0.99) / 1e3, "us",
          true);
  r.layer("server.sets_per_sync", ratio(sets_done, syncs), "sets/sync");
  r.layer("server.sync_caller_ratio",
          ratio(counter_delta(before, after, "server_sync_path_caller_total"), syncs),
          "ratio");
  r.layer("server.ack_lag_us_p50",
          hist_delta_percentile(before, after, "server_ack_lag_ns", 0.5) / 1e3, "us", true);
  r.layer("server.ack_lag_us_p99",
          hist_delta_percentile(before, after, "server_ack_lag_ns", 0.99) / 1e3, "us", true);
  r.layer("server.backpressure_pauses",
          static_cast<double>(counter_delta(before, after, "server_backpressure_pauses_total")),
          "count");
  r.layer("server.requests_shed",
          static_cast<double>(counter_delta(before, after, "server_requests_shed_total")),
          "count");
  r.layer("ds.get_hit_ratio", ratio(total.get_hits, total.gets), "ratio");
  r.layer("ds.insert_ok_ratio", ratio(total.stored, total.sets), "ratio");
  r.layer("client.generator_lag_us_p99", total.lag.percentile(0.99) / 1e3, "us");
  if (tr != nullptr) {
    r.layer("trace.overhead_ratio",
            Tracer::overhead_ratio(saturation.interval_throughput()), "ratio");
  }
  r.check("values_intact", total.bad_values == 0,
          std::to_string(total.bad_values) + " GET values torn or for another key");
  r.check("no_errors", total.errors == 0 && total.shed == 0 && total.unanswered == 0,
          std::to_string(total.errors) + " error replies, " + std::to_string(total.shed) +
              " shed, " + std::to_string(total.unanswered) + " unanswered");

  // 4. A distinct-key burst, every set acknowledged, then kill -9.
  std::vector<bool> acked(kBurst, false);
  {
    auto conns = connect_all(srv->port(), 1);
    run_batch(
        conns, kBurst, 16,
        [&](uint64_t i) {
          return kv::set_request(keys[kRecords + i], kv::value(kRecords + i, 1));
        },
        [&](uint64_t i, const kv::Response& resp) {
          acked[i] = resp.kind == kv::Response::kStored;
        });
    ScopedSpan span(tr, "kill9", "server");
    srv->kill9();
  }
  const uint64_t nacked =
      static_cast<uint64_t>(std::count(acked.begin(), acked.end(), true));
  r.check("burst_acked", nacked == kBurst,
          std::to_string(nacked) + " of " + std::to_string(kBurst) + " burst sets acked");

  std::vector<double> recover_s;
  std::string lost;
  uint64_t preload_lost = 0;
  const uint64_t restart_start = now_ns();
  for (int rep = 0; lost.empty() && another_rep(rep, now_ns() - restart_start); ++rep) {
    ScopedSpan span(tr, "restart", "server");
    const uint64_t t0 = now_ns();
    srv = std::make_unique<ServerProc>(o.run_dir, region);
    if (!srv->ok()) {
      lost = "restart " + std::to_string(rep + 1) + ": server did not come back";
      break;
    }
    auto conns = connect_all(srv->port(), kClientThreads * kConnsPerThread);
    kv::Response first;
    run_batch(
        conns, 1, 1, [&](uint64_t) { return kv::get_request(keys[kRecords]); },
        [&](uint64_t, const kv::Response& resp) { first = resp; });
    recover_s.push_back(to_seconds(now_ns() - t0));
    // Every acked burst key must read back byte-identical. The first
    // restart also reads back every preloaded record, which, when present,
    // must hold an intact value of its own (the load may have overwritten
    // it).
    const uint64_t n = kBurst + (rep == 0 ? kRecords : 0);
    auto id_of = [&](uint64_t i) { return i < kBurst ? kRecords + i : i - kBurst; };
    uint64_t missing = 0, torn = 0;
    const bool ran = run_batch(
        conns, n, 64, [&](uint64_t i) { return kv::get_request(keys[id_of(i)]); },
        [&](uint64_t i, const kv::Response& resp) {
          const uint64_t id = id_of(i);
          if (resp.kind != kv::Response::kValue) {
            if (i >= kBurst) {
              ++preload_lost;
            } else if (acked[i]) {
              ++missing;
            }
          } else if (i < kBurst ? resp.data != kv::value(id, 1)
                                : !kv::value_ok(resp.data, id)) {
            ++torn;
          }
        });
    if (first.kind != kv::Response::kValue || !ran || missing != 0 || torn != 0) {
      lost = "restart " + std::to_string(rep + 1) + ": first GET " +
             (first.kind == kv::Response::kValue ? "hit" : "missed") + ", " +
             std::to_string(missing) + " acked burst keys missing, " + std::to_string(torn) +
             " torn values" + (ran ? "" : ", read-back timed out");
    }
    srv->kill9();
  }
  srv.reset();
  ::unlink(region.c_str());
  r.check("acked_writes_survive_kill9", lost.empty(),
          lost.empty() ? "every acked burst key read back byte-identical after each "
                         "restart; no value torn"
                       : lost);
  r.layer("server.preload_lost_after_kill9", static_cast<double>(preload_lost), "count");
  r.e2e("recover_s", summarize(recover_s).median, recover_s, "s");
  r.e2e("error_rate", ratio(r.failed, r.attempted), "ratio");
  return r;
}

}  // namespace suite
