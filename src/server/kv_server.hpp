// Networked KV server over MontageMemCache (DESIGN.md §11, ROADMAP item 1).
//
// A multi-threaded epoll event loop speaking the memcached text protocol on
// loopback, wrapped in a robustness envelope:
//
//  * ACK-after-sync — a mutation's response is held in a per-connection FIFO
//    until the epoch observed after the operation is covered by the
//    persistence frontier; a dedicated syncer thread runs one batched,
//    bounded EpochSys::sync_for() per interval on behalf of every
//    connection, so a SIGKILLed server never acknowledged a write that
//    recovery can lose. The syncer is an optimization, not a dependency:
//    a worker whose oldest pending ACK exceeds the help threshold drives a
//    bounded sync itself (server.sync_path_caller), so a stalled or wedged
//    syncer can never delay durable ACKs indefinitely.
//  * Backpressure — per-connection buffered output is bounded; beyond the
//    bound the server stops reading that socket until the peer drains.
//  * Overload shedding — connections beyond max_conns are refused with
//    SERVER_ERROR busy; requests beyond the per-worker in-flight cap are
//    answered SERVER_ERROR overloaded instead of queueing unboundedly.
//  * Idle / stall timeouts — silent connections and peers that stop reading
//    their responses are closed on a housekeeping tick.
//  * Graceful drain — request_drain() (async-signal-safe, SIGTERM handlers
//    call it) stops accepting, answers what was already received, releases
//    every pending ACK behind a final sync, flushes, and force-closes
//    whatever is left when the drain deadline expires.
//  * Crash-die — in kTracked regions an armed MONTAGE_CRASH_AT schedule
//    fires mid-persistence; the server commits the crash image
//    (simulate_crash) and exits with kCrashExitCode so a harness can
//    restart it on the surviving file, exactly like a power failure.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <deque>
#include <string>
#include <unordered_map>

#include "kvstore/memcache.hpp"
#include "montage/epoch_sys.hpp"
#include "server/config.hpp"
#include "util/promexpo.hpp"
#include "util/telemetry.hpp"

namespace montage::server {

/// Exit code of a server process whose armed crash schedule fired: the
/// harness distinguishes "died at the scheduled persistence event" from
/// ordinary failures.
inline constexpr int kCrashExitCode = 42;

/// The epoll server. Construction binds and listens (so port() is valid
/// immediately, including kernel-assigned ephemeral ports); run() blocks on
/// the calling thread until a drain completes.
class KvServer {
 public:
  /// Bind a loopback listener per `cfg` and prepare worker state. The cache
  /// and epoch system must outlive the server. Throws std::runtime_error if
  /// the socket cannot be bound.
  KvServer(const ServerConfig& cfg, kvstore::MontageMemCache* cache,
           EpochSys* esys);
  /// Force-closes anything still open (run() normally already has).
  ~KvServer();
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// The bound TCP port (the kernel's choice when cfg.port was 0).
  uint16_t port() const { return port_; }

  /// The bound admin-listener port (0 when the admin plane is disabled).
  uint16_t admin_port() const { return admin_port_; }

  /// Serve until a drain completes: spawns the workers and the ack syncer,
  /// then runs the acceptor on the calling thread.
  void run();

  /// Request a graceful drain; async-signal-safe (one eventfd write), so a
  /// SIGTERM handler may call it directly.
  void request_drain();

  /// Wall time the drain took, in ns; 0 until a drain has completed.
  uint64_t drain_latency_ns() const {
    return drain_latency_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  struct Worker;

  void acceptor_loop();
  void worker_loop(Worker& w);
  void syncer_loop();
  void accept_ready();
  void adopt_new_conns(Worker& w);
  void handle_readable(Worker& w, Conn& c);
  void handle_request(Worker& w, Conn& c, const struct Request& req);
  void enqueue(Worker& w, Conn& c, std::string bytes, uint64_t epoch,
               bool noreply, const char* verb = "", uint64_t key_hash = 0,
               uint64_t begin_epoch = 0);
  void maybe_help_sync(Worker& w);
  void release_and_flush(Worker& w, Conn& c);
  void flush_writes(Conn& c);
  void update_interest(Conn& c, int epfd);
  void scan_timeouts(Worker& w, uint64_t now_ns);
  void close_conn(Worker& w, Conn& c);
  std::string stats_payload();
  std::string montage_stats_payload();
  [[noreturn]] void crash_die();

  // ---- admin/introspection plane (DESIGN.md §14) ----
  // All admin state is owned by the thread running run(): the acceptor loop
  // pumps it while serving, and run()'s drain-wait loop keeps pumping it so
  // /healthz answers 503 for the whole drain window. No locking needed
  // beyond window_m_ (the rate window is also read at scrape time).
  struct AdminConn;

  void admin_pump(int timeout_ms);
  void admin_accept();
  void admin_io(AdminConn& a);
  void admin_handle(AdminConn& a);
  void admin_flush(AdminConn& a);
  void maybe_push_rate_snapshot(uint64_t now_ns);
  void record_slow_op(const struct PendingResp& p, uint64_t lat_ns,
                      uint64_t frontier);
  std::string metrics_payload();
  std::string varz_payload();

  ServerConfig cfg_;
  kvstore::MontageMemCache* cache_;
  EpochSys* esys_;

  int listen_fd_ = -1;
  int drain_efd_ = -1;
  uint16_t port_ = 0;

  int admin_listen_fd_ = -1;
  int admin_epfd_ = -1;
  uint16_t admin_port_ = 0;
  std::unordered_map<int, std::unique_ptr<AdminConn>> admin_conns_;
  std::mutex window_m_;           ///< guards window_ (tick push vs scrape)
  promexpo::RateWindow window_;   ///< last-N registry snapshots for rates
  uint64_t last_window_push_ns_ = 0;
  std::mutex slow_m_;             ///< guards slow_ring_
  std::deque<std::string> slow_ring_;  ///< recent slow ops, rendered JSON

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread syncer_;
  std::mutex sync_m_;                ///< guards sync_cv_ waits
  std::condition_variable sync_cv_;  ///< wakes the syncer early (drain, stop)
  std::atomic<bool> syncer_stop_{false};
  std::atomic<bool> draining_{false};  ///< stop accepting, flush and close
  std::atomic<bool> stop_{false};      ///< drain deadline hit: force-close
  std::atomic<uint64_t> ack_target_{0};  ///< max epoch any pending ACK needs
  uint64_t help_threshold_ns_ = 0;  ///< caller-helped sync trigger (resolved)
  std::atomic<uint64_t> conn_count_{0};
  std::atomic<uint64_t> drain_latency_ns_{0};
  uint32_t next_worker_ = 0;  ///< round-robin dispatch cursor (acceptor only)
};

}  // namespace montage::server
