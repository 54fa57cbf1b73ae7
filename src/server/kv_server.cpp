#include "server/kv_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "nvm/region.hpp"
#include "server/protocol.hpp"
#include "util/log.hpp"
#include "util/timing.hpp"

namespace montage::server {

namespace {

constexpr int kEpollBatch = 128;
constexpr int kTickMs = 10;            // epoll_wait timeout: housekeeping tick
constexpr uint64_t kScanPeriodNs = 100'000'000;  // timeout scan every 100 ms
constexpr int kMutationRetries = 8;    // epoch-conflict retry budget per op

uint64_t wall_seconds() { return static_cast<uint64_t>(::time(nullptr)); }

// FNV-1a over the request key: slow-op log lines carry a stable hash, not
// the key itself (keys may be sensitive; a hash still correlates repeats).
uint64_t key_hash64(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::size_t kSlowRingCap = 64;     // /varz recent-slow-ops depth
constexpr std::size_t kAdminHdrMax = 8192;   // admin request header cap
constexpr uint64_t kWindowPushNs = 1'000'000'000ull;  // rate-window cadence

// Accepted fds are already non-blocking (accept4 passes SOCK_NONBLOCK).
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// One response waiting behind the persistence frontier.
struct PendingResp {
  std::string bytes;
  uint64_t epoch;   // 0 = releasable immediately (reads, errors)
  uint64_t enq_ns;  // for the ack-lag histogram and slow-op latency
  // Slow-op identity (DESIGN.md §14): who this response answers, captured at
  // parse time so a late release can still say what was slow.
  const char* verb = "";   // static verb name, "" for protocol errors
  uint64_t key_hash = 0;   // FNV-1a of the first key, 0 when keyless
  uint64_t begin_epoch = 0;  // clock when the request began executing
};

/// One admin HTTP/1.1 connection (GET + Connection: close state machine).
struct KvServer::AdminConn {
  int fd = -1;
  std::string in;        // request bytes until the blank line
  std::string out;       // rendered response
  std::size_t out_off = 0;
  bool responded = false;  // request handled; close once out drains
  bool dead = false;
};

struct KvServer::Conn {
  int fd = -1;
  std::string in;                   // unparsed request bytes
  uint64_t discard_remaining = 0;   // oversized data block being skipped
  std::deque<PendingResp> pending;  // FIFO: responses awaiting release
  std::size_t pending_bytes = 0;
  std::string out;  // released bytes being written
  std::size_t out_off = 0;
  uint64_t last_read_ns = 0;
  uint64_t last_progress_ns = 0;  // last write progress while output pending
  uint32_t armed = 0;             // epoll events currently registered
  bool paused = false;            // backpressure: EPOLLIN disarmed
  bool close_after_flush = false;
  bool dead = false;
};

struct KvServer::Worker {
  int epfd = -1;
  int wake = -1;  // eventfd: new connections, syncer release, drain, stop
  std::thread th;
  std::mutex inbox_m;
  std::vector<int> inbox;  // fds handed over by the acceptor
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::atomic<uint64_t> inflight{0};  // pending responses across this worker
  std::atomic<bool> done{false};
  bool drain_entered = false;
  uint64_t last_scan_ns = 0;

  void ring() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(wake, &one, sizeof(one));
  }
};

KvServer::KvServer(const ServerConfig& cfg, kvstore::MontageMemCache* cache,
                   EpochSys* esys)
    : cfg_(cfg), cache_(cache), esys_(esys) {
  help_threshold_ns_ = (cfg_.help_threshold_us != 0
                            ? cfg_.help_threshold_us
                            : cfg_.sync_interval_us * 8) *
                       1'000ull;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("kv_server: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    throw std::runtime_error("kv_server: cannot bind port " +
                             std::to_string(cfg_.port));
  }
  const int backlog = static_cast<int>(
      cfg_.max_conns < 128 ? cfg_.max_conns : 128);
  if (::listen(listen_fd_, backlog) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("kv_server: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
  drain_efd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (drain_efd_ < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("kv_server: eventfd() failed");
  }
  if (cfg_.admin_enabled) {
    // The admin plane binds loopback only, like the data port: /metrics and
    // /varz expose operational internals and must not face the network
    // without an operator-provided proxy in front.
    admin_listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (admin_listen_fd_ < 0) {
      ::close(listen_fd_);
      ::close(drain_efd_);
      throw std::runtime_error("kv_server: admin socket() failed");
    }
    ::setsockopt(admin_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in aaddr{};
    aaddr.sin_family = AF_INET;
    aaddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    aaddr.sin_port = htons(cfg_.admin_port);
    if (::bind(admin_listen_fd_, reinterpret_cast<sockaddr*>(&aaddr),
               sizeof(aaddr)) != 0 ||
        ::listen(admin_listen_fd_, 16) != 0) {
      ::close(admin_listen_fd_);
      ::close(listen_fd_);
      ::close(drain_efd_);
      throw std::runtime_error("kv_server: cannot bind admin port " +
                               std::to_string(cfg_.admin_port));
    }
    sockaddr_in abound{};
    socklen_t alen = sizeof(abound);
    ::getsockname(admin_listen_fd_, reinterpret_cast<sockaddr*>(&abound),
                  &alen);
    admin_port_ = ntohs(abound.sin_port);
    admin_epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (admin_epfd_ < 0) {
      ::close(admin_listen_fd_);
      ::close(listen_fd_);
      ::close(drain_efd_);
      throw std::runtime_error("kv_server: admin epoll failed");
    }
    epoll_event aev{};
    aev.events = EPOLLIN;
    aev.data.ptr = nullptr;  // nullptr tags the admin listener
    ::epoll_ctl(admin_epfd_, EPOLL_CTL_ADD, admin_listen_fd_, &aev);
  }
  for (uint32_t i = 0; i < cfg_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    w->wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->epfd < 0 || w->wake < 0) {
      throw std::runtime_error("kv_server: worker epoll/eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr tags the wake eventfd
    ::epoll_ctl(w->epfd, EPOLL_CTL_ADD, w->wake, &ev);
    workers_.push_back(std::move(w));
  }
}

KvServer::~KvServer() {
  for (auto& w : workers_) {
    for (auto& [fd, c] : w->conns) ::close(fd);
    if (w->epfd >= 0) ::close(w->epfd);
    if (w->wake >= 0) ::close(w->wake);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (drain_efd_ >= 0) ::close(drain_efd_);
  for (auto& [fd, a] : admin_conns_) ::close(fd);
  if (admin_listen_fd_ >= 0) ::close(admin_listen_fd_);
  if (admin_epfd_ >= 0) ::close(admin_epfd_);
}

void KvServer::request_drain() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(drain_efd_, &one, sizeof(one));
}

void KvServer::run() {
  for (auto& w : workers_) {
    w->th = std::thread([this, wp = w.get()] { worker_loop(*wp); });
  }
  syncer_ = std::thread([this] { syncer_loop(); });

  acceptor_loop();  // returns once a drain was requested

  // ---- graceful drain ----
  const uint64_t t0 = util::now_ns();
  ::close(listen_fd_);
  listen_fd_ = -1;
  draining_.store(true, std::memory_order_release);
  util::log::info("drain_begin")
      .field("port", static_cast<uint64_t>(port_))
      .field("deadline_ms", cfg_.drain_deadline_ms);
  for (auto& w : workers_) w->ring();
  sync_cv_.notify_all();

  const uint64_t deadline = t0 + cfg_.drain_deadline_ms * 1'000'000ull;
  bool all_done = false;
  while (!all_done && util::now_ns() < deadline) {
    all_done = true;
    for (auto& w : workers_) {
      if (!w->done.load(std::memory_order_acquire)) all_done = false;
    }
    if (!all_done) {
      // Keep the admin plane answering for the whole drain window (/healthz
      // must say 503 so load balancers stop routing); the 1 ms pump timeout
      // doubles as the wait backoff.
      if (admin_epfd_ >= 0) {
        admin_pump(1);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  if (!all_done) {
    // Deadline expired: force-close whatever is still in flight. Unreleased
    // ACKs are simply never sent — exactly the promise the protocol makes.
    stop_.store(true, std::memory_order_release);
    for (auto& w : workers_) w->ring();
  }
  for (auto& w : workers_) w->th.join();
  syncer_stop_.store(true, std::memory_order_release);
  sync_cv_.notify_all();
  syncer_.join();

  const uint64_t dt = util::now_ns() - t0;
  drain_latency_ns_.store(dt, std::memory_order_relaxed);
  telemetry::observe(telemetry::Hist::kSrvDrainLatency, dt);
  util::log::info("drain_done")
      .field("forced", !all_done)
      .field("latency_ms", static_cast<double>(dt) / 1e6);
}

// ---- acceptor ---------------------------------------------------------------

void KvServer::acceptor_loop() {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = 0;  // listen socket
  ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u32 = 1;  // drain eventfd
  ::epoll_ctl(ep, EPOLL_CTL_ADD, drain_efd_, &ev);
  if (admin_epfd_ >= 0) {
    ev.data.u32 = 2;  // admin plane: its epoll fd is itself pollable
    ::epoll_ctl(ep, EPOLL_CTL_ADD, admin_epfd_, &ev);
  }
  // With the admin plane on, wake periodically to feed the rate window even
  // when no traffic arrives (a scrape after an idle minute must still see
  // fresh rates, and the window is what distinguishes "0/s now" from
  // "lifetime average").
  const int timeout = admin_epfd_ >= 0 ? 250 : -1;
  bool drain = false;
  while (!drain) {
    epoll_event evs[8];
    const int n = ::epoll_wait(ep, evs, 8, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.u32 == 1) {
        drain = true;
      } else if (evs[i].data.u32 == 2) {
        admin_pump(0);
      } else {
        accept_ready();
      }
    }
    if (admin_epfd_ >= 0) maybe_push_rate_snapshot(util::now_ns());
  }
  ::close(ep);
}

void KvServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (conn_count_.load(std::memory_order_relaxed) >= cfg_.max_conns) {
      // Listen-queue cap: shed at the door, visibly, instead of queueing.
      static constexpr char kBusy[] = "SERVER_ERROR busy\r\n";
      [[maybe_unused]] ssize_t r =
          ::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      stats_.conns_shed.add();
      telemetry::count(telemetry::Ctr::kSrvConnsShed);
      continue;
    }
    set_nodelay(fd);
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    stats_.conns_accepted.add();
    telemetry::count(telemetry::Ctr::kSrvConnsAccepted);
    Worker& w = *workers_[next_worker_++ % workers_.size()];
    {
      std::lock_guard lk(w.inbox_m);
      w.inbox.push_back(fd);
    }
    w.ring();
  }
}

// ---- syncer -----------------------------------------------------------------

void KvServer::syncer_loop() {
  if (cfg_.syncer_wedge) {
    // TEST ONLY: the syncer is "SIGSTOPped" — it exists but never syncs.
    // ACK durability must come entirely from the caller-helped path.
    std::unique_lock lk(sync_m_);
    sync_cv_.wait(lk, [this] {
      return syncer_stop_.load(std::memory_order_acquire);
    });
    return;
  }
  // One bounded sync per interval. The bound matters: the syncer must come
  // back to re-read ack_target_ and notice a drain even when a wedged peer
  // (adoption pending) stalls an advance, and the workers' caller-helped
  // path is the guarantee that ACKs drain regardless of this thread's fate.
  const uint64_t budget_ns =
      std::max<uint64_t>(cfg_.sync_interval_us * 1'000ull * 10, 50'000'000ull);
  while (!syncer_stop_.load(std::memory_order_acquire)) {
    {
      std::unique_lock lk(sync_m_);
      sync_cv_.wait_for(lk, std::chrono::microseconds(cfg_.sync_interval_us));
    }
    if (syncer_stop_.load(std::memory_order_acquire)) break;
    const bool draining = draining_.load(std::memory_order_acquire);
    const uint64_t target = ack_target_.load(std::memory_order_acquire);
    if (!draining && target <= esys_->persisted_frontier()) continue;
    bool synced = false;
    try {
      synced = esys_->sync_for(budget_ns);
    } catch (const nvm::CrashPointException&) {
      crash_die();
    } catch (const PersistError& e) {
      // Transient device errors did not clear within the retry budget; the
      // payloads stay queued and the next batch retries them. ACKs simply
      // wait longer — durability is never claimed early.
      util::log::warn("sync_failed").field("path", "syncer").field("error",
                                                                   e.what());
      continue;
    }
    if (!synced) continue;  // timed out on a wedged peer: retry next interval
    stats_.sync_batches.add();
    stats_.sync_path_syncer.add();
    telemetry::count(telemetry::Ctr::kSrvSyncBatches);
    telemetry::count(telemetry::Ctr::kSrvSyncPathSyncer);
    for (auto& w : workers_) w->ring();  // frontier moved: release ACKs
  }
}

// A worker whose oldest pending ACK has waited past the help threshold stops
// trusting the syncer thread and drives a bounded sync itself. This is the
// liveness guarantee behind ACK-after-sync: the syncer is a batching
// optimization, and a wedged (or killed, or descheduled) syncer only costs
// latency up to the threshold — never unbounded ACK delay.
void KvServer::maybe_help_sync(Worker& w) {
  const uint64_t target = ack_target_.load(std::memory_order_acquire);
  if (target <= esys_->persisted_frontier()) return;
  uint64_t oldest = UINT64_MAX;
  for (auto& [fd, c] : w.conns) {
    if (c->dead || c->pending.empty()) continue;
    const PendingResp& p = c->pending.front();
    if (p.epoch != 0 && p.enq_ns < oldest) oldest = p.enq_ns;
  }
  if (oldest == UINT64_MAX) return;
  const uint64_t now = util::now_ns();
  if (now - oldest < help_threshold_ns_) return;
  bool synced = false;
  try {
    // Same budget shape as the syncer: generous enough to cover two
    // cooperative advances, bounded so one wedged peer cannot capture an
    // event-loop thread (CrashPointException propagates to worker_loop).
    synced = esys_->sync_for(std::max<uint64_t>(
        cfg_.sync_interval_us * 1'000ull * 10, 50'000'000ull));
  } catch (const PersistError& e) {
    util::log::warn("sync_failed").field("path", "caller").field("error",
                                                                 e.what());
    return;
  }
  if (!synced) return;
  stats_.sync_batches.add();
  stats_.sync_path_caller.add();
  telemetry::count(telemetry::Ctr::kSrvSyncBatches);
  telemetry::count(telemetry::Ctr::kSrvSyncPathCaller);
}

// ---- worker -----------------------------------------------------------------

void KvServer::adopt_new_conns(Worker& w) {
  std::vector<int> fds;
  {
    std::lock_guard lk(w.inbox_m);
    fds.swap(w.inbox);
  }
  for (int fd : fds) {
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->last_read_ns = util::now_ns();
    c->last_progress_ns = c->last_read_ns;
    c->armed = EPOLLIN;
    if (w.drain_entered) {
      // Accepted just before the listener closed, adopted after this worker
      // already swept its connections for drain: close it on the same terms.
      c->close_after_flush = true;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    if (::epoll_ctl(w.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conn_count_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    w.conns.emplace(fd, std::move(c));
  }
}

void KvServer::worker_loop(Worker& w) {
  epoll_event evs[kEpollBatch];
  try {
    while (true) {
      const int n = ::epoll_wait(w.epfd, evs, kEpollBatch, kTickMs);
      if (n < 0 && errno != EINTR) break;
      adopt_new_conns(w);
      for (int i = 0; i < (n > 0 ? n : 0); ++i) {
        if (evs[i].data.ptr == nullptr) {
          uint64_t v;
          [[maybe_unused]] ssize_t r = ::read(w.wake, &v, sizeof(v));
          continue;
        }
        auto* c = static_cast<Conn*>(evs[i].data.ptr);
        if (c->dead) continue;
        if ((evs[i].events & EPOLLIN) != 0) handle_readable(w, *c);
        if ((evs[i].events & EPOLLOUT) != 0 && !c->dead) {
          flush_writes(*c);
          update_interest(*c, w.epfd);
        }
        if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
            (evs[i].events & EPOLLIN) == 0) {
          c->dead = true;
        }
      }

      const bool draining = draining_.load(std::memory_order_acquire);
      if (draining && !w.drain_entered) {
        w.drain_entered = true;
        // Stop reading; answer what was already buffered, then flush out.
        for (auto& [fd, c] : w.conns) {
          if (c->dead) continue;
          handle_readable(w, *c);  // parses the remaining buffered input
          c->close_after_flush = true;
          c->paused = true;
          update_interest(*c, w.epfd);
        }
      }

      // The frontier may have moved (syncer ring): try releasing everywhere.
      // If it has not moved and our oldest ACK is past the help threshold,
      // run the sync ourselves before releasing.
      maybe_help_sync(w);
      for (auto& [fd, c] : w.conns) {
        if (!c->dead && (!c->pending.empty() || c->out_off < c->out.size() ||
                         c->close_after_flush)) {
          release_and_flush(w, *c);
        }
      }

      const uint64_t now = util::now_ns();
      if (now - w.last_scan_ns > kScanPeriodNs) {
        w.last_scan_ns = now;
        scan_timeouts(w, now);
      }

      if (stop_.load(std::memory_order_acquire)) {
        for (auto& [fd, c] : w.conns) c->dead = true;
      }
      for (auto it = w.conns.begin(); it != w.conns.end();) {
        if (it->second->dead) {
          close_conn(w, *it->second);
          it = w.conns.erase(it);
        } else {
          ++it;
        }
      }
      if (draining && w.conns.empty()) break;
    }
  } catch (const nvm::CrashPointException&) {
    crash_die();
  }
  w.done.store(true, std::memory_order_release);
}

void KvServer::handle_readable(Worker& w, Conn& c) {
  char tmp[16384];
  while (!c.paused && !c.close_after_flush) {
    const ssize_t n = ::recv(c.fd, tmp, sizeof(tmp), 0);
    if (n > 0) {
      const char* p = tmp;
      std::size_t len = static_cast<std::size_t>(n);
      c.last_read_ns = util::now_ns();
      if (c.discard_remaining > 0) {
        // Mid-skip of an oversized data block: drop the bytes on the floor
        // instead of buffering them (c.in stays bounded no matter how large
        // the announced block is).
        const uint64_t d = std::min<uint64_t>(c.discard_remaining, len);
        p += d;
        len -= static_cast<std::size_t>(d);
        c.discard_remaining -= d;
      }
      c.in.append(p, len);
      if (c.in.size() > kMaxLineBytes + kMaxValueBytes + 2) break;
    } else if (n == 0) {
      // Peer half-closed: answer what we have, then close.
      c.close_after_flush = true;
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      c.dead = true;
      return;
    }
  }
  std::size_t off = 0;
  while (off < c.in.size()) {
    const ParseResult r =
        parse_request(std::string_view(c.in).substr(off));
    if (r.status == ParseStatus::kNeedMore) {
      // A valid request is at most one max-length line plus one max-size
      // data block; anything longer that still won't parse can never
      // complete, so don't let it pin the buffer (or grow it) forever.
      if (c.in.size() - off > kMaxLineBytes + kMaxValueBytes + 4) {
        enqueue(w, c, "CLIENT_ERROR request too large\r\n", 0,
                /*noreply=*/false);
        c.close_after_flush = true;
      }
      break;
    }
    off += r.consumed;
    stats_.requests.add();
    telemetry::count(telemetry::Ctr::kSrvRequests);
    if (r.status == ParseStatus::kBadLine) {
      enqueue(w, c, r.error, 0, /*noreply=*/false);
      if (r.fatal) {
        c.close_after_flush = true;
        break;
      }
      if (r.discard > 0) {
        // Oversized data block: skip whatever already arrived and arm the
        // recv path to drop the rest as it comes in.
        const uint64_t d = std::min<uint64_t>(r.discard, c.in.size() - off);
        off += static_cast<std::size_t>(d);
        c.discard_remaining = r.discard - d;
        if (c.discard_remaining > 0) break;
      }
      continue;
    }
    try {
      handle_request(w, c, r.req);
    } catch (const nvm::CrashPointException&) {
      throw;  // armed crash schedule: handled at the worker-loop level
    } catch (const std::exception&) {
      // Allocation failure / exhausted retry budget: this request failed,
      // the server survives.
      enqueue(w, c, "SERVER_ERROR internal\r\n", 0, /*noreply=*/false);
    }
    if (c.close_after_flush) break;  // quit: ignore pipelined leftovers
  }
  c.in.erase(0, off);
  release_and_flush(w, c);
}

void KvServer::handle_request(Worker& w, Conn& c, const Request& req) {
  const uint64_t now = wall_seconds();
  // Slow-op identity, captured up front: the epoch the request began in and
  // the hash of its (first) key travel with the pending response so the
  // release path can emit a complete record however late the ACK is.
  const uint64_t begin_epoch = esys_->current_epoch();
  const uint64_t khash = req.keys.empty() ? 0 : key_hash64(req.keys[0]);
  if (cfg_.max_inflight != 0 && req.verb != Verb::kQuit &&
      w.inflight.load(std::memory_order_relaxed) >= cfg_.max_inflight) {
    stats_.requests_shed.add();
    telemetry::count(telemetry::Ctr::kSrvRequestsShed);
    enqueue(w, c, "SERVER_ERROR overloaded\r\n", 0, req.noreply);
    return;
  }
  // Epoch-conflict exceptions (the clock advanced mid-operation, or a stalled
  // op of ours was adopted) mean "the operation did not happen": retry it.
  auto with_retries = [&](auto&& fn) {
    for (int i = 0; i < kMutationRetries; ++i) {
      try {
        return fn();
      } catch (const EpochVerifyException&) {
      } catch (const OldSeeNewException&) {
      }
    }
    throw std::runtime_error("kv_server: mutation retry budget exhausted");
  };
  switch (req.verb) {
    case Verb::kGet: {
      std::string resp;
      for (const auto& k : req.keys) {
        uint32_t flags = 0;
        // Even a read can hit an epoch conflict: lazy expiry of a stale item
        // runs a persistent delete, which a racing epoch advance can abort.
        const auto v = with_retries(
            [&] { return cache_->get(kvstore::CacheKey(k), &flags, now); });
        if (!v.has_value()) continue;
        resp += "VALUE " + k + " " + std::to_string(flags) + " " +
                std::to_string(v->size()) + "\r\n";
        resp.append(v->c_str(), v->size());
        resp += "\r\n";
      }
      resp += "END\r\n";
      enqueue(w, c, std::move(resp), 0, /*noreply=*/false, "get", khash,
              begin_epoch);
      break;
    }
    case Verb::kSet:
    case Verb::kAdd: {
      const kvstore::CacheKey key(req.keys[0]);
      const kvstore::CacheValue val(req.data);
      const uint64_t exp = normalize_exptime(req.exptime, now);
      bool stored;
      if (req.verb == Verb::kSet) {
        stored = with_retries(
            [&] { return cache_->set(key, val, req.flags, exp); });
      } else {
        stored = with_retries(
            [&] { return cache_->add(key, val, req.flags, exp, now); });
      }
      // Conservative durability bound: the operation ran in some epoch <= the
      // clock value read after it returned, so once the persistence frontier
      // reaches this value the mutation is crash-proof and the ACK may go out.
      const uint64_t e = esys_->current_epoch();
      uint64_t cur = ack_target_.load(std::memory_order_relaxed);
      while (stored && e > cur &&
             !ack_target_.compare_exchange_weak(cur, e,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
      }
      enqueue(w, c, stored ? "STORED\r\n" : "NOT_STORED\r\n", stored ? e : 0,
              req.noreply, req.verb == Verb::kSet ? "set" : "add", khash,
              begin_epoch);
      break;
    }
    case Verb::kDelete: {
      const bool deleted =
          with_retries([&] { return cache_->del(kvstore::CacheKey(req.keys[0])); });
      const uint64_t e = esys_->current_epoch();
      if (deleted) {
        uint64_t cur = ack_target_.load(std::memory_order_relaxed);
        while (e > cur && !ack_target_.compare_exchange_weak(
                              cur, e, std::memory_order_release,
                              std::memory_order_relaxed)) {
        }
      }
      enqueue(w, c, deleted ? "DELETED\r\n" : "NOT_FOUND\r\n", deleted ? e : 0,
              req.noreply, "delete", khash, begin_epoch);
      break;
    }
    case Verb::kIncr:
    case Verb::kDecr: {
      // The delta stays unsigned with an explicit direction (as in memcached
      // itself): a signed representation could not hold steps >= 2^63.
      const kvstore::CacheKey key(req.keys[0]);
      const auto v = with_retries([&] {
        return req.verb == Verb::kIncr ? cache_->incr(key, req.delta)
                                       : cache_->decr(key, req.delta);
      });
      const uint64_t e = esys_->current_epoch();
      if (v.has_value()) {
        uint64_t cur = ack_target_.load(std::memory_order_relaxed);
        while (e > cur && !ack_target_.compare_exchange_weak(
                              cur, e, std::memory_order_release,
                              std::memory_order_relaxed)) {
        }
        enqueue(w, c, std::to_string(*v) + "\r\n", e, req.noreply,
                req.verb == Verb::kIncr ? "incr" : "decr", khash, begin_epoch);
      } else {
        enqueue(w, c, "NOT_FOUND\r\n", 0, req.noreply,
                req.verb == Verb::kIncr ? "incr" : "decr", khash, begin_epoch);
      }
      break;
    }
    case Verb::kStats:
      enqueue(w, c,
              !req.keys.empty() && req.keys[0] == "montage"
                  ? montage_stats_payload()
                  : stats_payload(),
              0, /*noreply=*/false, "stats", 0, begin_epoch);
      break;
    case Verb::kVersion:
      enqueue(w, c, "VERSION montage-1\r\n", 0, /*noreply=*/false);
      break;
    case Verb::kQuit:
      c.close_after_flush = true;
      break;
  }
}

void KvServer::enqueue(Worker& w, Conn& c, std::string bytes, uint64_t epoch,
                       bool noreply, const char* verb, uint64_t key_hash,
                       uint64_t begin_epoch) {
  if (noreply || bytes.empty()) return;
  c.pending_bytes += bytes.size();
  c.pending.push_back(PendingResp{std::move(bytes), epoch, util::now_ns(),
                                  verb, key_hash, begin_epoch});
  w.inflight.fetch_add(1, std::memory_order_relaxed);
}

void KvServer::release_and_flush(Worker& w, Conn& c) {
  const uint64_t frontier = esys_->persisted_frontier();
  while (!c.pending.empty()) {
    PendingResp& p = c.pending.front();
    if (p.epoch != 0 && p.epoch > frontier) break;
    if (p.epoch != 0) {
      telemetry::observe(telemetry::Hist::kSrvAckLag,
                         util::now_ns() - p.enq_ns);
    }
    if (cfg_.slow_op_ns != 0) {
      // End-to-end latency at the ACK release point: parse -> persist ->
      // the response entering the socket buffer.
      const uint64_t lat = util::now_ns() - p.enq_ns;
      if (lat >= cfg_.slow_op_ns) record_slow_op(p, lat, frontier);
    }
    if (c.out.empty()) c.last_progress_ns = util::now_ns();
    c.pending_bytes -= p.bytes.size();
    c.out += p.bytes;
    c.pending.pop_front();
    w.inflight.fetch_sub(1, std::memory_order_relaxed);
  }
  flush_writes(c);
  // Backpressure: when this peer has more buffered than it is draining,
  // stop reading from it until the backlog halves.
  const std::size_t buffered = (c.out.size() - c.out_off) + c.pending_bytes;
  if (!c.paused && buffered > cfg_.write_buf_max) {
    c.paused = true;
    stats_.backpressure.add();
    telemetry::count(telemetry::Ctr::kSrvBackpressure);
  } else if (c.paused && buffered < cfg_.write_buf_max / 2 &&
             !draining_.load(std::memory_order_relaxed)) {
    c.paused = false;
  }
  update_interest(c, w.epfd);
  if (c.close_after_flush && c.pending.empty() && c.out_off >= c.out.size()) {
    c.dead = true;
  }
}

void KvServer::flush_writes(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      c.last_progress_ns = util::now_ns();
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      c.dead = true;
      return;
    }
  }
  if (c.out_off >= c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off > (1u << 16) && c.out_off > c.out.size() / 2) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
}

void KvServer::update_interest(Conn& c, int epfd) {
  if (c.dead) return;
  uint32_t want = 0;
  if (!c.paused && !c.close_after_flush) want |= EPOLLIN;
  if (c.out_off < c.out.size()) want |= EPOLLOUT;
  if (want == c.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &c;
  if (::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev) == 0) c.armed = want;
}

void KvServer::scan_timeouts(Worker& w, uint64_t now_ns) {
  const uint64_t idle_ns = cfg_.idle_timeout_ms * 1'000'000ull;
  const uint64_t stall_ns = cfg_.stall_timeout_ms * 1'000'000ull;
  for (auto& [fd, c] : w.conns) {
    if (c->dead) continue;
    const bool output_pending =
        c->out_off < c->out.size() || !c->pending.empty();
    if (stall_ns != 0 && c->out_off < c->out.size() &&
        now_ns - c->last_progress_ns > stall_ns) {
      // The peer stopped draining its responses: a slow-reader attack or a
      // dead client. Cut it loose rather than hold buffers hostage.
      c->dead = true;
      stats_.stall_closed.add();
      telemetry::count(telemetry::Ctr::kSrvStallClosed);
      continue;
    }
    if (idle_ns != 0 && !output_pending && !c->close_after_flush &&
        now_ns - c->last_read_ns > idle_ns) {
      c->dead = true;
      stats_.idle_closed.add();
      telemetry::count(telemetry::Ctr::kSrvIdleClosed);
    }
  }
}

void KvServer::close_conn(Worker& w, Conn& c) {
  ::epoll_ctl(w.epfd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  w.inflight.fetch_sub(c.pending.size(), std::memory_order_relaxed);
  c.pending.clear();
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
}

std::string KvServer::stats_payload() {
  const auto cs = cache_->stats();
  // One coherent pass over the sharded counters: every row below comes from
  // the same ServerStats::Snapshot, not from live reads interleaved with
  // concurrent increments.
  const ServerStats::Snapshot ss = stats_.snapshot();
  std::string out;
  auto stat = [&out](const char* k, uint64_t v) {
    out += "STAT ";
    out += k;
    out += ' ';
    out += std::to_string(v);
    out += "\r\n";
  };
  stat("curr_connections", conn_count_.load(std::memory_order_relaxed));
  stat("total_connections", ss.conns_accepted);
  stat("connections_shed", ss.conns_shed);
  stat("cmd_requests", ss.requests);
  stat("requests_shed", ss.requests_shed);
  stat("idle_closed", ss.idle_closed);
  stat("stall_closed", ss.stall_closed);
  stat("backpressure_pauses", ss.backpressure);
  stat("sync_batches", ss.sync_batches);
  stat("sync_path_syncer", ss.sync_path_syncer);
  stat("sync_path_caller", ss.sync_path_caller);
  stat("slow_ops", ss.slow_ops);
  stat("get_hits", cs.hits);
  stat("get_misses", cs.misses);
  stat("evictions", cs.evictions);
  stat("curr_items", cache_->size());
  stat("epoch_current", esys_->current_epoch());
  stat("epoch_persisted", esys_->persisted_frontier());
  // Persistence cost-model rows: raw line/fence traffic from the region's
  // always-on sharded counters.
  const auto rs = esys_->ralloc()->region()->stats();
  stat("nvm_lines_flushed", rs.lines_flushed);
  stat("nvm_fences", rs.fences);
  out += "END\r\n";
  return out;
}

// `stats montage`: the telemetry registry over the plain memcached protocol,
// so epoch/persistence counters are readable without the admin port. Dotted
// registry names are used verbatim as STAT keys; histograms surface as
// _count/_sum/_p50/_p99 rows. Works in MONTAGE_TELEMETRY=OFF builds too:
// the always-available server counters and region totals still show.
std::string KvServer::montage_stats_payload() {
  std::string out;
  auto stat = [&out](const std::string& k, uint64_t v) {
    out += "STAT " + k + ' ' + std::to_string(v) + "\r\n";
  };
  stat("telemetry", telemetry::kEnabled ? 1 : 0);
  stat("epoch_current", esys_->current_epoch());
  stat("epoch_persisted", esys_->persisted_frontier());
  const auto rs = esys_->ralloc()->region()->stats();
  stat("nvm.lines_flushed_total", rs.lines_flushed);
  stat("nvm.fences_total", rs.fences);
  for (const auto& c : telemetry::counters_snapshot()) {
    // The registry's own nvm rows would shadow the region totals above under
    // a different lifetime (reset_metrics); skip the two duplicates.
    if (std::strcmp(c.name, "nvm.lines_flushed_total") == 0 ||
        std::strcmp(c.name, "nvm.fences_total") == 0) {
      continue;
    }
    stat(c.name, c.value);
  }
  for (const auto& h : telemetry::histograms_snapshot()) {
    const telemetry::Percentiles p = telemetry::hist_percentiles(h);
    stat(std::string(h.name) + "_count", h.count);
    stat(std::string(h.name) + "_sum", h.sum);
    stat(std::string(h.name) + "_p50", p.p50);
    stat(std::string(h.name) + "_p99", p.p99);
  }
  if (!telemetry::kEnabled) {
    // Registry compiled out: surface the sharded server counters under their
    // registry names so the command keeps one schema across build flavours.
    const ServerStats::Snapshot ss = stats_.snapshot();
    stat("server.connections_accepted", ss.conns_accepted);
    stat("server.requests", ss.requests);
    stat("server.sync_batches", ss.sync_batches);
    stat("server.slow_ops", ss.slow_ops);
    stat("server.admin_requests", ss.admin_requests);
  }
  out += "END\r\n";
  return out;
}

// ---- slow-op capture (DESIGN.md §14) ----------------------------------------

void KvServer::record_slow_op(const PendingResp& p, uint64_t lat_ns,
                              uint64_t frontier) {
  stats_.slow_ops.add();
  telemetry::count(telemetry::Ctr::kSrvSlowOps);
  const uint64_t ack_epoch = esys_->current_epoch();
  // Exactly one structured line per slow op, from the release point: the
  // op's identity plus the epoch positions that explain the wait.
  util::log::warn("slow_op")
      .field("verb", p.verb)
      .hex_field("key_hash", p.key_hash)
      .field("lat_ns", lat_ns)
      .field("epoch_begin", p.begin_epoch)
      .field("epoch_ack", ack_epoch)
      .field("bytes", static_cast<uint64_t>(p.bytes.size()))
      .field("persisted_frontier", frontier);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"ts_ns\":%llu,\"verb\":\"%s\",\"key_hash\":\"%016llx\","
                "\"lat_ns\":%llu,\"epoch_begin\":%llu,\"epoch_ack\":%llu,"
                "\"bytes\":%zu,\"persisted_frontier\":%llu}",
                static_cast<unsigned long long>(util::now_ns()), p.verb,
                static_cast<unsigned long long>(p.key_hash),
                static_cast<unsigned long long>(lat_ns),
                static_cast<unsigned long long>(p.begin_epoch),
                static_cast<unsigned long long>(ack_epoch), p.bytes.size(),
                static_cast<unsigned long long>(frontier));
  std::lock_guard lk(slow_m_);
  slow_ring_.emplace_back(buf);
  while (slow_ring_.size() > kSlowRingCap) slow_ring_.pop_front();
}

// ---- admin/introspection plane (DESIGN.md §14) ------------------------------

void KvServer::maybe_push_rate_snapshot(uint64_t now_ns) {
  if (now_ns - last_window_push_ns_ < kWindowPushNs) return;
  last_window_push_ns_ = now_ns;
  promexpo::Snapshot s = promexpo::capture(now_ns);
  std::lock_guard lk(window_m_);
  window_.push(std::move(s));
}

void KvServer::admin_pump(int timeout_ms) {
  if (admin_epfd_ < 0) return;
  epoll_event evs[16];
  const int n = ::epoll_wait(admin_epfd_, evs, 16, timeout_ms);
  for (int i = 0; i < (n > 0 ? n : 0); ++i) {
    if (evs[i].data.ptr == nullptr) {
      admin_accept();
      continue;
    }
    auto* a = static_cast<AdminConn*>(evs[i].data.ptr);
    if (a->dead) continue;
    if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
      a->dead = true;
      continue;
    }
    admin_io(*a);
  }
  for (auto it = admin_conns_.begin(); it != admin_conns_.end();) {
    if (it->second->dead) {
      ::epoll_ctl(admin_epfd_, EPOLL_CTL_DEL, it->first, nullptr);
      ::close(it->first);
      it = admin_conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void KvServer::admin_accept() {
  while (true) {
    const int fd = ::accept4(admin_listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    set_nodelay(fd);
    auto a = std::make_unique<AdminConn>();
    a->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = a.get();
    if (::epoll_ctl(admin_epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    admin_conns_.emplace(fd, std::move(a));
  }
}

void KvServer::admin_io(AdminConn& a) {
  char tmp[4096];
  while (!a.responded) {
    const ssize_t n = ::recv(a.fd, tmp, sizeof(tmp), 0);
    if (n > 0) {
      a.in.append(tmp, static_cast<std::size_t>(n));
      if (a.in.size() > kAdminHdrMax) {
        a.out = "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n"
                "Content-Length: 0\r\n\r\n";
        a.responded = true;
        break;
      }
      if (a.in.find("\r\n\r\n") != std::string::npos) {
        admin_handle(a);
        break;
      }
    } else if (n == 0) {
      a.dead = true;
      return;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      a.dead = true;
      return;
    }
  }
  admin_flush(a);
}

void KvServer::admin_handle(AdminConn& a) {
  stats_.admin_requests.add();
  telemetry::count(telemetry::Ctr::kSrvAdminRequests);
  // Request line: METHOD SP path SP version. Anything malformed is a 400;
  // the body builders below are the only dynamic part.
  std::string method, path;
  const std::size_t eol = a.in.find("\r\n");
  const std::size_t sp1 = a.in.find(' ');
  if (sp1 != std::string::npos && sp1 < eol) {
    const std::size_t sp2 = a.in.find(' ', sp1 + 1);
    if (sp2 != std::string::npos && sp2 < eol) {
      method = a.in.substr(0, sp1);
      path = a.in.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t q = path.find('?');
      if (q != std::string::npos) path.erase(q);
    }
  }
  std::string status = "200 OK";
  std::string ctype = "text/plain; charset=utf-8";
  std::string body;
  if (method.empty() || path.empty()) {
    status = "400 Bad Request";
  } else if (method != "GET") {
    status = "405 Method Not Allowed";
  } else if (path == "/metrics") {
    ctype = "text/plain; version=0.0.4; charset=utf-8";
    body = metrics_payload();
  } else if (path == "/healthz") {
    if (draining_.load(std::memory_order_acquire)) {
      status = "503 Service Unavailable";
      body = "draining\n";
    } else {
      body = "ok\n";
    }
  } else if (path == "/varz") {
    ctype = "application/json";
    body = varz_payload();
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  a.out = "HTTP/1.1 " + status + "\r\nContent-Type: " + ctype +
          "\r\nContent-Length: " + std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n" + body;
  a.responded = true;
}

void KvServer::admin_flush(AdminConn& a) {
  while (a.out_off < a.out.size()) {
    const ssize_t n = ::send(a.fd, a.out.data() + a.out_off,
                             a.out.size() - a.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      a.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Arm EPOLLOUT until the peer drains.
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.ptr = &a;
      ::epoll_ctl(admin_epfd_, EPOLL_CTL_MOD, a.fd, &ev);
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      a.dead = true;
      return;
    }
  }
  if (a.responded) a.dead = true;  // Connection: close
}

std::string KvServer::metrics_payload() {
  const promexpo::Snapshot snap = promexpo::capture(util::now_ns());
  std::vector<promexpo::CounterRow> extra;
  if (!telemetry::kEnabled) {
    // Registry compiled out: the scrape still gets real counter families
    // from the always-available sharded server counters.
    const ServerStats::Snapshot ss = stats_.snapshot();
    extra.push_back({"server.connections_accepted",
                     "connections accepted by the server", ss.conns_accepted});
    extra.push_back({"server.requests", "protocol requests parsed",
                     ss.requests});
    extra.push_back({"server.sync_batches",
                     "ack batches released behind one sync", ss.sync_batches});
    extra.push_back({"server.slow_ops", "requests over the slow-op threshold",
                     ss.slow_ops});
    extra.push_back({"server.admin_requests", "admin HTTP requests served",
                     ss.admin_requests});
  }
  std::vector<promexpo::GaugeRow> gauges;
  gauges.push_back({"server.curr_connections", "open client connections",
                    static_cast<double>(
                        conn_count_.load(std::memory_order_relaxed))});
  gauges.push_back({"server.draining",
                    "1 once SIGTERM drain began (healthz says 503)",
                    draining_.load(std::memory_order_acquire) ? 1.0 : 0.0});
  gauges.push_back({"server.epoch_current", "current epoch clock",
                    static_cast<double>(esys_->current_epoch())});
  gauges.push_back({"server.epoch_persisted", "persisted frontier",
                    static_cast<double>(esys_->persisted_frontier())});
  for (const auto& g : telemetry::gauges_snapshot()) {
    gauges.push_back({g.name, "montage gauge (" + g.unit + ")",
                      static_cast<double>(g.value)});
  }
  std::lock_guard lk(window_m_);
  return promexpo::render(snap, extra, gauges, &window_);
}

std::string KvServer::varz_payload() {
  const ServerStats::Snapshot ss = stats_.snapshot();
  std::string out;
  out.reserve(8192);
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "{\"server\":{\"port\":%u,\"admin_port\":%u,\"curr_connections\":%llu,"
      "\"draining\":%s,",
      port_, admin_port_,
      static_cast<unsigned long long>(
          conn_count_.load(std::memory_order_relaxed)),
      draining_.load(std::memory_order_acquire) ? "true" : "false");
  out += buf;
  auto row = [&out](const char* k, uint64_t v, bool last = false) {
    out += '"';
    out += k;
    out += "\":";
    out += std::to_string(v);
    out += last ? "" : ",";
  };
  row("connections_accepted", ss.conns_accepted);
  row("connections_shed", ss.conns_shed);
  row("requests", ss.requests);
  row("requests_shed", ss.requests_shed);
  row("idle_closed", ss.idle_closed);
  row("stall_closed", ss.stall_closed);
  row("backpressure_pauses", ss.backpressure);
  row("sync_batches", ss.sync_batches);
  row("sync_path_syncer", ss.sync_path_syncer);
  row("sync_path_caller", ss.sync_path_caller);
  row("slow_ops", ss.slow_ops);
  row("admin_requests", ss.admin_requests);
  row("epoch_current", esys_->current_epoch());
  row("epoch_persisted", esys_->persisted_frontier(), /*last=*/true);
  out += "},\"slow_ops\":[";
  {
    std::lock_guard lk(slow_m_);
    bool first = true;
    for (const auto& s : slow_ring_) {
      if (!first) out += ',';
      out += s;
      first = false;
    }
  }
  out += "],\"registry\":";
  out += telemetry::stats_json();  // full --stats-json document, reused
  out += "}";
  return out;
}

void KvServer::crash_die() {
  // An armed crash schedule fired mid-persistence: power failed. Commit the
  // persisted-only image to the backing file and die without unwinding the
  // rest of the process, as a real power failure would. The region is frozen
  // from the armed event on, so every thread that touches persistence ends
  // up here — only the first may write the image (a later simulate_crash
  // would clear the freeze and let stragglers "persist" after power-off);
  // the rest park until _exit.
  static std::atomic<bool> dying{false};
  if (dying.exchange(true, std::memory_order_acq_rel)) {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  esys_->abort_op();
  nvm::Region::global()->simulate_crash();
  ::_exit(kCrashExitCode);
}

}  // namespace montage::server
