// Figure 15: the networked KV service (montage_kv_server) under real
// clients. Multi-process driver: the server runs as its own exec'd process
// (the same binary operators deploy), each client is a fork'd single-thread
// process speaking pipelined memcached text protocol over loopback.
//
// Series (figure fig15):
//   throughput (C)      — kops/s vs client connection count
//   zipf_kops (theta)   — kops/s at 4 connections vs key skew
//   fault_kops          — well-behaved kops/s while slow readers +
//                         mid-request disconnectors attack the server
//   fault_shed,
//   fault_stall_closed  — the server's defensive actions during that run
//   scrape_ms           — mean admin-plane /metrics round-trip while the
//                         data plane is under full load (DESIGN.md §14)
//   drain_ms            — SIGTERM-to-exit latency with requests in flight
//   recover_ttfh_ms     — SIGKILL + restart: time to first served hit
//                         (process start through recovery to first GET)
//   ack_violations      — acked SETs missing or torn after kill -9
//                         (must be 0; nonzero also fails the process)
//   unacked_lost        — sent-but-unacked SETs that did not survive
//                         (informational: Montage may lose the last epochs)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/zipf.hpp"

#ifndef MONTAGE_SERVER_BIN
#error "MONTAGE_SERVER_BIN must point at the montage_kv_server binary"
#endif

namespace montage::bench {
namespace {

struct ServerProc {
  pid_t pid = -1;
  uint16_t port = 0;
  uint16_t admin_port = 0;  // nonzero only when the admin plane was enabled
};

using EnvList = std::vector<std::pair<std::string, std::string>>;

/// fork+exec the server binary with `env` overrides; blocks until it
/// publishes its ephemeral port (which, on a reopened region, includes the
/// full recovery pass — spawn-to-port is the cold-restart latency).
ServerProc spawn_server(const std::string& dir, const EnvList& env) {
  ServerProc s;
  const std::string port_file = dir + "/port";
  ::unlink(port_file.c_str());
  const std::string port_arg = "--port-file=" + port_file;
  s.pid = ::fork();
  if (s.pid == 0) {
    ::setenv("MONTAGE_SERVER_PORT", "0", 1);
    ::setenv("MONTAGE_SERVER_THREADS", "2", 1);
    for (const auto& [k, v] : env) ::setenv(k.c_str(), v.c_str(), 1);
    ::execl(MONTAGE_SERVER_BIN, MONTAGE_SERVER_BIN, port_arg.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  for (int i = 0; i < 400 && s.port == 0; ++i) {
    FILE* f = std::fopen(port_file.c_str(), "r");
    if (f != nullptr) {
      unsigned p = 0, ap = 0;
      const int got = std::fscanf(f, "%u %u", &p, &ap);
      if (got >= 1) s.port = static_cast<uint16_t>(p);
      if (got == 2) s.admin_port = static_cast<uint16_t>(ap);
      std::fclose(f);
    }
    if (s.port == 0) ::usleep(25'000);
  }
  if (s.port == 0) {
    std::fprintf(stderr, "fig15: server failed to start\n");
    std::exit(1);
  }
  return s;
}

int connect_to(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Incremental response classifier: counts completed responses (done),
/// GET hits, and overload sheds from a pipelined byte stream.
struct RespCounter {
  uint64_t done = 0, hits = 0, shed = 0;
  bool in_data = false;  // the next line is a VALUE data block
  std::string tail;

  void feed(const char* p, std::size_t n) {
    tail.append(p, n);
    std::size_t start = 0;
    for (;;) {
      const std::size_t end = tail.find("\r\n", start);
      if (end == std::string::npos) break;
      const std::string_view line(tail.data() + start, end - start);
      start = end + 2;
      if (in_data) {
        in_data = false;
      } else if (line.rfind("VALUE ", 0) == 0) {
        ++hits;
        in_data = true;
      } else if (line == "END" || line == "STORED" || line == "NOT_STORED" ||
                 line == "NOT_FOUND" || line == "DELETED") {
        ++done;
      } else if (line.rfind("SERVER_ERROR", 0) == 0) {
        ++done;
        ++shed;
      } else if (line.rfind("ERROR", 0) == 0 ||
                 line.rfind("CLIENT_ERROR", 0) == 0) {
        ++done;
      }
      // numeric incr/decr replies and stats lines are not used by the driver
    }
    tail.erase(0, start);
  }
};

/// One load-generating client process: pipelined GET/SET mix over a zipfian
/// key space for `secs`, then reports "ops hits shed" through `out_fd`.
[[noreturn]] void client_main(uint16_t port, double secs, double theta,
                              uint64_t records, int set_pct, uint64_t seed,
                              int out_fd) {
  const int fd = connect_to(port);
  if (fd < 0) _exit(3);
  util::ZipfianGenerator zipf(records, theta, seed);
  util::Xorshift128Plus rng(seed * 2654435761u + 1);
  const std::string value(64, 'v');
  RespCounter rc;
  uint64_t sent = 0;
  const uint64_t deadline = util::now_ns() +
                            static_cast<uint64_t>(secs * 1e9);
  char buf[65536];
  bool alive = true;
  while (alive && util::now_ns() < deadline) {
    // Keep a bounded pipeline: fire a burst, then drain what's ready.
    while (sent - rc.done < 64) {
      std::string burst;
      for (int i = 0; i < 16; ++i) {
        const std::string key = "k" + std::to_string(zipf.next_scrambled());
        if (static_cast<int>(rng.next() % 100) < set_pct) {
          burst += "set " + key + " 0 0 " + std::to_string(value.size()) +
                   "\r\n" + value + "\r\n";
        } else {
          burst += "get " + key + "\r\n";
        }
      }
      if (!send_all(fd, burst)) {
        alive = false;
        break;
      }
      sent += 16;
    }
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT)) > 0) {
      rc.feed(buf, static_cast<std::size_t>(n));
    }
    if (n == 0) alive = false;
  }
  // Drain the responses still owed before reporting (bounded by SO_RCVTIMEO).
  while (alive && rc.done < sent) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    rc.feed(buf, static_cast<std::size_t>(n));
  }
  ::dprintf(out_fd, "%llu %llu %llu\n",
            static_cast<unsigned long long>(rc.done),
            static_cast<unsigned long long>(rc.hits),
            static_cast<unsigned long long>(rc.shed));
  _exit(0);
}

/// A slow-reader attacker: floods GETs but drains one small read per 50 ms,
/// so the server's only sane move is backpressure then a stall close.
[[noreturn]] void slow_reader_main(uint16_t port) {
  const int fd = connect_to(port);
  if (fd < 0) _exit(0);
  // Park a 1 KB value, then demand ~20 MB of it without draining: far more
  // than the kernel socket buffers absorb, so the server's write buffer jams.
  const std::string big(1000, 'h');
  (void)!send_all(fd, "set hog 0 0 " + std::to_string(big.size()) + "\r\n" +
                          big + "\r\n");
  char ack[64];
  (void)!::recv(fd, ack, sizeof ack, 0);
  std::string flood;
  for (int i = 0; i < 20'000; ++i) flood += "get hog\r\n";
  (void)!send_all(fd, flood);
  char buf[128];
  for (;;) {
    ::usleep(50'000);
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      _exit(0);  // the server cut us loose, as it should
    }
  }
}

/// A flaky client: connects, sends half a request, resets the connection.
[[noreturn]] void disconnector_main(uint16_t port, double secs) {
  const uint64_t deadline = util::now_ns() +
                            static_cast<uint64_t>(secs * 1e9);
  while (util::now_ns() < deadline) {
    const int fd = connect_to(port);
    if (fd < 0) break;
    (void)!send_all(fd, "set half 0 0 100\r\npartial");
    linger lg{1, 0};  // RST on close: the rudest possible goodbye
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd);
    ::usleep(2'000);
  }
  _exit(0);
}

struct LoadTotals {
  uint64_t ops = 0, hits = 0, shed = 0;
  double elapsed_s = 0;
};

/// Run `conns` client processes against `port` for `secs`; sums their
/// reports. Results travel through one pipe per child.
LoadTotals run_load(uint16_t port, int conns, double secs, double theta,
                    int set_pct, uint64_t records) {
  LoadTotals tot;
  std::vector<pid_t> pids;
  std::vector<int> fds;
  const uint64_t t0 = util::now_ns();
  for (int c = 0; c < conns; ++c) {
    int pfd[2];
    if (pipe(pfd) != 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(pfd[0]);
      client_main(port, secs, theta, records, set_pct, 777 + c, pfd[1]);
    }
    ::close(pfd[1]);
    pids.push_back(pid);
    fds.push_back(pfd[0]);
  }
  for (std::size_t i = 0; i < pids.size(); ++i) {
    char line[128] = {0};
    ssize_t n = ::read(fds[i], line, sizeof line - 1);
    ::close(fds[i]);
    ::waitpid(pids[i], nullptr, 0);
    unsigned long long ops = 0, hits = 0, shed = 0;
    if (n > 0 && std::sscanf(line, "%llu %llu %llu", &ops, &hits, &shed) == 3) {
      tot.ops += ops;
      tot.hits += hits;
      tot.shed += shed;
    }
  }
  tot.elapsed_s = util::to_seconds(util::now_ns() - t0);
  return tot;
}

/// Read one numeric field from the server's `stats` response.
uint64_t server_stat(uint16_t port, const std::string& key) {
  const int fd = connect_to(port);
  if (fd < 0) return 0;
  uint64_t out = 0;
  if (send_all(fd, "stats\r\n")) {
    std::string resp;
    char buf[8192];
    while (resp.find("END\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      resp.append(buf, static_cast<std::size_t>(n));
    }
    const std::string tag = "STAT " + key + " ";
    const std::size_t pos = resp.find(tag);
    if (pos != std::string::npos) {
      out = std::strtoull(resp.c_str() + pos + tag.size(), nullptr, 10);
    }
  }
  ::close(fd);
  return out;
}

/// One full /metrics round trip against the admin plane: connect, GET,
/// read to EOF (the response is Connection: close framed). Returns the
/// wall time in milliseconds, or a negative value on failure.
double scrape_once(uint16_t admin_port) {
  const uint64_t t0 = util::now_ns();
  const int fd = connect_to(admin_port);
  if (fd < 0) return -1.0;
  if (!send_all(fd, "GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                    "Connection: close\r\n\r\n")) {
    ::close(fd);
    return -1.0;
  }
  char buf[16384];
  ssize_t n;
  std::size_t total = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    total += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (total == 0) return -1.0;
  return util::to_seconds(util::now_ns() - t0) * 1e3;
}

/// SIGTERM the server and return drain latency (signal to reaped exit).
double drain_ms(ServerProc& s) {
  const uint64_t t0 = util::now_ns();
  ::kill(s.pid, SIGTERM);
  int st = 0;
  ::waitpid(s.pid, &st, 0);
  s.pid = -1;
  if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
    std::fprintf(stderr, "fig15: drain exited abnormally (%d)\n", st);
  }
  return util::to_seconds(util::now_ns() - t0) * 1e3;
}

std::string fresh_dir() {
  std::string d = "/tmp/fig15_XXXXXX";
  if (::mkdtemp(d.data()) == nullptr) std::exit(1);
  return d;
}

void cleanup_dir(const std::string& dir) {
  ::unlink((dir + "/port").c_str());
  ::unlink((dir + "/region").c_str());
  ::rmdir(dir.c_str());
}

int main_impl() {
  const Config cfg = Config::from_env();
  const uint64_t records =
      std::max<uint64_t>(512, static_cast<uint64_t>(100'000 * cfg.scale));
  const std::string region_mb = std::to_string(
      std::max<uint64_t>(64, (records * 4096) >> 20));
  int failures = 0;

  // --- Connection-count sweep (10% sets, zipf 0.99) ------------------------
  for (int conns : cfg.thread_counts()) {
    const std::string dir = fresh_dir();
    ServerProc s = spawn_server(dir, {{"MONTAGE_SERVER_REGION_MB", region_mb}});
    LoadTotals t = run_load(s.port, conns, cfg.seconds, 0.99, 10, records);
    emit("fig15", "throughput", std::to_string(conns),
         static_cast<double>(t.ops) / t.elapsed_s / 1e3);
    ::kill(s.pid, SIGTERM);
    ::waitpid(s.pid, nullptr, 0);
    s.pid = -1;
    cleanup_dir(dir);
  }

  // --- Key-skew sweep at 4 connections -------------------------------------
  for (const double theta : {0.5, 0.9, 0.99}) {
    const std::string dir = fresh_dir();
    ServerProc s = spawn_server(dir, {{"MONTAGE_SERVER_REGION_MB", region_mb}});
    LoadTotals t = run_load(s.port, 4, cfg.seconds, theta, 10, records);
    char x[16];
    std::snprintf(x, sizeof x, "%.2f", theta);
    emit("fig15", "zipf_kops", x, static_cast<double>(t.ops) / t.elapsed_s / 1e3);
    ::kill(s.pid, SIGTERM);
    ::waitpid(s.pid, nullptr, 0);
    s.pid = -1;
    cleanup_dir(dir);
  }

  // --- Fault mode: hostile clients alongside well-behaved load -------------
  {
    const std::string dir = fresh_dir();
    ServerProc s = spawn_server(
        dir, {{"MONTAGE_SERVER_REGION_MB", region_mb},
              {"MONTAGE_SERVER_WRITE_BUF", "65536"},
              {"MONTAGE_SERVER_STALL_MS", "100"},
              {"MONTAGE_SERVER_MAX_INFLIGHT", "512"}});
    const double secs = std::max(cfg.seconds, 0.5);  // stall closes need time
    std::vector<pid_t> hostiles;
    for (int i = 0; i < 2; ++i) {
      const pid_t pid = ::fork();
      if (pid == 0) slow_reader_main(s.port);
      hostiles.push_back(pid);
    }
    for (int i = 0; i < 2; ++i) {
      const pid_t pid = ::fork();
      if (pid == 0) disconnector_main(s.port, secs);
      hostiles.push_back(pid);
    }
    LoadTotals t = run_load(s.port, 4, secs, 0.99, 10, records);
    emit("fig15", "fault_kops", "mixed",
         static_cast<double>(t.ops) / t.elapsed_s / 1e3);
    // Raw defensive-action counts vary hugely run to run, so the CSV
    // series are binary did-it-happen indicators; the counts go to stderr.
    const uint64_t shed = t.shed + server_stat(s.port, "requests_shed");
    const uint64_t stalls = server_stat(s.port, "stall_closed");
    std::fprintf(stderr, "fig15: fault run shed=%llu stall_closed=%llu\n",
                 static_cast<unsigned long long>(shed),
                 static_cast<unsigned long long>(stalls));
    emit("fig15", "fault_shed", "mixed", shed != 0 ? 1.0 : 0.0);
    emit("fig15", "fault_stall_closed", "mixed", stalls != 0 ? 1.0 : 0.0);
    for (const pid_t pid : hostiles) ::kill(pid, SIGKILL);
    for (const pid_t pid : hostiles) ::waitpid(pid, nullptr, 0);
    ::kill(s.pid, SIGTERM);
    ::waitpid(s.pid, nullptr, 0);
    s.pid = -1;
    cleanup_dir(dir);
  }

  // --- Admin-plane scrape cost under full load -----------------------------
  // DESIGN.md §14: /metrics renders from sharded-counter sums on the admin
  // connection's epoll turn, so a scrape must stay cheap while the data
  // plane is saturated. Mean round-trip (connect + GET + body to EOF), in
  // ms: lower is better.
  {
    const std::string dir = fresh_dir();
    ServerProc s = spawn_server(dir,
                                {{"MONTAGE_SERVER_REGION_MB", region_mb},
                                 {"MONTAGE_SERVER_ADMIN_PORT", "0"}});
    if (s.admin_port == 0) {
      std::fprintf(stderr, "fig15: admin plane did not come up\n");
      ++failures;
    } else {
      const double secs = std::max(cfg.seconds, 0.25);
      std::vector<pid_t> loaders;
      for (int c = 0; c < 2; ++c) {
        int pfd[2];
        if (pipe(pfd) != 0) break;
        const pid_t pid = ::fork();
        if (pid == 0) {
          ::close(pfd[0]);
          client_main(s.port, secs, 0.99, records, 10, 555 + c, pfd[1]);
        }
        ::close(pfd[0]);  // reports are not used; the load is the point
        ::close(pfd[1]);
        loaders.push_back(pid);
      }
      double sum_ms = 0;
      uint64_t scrapes = 0;
      const uint64_t deadline = util::now_ns() +
                                static_cast<uint64_t>(secs * 1e9);
      while (util::now_ns() < deadline) {
        const double ms = scrape_once(s.admin_port);
        if (ms >= 0) {
          sum_ms += ms;
          ++scrapes;
        }
        ::usleep(10'000);  // ~100 scrapes/s: a hostile Prometheus interval
      }
      for (const pid_t pid : loaders) ::waitpid(pid, nullptr, 0);
      if (scrapes == 0) {
        std::fprintf(stderr, "fig15: no successful /metrics scrape\n");
        ++failures;
      } else {
        emit("fig15", "scrape_ms", "metrics", sum_ms / scrapes);
      }
    }
    ::kill(s.pid, SIGTERM);
    ::waitpid(s.pid, nullptr, 0);
    s.pid = -1;
    cleanup_dir(dir);
  }

  // --- Graceful drain with requests in flight ------------------------------
  {
    const std::string dir = fresh_dir();
    ServerProc s = spawn_server(dir, {{"MONTAGE_SERVER_REGION_MB", region_mb}});
    const int fd = connect_to(s.port);
    std::string burst;
    for (int i = 0; i < 200; ++i) {
      burst += "set d" + std::to_string(i) + " 0 0 64\r\n" +
               std::string(64, 'd') + "\r\n";
    }
    (void)!send_all(fd, burst);  // in flight when the signal lands
    emit("fig15", "drain_ms", "sigterm", drain_ms(s));
    ::close(fd);
    cleanup_dir(dir);
  }

  // --- kill -9, restart, measure recovery + ACK survival -------------------
  {
    const std::string dir = fresh_dir();
    const EnvList env = {{"MONTAGE_SERVER_REGION", dir + "/region"},
                         {"MONTAGE_SERVER_REGION_MB", region_mb}};
    const uint64_t target = std::min<uint64_t>(records, 2048);
    uint64_t acked = 0, sent = 0;
    {
      ServerProc s = spawn_server(dir, env);
      const int fd = connect_to(s.port);
      const auto value_of = [](uint64_t i) {
        std::string v = "val-" + std::to_string(i) + "-";
        v.resize(64, 'x');
        return v;
      };
      while (acked < target) {
        std::string burst;
        for (int i = 0; i < 16; ++i) {
          const std::string v = value_of(sent + i);
          burst += "set r" + std::to_string(sent + i) + " 0 0 " +
                   std::to_string(v.size()) + "\r\n" + v + "\r\n";
        }
        if (!send_all(fd, burst)) break;
        sent += 16;
        std::string resp;
        char buf[8192];
        int got = 0;
        while (got < 16) {
          const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
          if (n <= 0) break;
          resp.append(buf, static_cast<std::size_t>(n));
          got = 0;
          for (std::size_t p = 0; (p = resp.find("STORED\r\n", p)) !=
                                  std::string::npos;
               p += 8) {
            ++got;
          }
        }
        acked += got;
        if (got < 16) break;
      }
      // A final unacknowledged burst, then the axe mid-flight.
      std::string burst;
      for (int i = 0; i < 16; ++i) {
        const std::string v = value_of(sent + i);
        burst += "set r" + std::to_string(sent + i) + " 0 0 " +
                 std::to_string(v.size()) + "\r\n" + v + "\r\n";
      }
      (void)!send_all(fd, burst);
      sent += 16;
      ::kill(s.pid, SIGKILL);
      ::waitpid(s.pid, nullptr, 0);
      s.pid = -1;
      ::close(fd);
    }

    const uint64_t t0 = util::now_ns();
    ServerProc s = spawn_server(dir, env);
    const int fd = connect_to(s.port);
    (void)!send_all(fd, "get r0\r\n");
    std::string first;
    char buf[8192];
    while (first.find("END\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      first.append(buf, static_cast<std::size_t>(n));
    }
    const double ttfh_ms = util::to_seconds(util::now_ns() - t0) * 1e3;
    emit("fig15", "recover_ttfh_ms", "kill9", ttfh_ms);

    uint64_t violations = first.find("VALUE r0 ") == std::string::npos ? 1 : 0;
    uint64_t unacked_lost = 0;
    for (uint64_t i = 1; i < sent; ++i) {
      std::string v = "val-" + std::to_string(i) + "-";
      v.resize(64, 'x');
      (void)!send_all(fd, "get r" + std::to_string(i) + "\r\n");
      std::string resp;
      while (resp.find("END\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        resp.append(buf, static_cast<std::size_t>(n));
      }
      const std::string want = "VALUE r" + std::to_string(i) + " 0 " +
                               std::to_string(v.size()) + "\r\n" + v +
                               "\r\nEND\r\n";
      if (i < acked) {
        if (resp != want) ++violations;
      } else {
        // Unacked sets may legitimately miss (buffered epochs died with the
        // process), but a torn value would still be a durability bug.
        if (resp != want && resp != "END\r\n") {
          ++violations;
        } else if (resp == "END\r\n") {
          ++unacked_lost;
        }
      }
    }
    emit("fig15", "ack_violations", "kill9", static_cast<double>(violations));
    emit("fig15", "unacked_lost", "kill9", static_cast<double>(unacked_lost));
    if (violations != 0) {
      std::fprintf(stderr, "fig15: %llu ACKed writes lost or torn\n",
                   static_cast<unsigned long long>(violations));
      ++failures;
    }
    ::close(fd);
    ::kill(s.pid, SIGTERM);
    ::waitpid(s.pid, nullptr, 0);
    s.pid = -1;
    cleanup_dir(dir);
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace montage::bench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  montage::bench::parse_args(argc, argv);
  std::printf("figure,series,x,value\n");
  const int rc = montage::bench::main_impl();
  montage::bench::emit_stats_json();
  return rc;
}
