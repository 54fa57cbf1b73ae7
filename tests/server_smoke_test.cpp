// End-to-end smoke tests for montage_kv_server (ctest label: server_smoke).
//
// Each test fork+execs the real server binary (path injected via the
// MONTAGE_SERVER_BIN compile definition) on an ephemeral loopback port,
// drives it over a TCP socket, and exercises the robustness envelope:
// pipelined protocol traffic, SIGTERM drain, kill -9 + restart with every
// ACKed SET surviving, the deterministic MONTAGE_CRASH_AT schedule in a
// whole server process, overload shedding, slow-reader stall closes, and the
// admin/introspection plane (/metrics through the strict promexpo linter,
// /healthz flipping 503 during drain, /varz, structured slow-op logging).
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/promexpo.hpp"

namespace {

namespace promexpo = montage::promexpo;

#ifndef MONTAGE_SERVER_BIN
#error "MONTAGE_SERVER_BIN must point at the montage_kv_server binary"
#endif

using EnvList = std::vector<std::pair<std::string, std::string>>;

std::string test_dir() {
  std::string d = ::testing::TempDir() + "montage_srv_XXXXXX";
  char* p = ::mkdtemp(d.data());
  EXPECT_NE(p, nullptr);
  return d;
}

/// The server child process; SIGKILLed on destruction if still running.
struct ServerHandle {
  pid_t pid = -1;
  uint16_t port = 0;
  uint16_t admin_port = 0;  // 0 unless MONTAGE_SERVER_ADMIN_PORT was set

  ~ServerHandle() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  /// Block until the child exits; returns the raw waitpid status.
  int wait_exit() {
    int st = 0;
    ::waitpid(pid, &st, 0);
    pid = -1;
    return st;
  }
};

/// fork+exec the server with `env` overrides; waits for the port file. A
/// nonempty `stderr_file` redirects the child's stderr there (the structured
/// log stream) so tests can assert on emitted lines.
ServerHandle start_server(const std::string& dir, const EnvList& env,
                          const std::string& stderr_file = "") {
  ServerHandle h;
  const std::string port_file = dir + "/port";
  ::unlink(port_file.c_str());
  const std::string port_arg = "--port-file=" + port_file;
  h.pid = ::fork();
  if (h.pid == 0) {
    ::setenv("MONTAGE_SERVER_PORT", "0", 1);
    for (const auto& [k, v] : env) ::setenv(k.c_str(), v.c_str(), 1);
    if (!stderr_file.empty()) {
      const int fd = ::open(stderr_file.c_str(),
                            O_CREAT | O_WRONLY | O_TRUNC, 0600);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
      }
    }
    ::execl(MONTAGE_SERVER_BIN, MONTAGE_SERVER_BIN, port_arg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // Poll for the atomically renamed port file (the server is serving once
  // it exists). A child that died early fails the wait. The second line,
  // present only with the admin plane on, is the bound admin port.
  for (int i = 0; i < 400; ++i) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f != nullptr) {
      unsigned p = 0;
      unsigned ap = 0;
      const int got = std::fscanf(f, "%u %u", &p, &ap);
      std::fclose(f);
      if (got >= 1 && p != 0) {
        h.port = static_cast<uint16_t>(p);
        h.admin_port = static_cast<uint16_t>(ap);
        return h;
      }
    }
    int st = 0;
    if (::waitpid(h.pid, &st, WNOHANG) == h.pid) {
      h.pid = -1;
      ADD_FAILURE() << "server exited during startup, status " << st;
      return h;
    }
    ::usleep(25'000);
  }
  ADD_FAILURE() << "server did not publish a port";
  return h;
}

/// Loopback client socket with a receive timeout; 0 rcvbuf keeps defaults.
int connect_to(uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
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

/// Read until `marker` has appeared `count` times (or timeout/EOF).
std::string recv_until(int fd, const std::string& marker, int count,
                       int timeout_ms = 10'000) {
  std::string out;
  int seen = 0;
  const auto deadline = timeout_ms;
  int waited = 0;
  while (seen < count && waited < deadline) {
    char buf[8192];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      seen = 0;
      for (std::size_t pos = 0;
           (pos = out.find(marker, pos)) != std::string::npos;
           pos += marker.size()) {
        ++seen;
      }
      continue;
    }
    if (n == 0) break;  // EOF
    if (errno != EAGAIN && errno != EWOULDBLOCK) break;
    ::usleep(2'000);
    waited += 2;
  }
  return out;
}

/// Read until the server closes the connection.
std::string recv_until_eof(int fd, int timeout_ms = 10'000) {
  std::string out;
  int waited = 0;
  while (waited < timeout_ms) {
    char buf[8192];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return out;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return out;
    ::usleep(2'000);
    waited += 2;
  }
  ADD_FAILURE() << "server never closed the connection";
  return out;
}

int count_of(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = 0; (pos = haystack.find(needle, pos)) != std::string::npos;
       pos += needle.size()) {
    ++n;
  }
  return n;
}

/// Pull one numeric STAT field out of a `stats` response.
uint64_t stat_value(const std::string& stats, const std::string& key) {
  const std::string tag = "STAT " + key + " ";
  const std::size_t pos = stats.find(tag);
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(stats.c_str() + pos + tag.size(), nullptr, 10);
}

/// Minimal HTTP/1.1 GET against the admin plane (which always answers
/// Connection: close, so EOF delimits the response).
struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Non-asserting connect: tests that poll the admin plane while the server
/// may be exiting (drain) treat a refused connection as data, not a failure.
int connect_try(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

HttpResponse http_get(uint16_t port, const std::string& path) {
  HttpResponse r;
  const int fd = connect_try(port);
  if (fd < 0) return r;
  if (!send_all(fd, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n\r\n")) {
    ::close(fd);
    return r;
  }
  const std::string raw = recv_until_eof(fd);
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0) {
    r.status = std::atoi(raw.c_str() + strlen("HTTP/1.1 "));
  }
  const std::size_t hdr_end = raw.find("\r\n\r\n");
  if (hdr_end != std::string::npos) r.body = raw.substr(hdr_end + 4);
  return r;
}

/// Slurp a file written by the server child (its redirected stderr).
std::string read_file(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ServerSmoke, PipelinedProtocolBasics) {
  const std::string dir = test_dir();
  ServerHandle srv = start_server(dir, {{"MONTAGE_SERVER_REGION_MB", "64"}});
  ASSERT_GT(srv.port, 0);
  const int fd = connect_to(srv.port);
  ASSERT_TRUE(send_all(
      fd,
      "set foo 7 0 5\r\nhello\r\n"
      "get foo\r\n"
      "add foo 0 0 3\r\nnew\r\n"   // exists: NOT_STORED
      "set ctr 0 0 1\r\n5\r\n"
      "incr ctr 3\r\n"
      "delete foo\r\n"
      "get foo missing\r\n"
      "bogus\r\n"
      "get foo\r\n"));  // pipelining continues after a protocol error
  const std::string resp = recv_until(fd, "END\r\n", 3);
  EXPECT_NE(resp.find("STORED\r\nVALUE foo 7 5\r\nhello\r\nEND\r\n"),
            std::string::npos)
      << resp;
  EXPECT_NE(resp.find("NOT_STORED"), std::string::npos);
  EXPECT_NE(resp.find("\r\n8\r\n"), std::string::npos);  // incr result
  EXPECT_NE(resp.find("DELETED"), std::string::npos);
  EXPECT_NE(resp.find("ERROR"), std::string::npos);
  ::close(fd);
  ASSERT_EQ(::kill(srv.pid, SIGTERM), 0);
  const int st = srv.wait_exit();
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
}

TEST(ServerSmoke, OversizedSetIsDiscardedAndStreamResyncs) {
  const std::string dir = test_dir();
  ServerHandle srv = start_server(dir, {{"MONTAGE_SERVER_REGION_MB", "64"}});
  ASSERT_GT(srv.port, 0);
  const int fd = connect_to(srv.port);
  // A 200 KB data block (way past the 1 KB value cap) announced up front,
  // then delivered in pieces: the server must answer "object too large"
  // immediately, drop the block as it arrives instead of buffering it, and
  // stay in sync for the pipelined requests behind it.
  const std::string big(200'000, 'x');
  ASSERT_TRUE(send_all(fd, "set big 0 0 " + std::to_string(big.size()) +
                               "\r\n" + big.substr(0, 50'000)));
  ::usleep(50'000);  // let the server consume (and discard) the first chunk
  ASSERT_TRUE(send_all(fd, big.substr(50'000) + "\r\n" +
                               "set ok 0 0 2\r\nhi\r\nget ok\r\n"));
  const std::string resp = recv_until(fd, "END\r\n", 1);
  EXPECT_NE(resp.find("SERVER_ERROR object too large"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("STORED\r\nVALUE ok 0 2\r\nhi\r\nEND\r\n"),
            std::string::npos)
      << resp;
  ::close(fd);
  // An absurd announced size (2^64 - 1 would wrap naive length arithmetic)
  // is not worth resyncing: error, then hang up.
  const int fd2 = connect_to(srv.port);
  ASSERT_TRUE(send_all(fd2, "set k 0 0 18446744073709551615\r\njunk"));
  const std::string resp2 = recv_until_eof(fd2);
  EXPECT_NE(resp2.find("SERVER_ERROR object too large"), std::string::npos)
      << resp2;
  ::close(fd2);
  // A delta of 2^63 (unrepresentable as int64_t) must not crash the server
  // (it used to be signed-overflow UB); decr saturates at zero.
  const int fd3 = connect_to(srv.port);
  ASSERT_TRUE(send_all(fd3,
                       "set ctr 0 0 1\r\n5\r\n"
                       "decr ctr 9223372036854775808\r\n"
                       "get ctr\r\n"));
  const std::string resp3 = recv_until(fd3, "END\r\n", 1);
  EXPECT_NE(resp3.find("STORED\r\n0\r\n"), std::string::npos) << resp3;
  EXPECT_NE(resp3.find("VALUE ctr 0 1\r\n0\r\n"), std::string::npos) << resp3;
  ::close(fd3);
  ASSERT_EQ(::kill(srv.pid, SIGTERM), 0);
  const int st = srv.wait_exit();
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
}

TEST(ServerSmoke, SigtermDrainFlushesInFlight) {
  const std::string dir = test_dir();
  ServerHandle srv = start_server(dir, {{"MONTAGE_SERVER_REGION_MB", "64"},
                                        {"MONTAGE_SERVER_DRAIN_MS", "4000"}});
  ASSERT_GT(srv.port, 0);
  const int fd = connect_to(srv.port);
  std::string burst;
  for (int i = 0; i < 100; ++i) {
    burst += "set drain:" + std::to_string(i) + " 0 0 4\r\nv" +
             std::to_string(100 + i).substr(0, 3) + "\r\n";
  }
  ASSERT_TRUE(send_all(fd, burst));
  // Drain while the ACKs are still pending behind the persistence frontier:
  // a graceful drain must answer everything already received, then close.
  ASSERT_EQ(::kill(srv.pid, SIGTERM), 0);
  const std::string resp = recv_until_eof(fd);
  EXPECT_EQ(count_of(resp, "STORED\r\n"), 100) << resp.substr(0, 200);
  ::close(fd);
  const int st = srv.wait_exit();
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
}

TEST(ServerSmoke, Kill9ThenRestartServesEveryAckedSet) {
  const std::string dir = test_dir();
  const EnvList env = {{"MONTAGE_SERVER_REGION", dir + "/region"},
                       {"MONTAGE_SERVER_REGION_MB", "64"}};
  std::vector<std::pair<std::string, std::string>> acked;
  {
    ServerHandle srv = start_server(dir, env);
    ASSERT_GT(srv.port, 0);
    const int fd = connect_to(srv.port);
    for (int batch = 0; batch < 5; ++batch) {
      std::string burst;
      for (int i = 0; i < 8; ++i) {
        const std::string k =
            "k" + std::to_string(batch) + "_" + std::to_string(i);
        const std::string v =
            "value-" + std::to_string(batch * 100 + i) + "-payload";
        burst += "set " + k + " 0 0 " + std::to_string(v.size()) + "\r\n" + v +
                 "\r\n";
        acked.emplace_back(k, v);
      }
      ASSERT_TRUE(send_all(fd, burst));
      // Wait for all 8 ACKs: from here on these writes must be crash-proof.
      const std::string resp = recv_until(fd, "STORED\r\n", 8);
      ASSERT_EQ(count_of(resp, "STORED\r\n"), 8);
    }
    ::close(fd);
    ASSERT_EQ(::kill(srv.pid, SIGKILL), 0);
    srv.wait_exit();
  }
  ServerHandle srv = start_server(dir, env);
  ASSERT_GT(srv.port, 0);
  const int fd = connect_to(srv.port);
  for (const auto& [k, v] : acked) {
    ASSERT_TRUE(send_all(fd, "get " + k + "\r\n"));
    const std::string resp = recv_until(fd, "END\r\n", 1);
    const std::string want = "VALUE " + k + " 0 " + std::to_string(v.size()) +
                             "\r\n" + v + "\r\nEND\r\n";
    // Durable-ack contract: present, and byte-identical (never torn).
    EXPECT_EQ(resp, want) << "acked SET lost or torn after kill -9: " << k;
  }
  ::close(fd);
  ::kill(srv.pid, SIGTERM);
  srv.wait_exit();
}

TEST(ServerSmoke, CrashScheduleInServerProcess) {
  const std::string dir = test_dir();
  EnvList env = {{"MONTAGE_SERVER_REGION", dir + "/region"},
                 {"MONTAGE_SERVER_REGION_MB", "64"},
                 {"MONTAGE_SERVER_MODE", "tracked"},
                 {"MONTAGE_SERVER_SYNC_US", "200"}};
  std::vector<std::pair<std::string, std::string>> acked;
  {
    EnvList crash_env = env;
    crash_env.emplace_back("MONTAGE_CRASH_AT", "400");
    ServerHandle srv = start_server(dir, crash_env);
    ASSERT_GT(srv.port, 0);
    const int fd = connect_to(srv.port);
    // Drive ACK-synchronized batches until the armed persistence event kills
    // the server. Waiting for each batch's STOREDs keeps the per-sync event
    // count small, so the crash lands well after the first releases, and
    // FIFO release order means the first `acked_n` sets are the acked ones.
    std::vector<std::pair<std::string, std::string>> sent;
    int acked_n = 0;
    bool died = false;
    for (int batch = 0; batch < 2000 && !died; ++batch) {
      std::string burst;
      for (int i = 0; i < 4; ++i) {
        const std::string k = "c" + std::to_string(batch) + "_" +
                              std::to_string(i);
        const std::string v = "crash-value-" + std::to_string(batch * 10 + i);
        burst += "set " + k + " 0 0 " + std::to_string(v.size()) + "\r\n" + v +
                 "\r\n";
        sent.emplace_back(k, v);
      }
      if (!send_all(fd, burst)) {
        died = true;
        break;
      }
      const int got =
          count_of(recv_until(fd, "STORED\r\n", 4, 5'000), "STORED\r\n");
      acked_n += got;
      if (got < 4) died = true;  // EOF or stall: the crash point fired
    }
    ASSERT_TRUE(died) << "crash schedule never fired within the set budget";
    // Collect any straggler ACKs that were released before the crash hit.
    acked_n += count_of(recv_until_eof(fd, 15'000), "STORED\r\n");
    ::close(fd);
    const int st = srv.wait_exit();
    ASSERT_TRUE(WIFEXITED(st)) << st;
    ASSERT_EQ(WEXITSTATUS(st), 42) << "server should die at the armed event";
    ASSERT_GT(acked_n, 0) << "crash fired before any ACK was released";
    acked.assign(sent.begin(), sent.begin() + acked_n);
  }
  // Restart (no crash armed) on the surviving image: every ACKed set must
  // have made it into the persisted-only region image.
  ServerHandle srv = start_server(dir, env);
  ASSERT_GT(srv.port, 0);
  const int fd = connect_to(srv.port);
  for (const auto& [k, v] : acked) {
    ASSERT_TRUE(send_all(fd, "get " + k + "\r\n"));
    const std::string resp = recv_until(fd, "END\r\n", 1);
    const std::string want = "VALUE " + k + " 0 " + std::to_string(v.size()) +
                             "\r\n" + v + "\r\nEND\r\n";
    EXPECT_EQ(resp, want) << "acked SET lost after scheduled crash: " << k;
  }
  ::close(fd);
  ::kill(srv.pid, SIGTERM);
  srv.wait_exit();
}

TEST(ServerSmoke, WedgedSyncerAcksDrainViaCallerHelp) {
  // The syncer thread is wedged (MONTAGE_SERVER_SYNCER_WEDGE, as if it had
  // been SIGSTOPped) and the caller-help threshold is dialed down: every
  // durable ACK must be released by workers driving bounded syncs
  // themselves. A stalled syncer is a latency event, never a liveness one.
  const std::string dir = test_dir();
  ServerHandle srv = start_server(dir, {{"MONTAGE_SERVER_REGION_MB", "64"},
                                        {"MONTAGE_SERVER_SYNCER_WEDGE", "1"},
                                        {"MONTAGE_SERVER_HELP_US", "2000"}});
  ASSERT_GT(srv.port, 0);
  const int fd = connect_to(srv.port);
  for (int batch = 0; batch < 5; ++batch) {
    std::string burst;
    for (int i = 0; i < 8; ++i) {
      burst += "set w" + std::to_string(batch) + "_" + std::to_string(i) +
               " 0 0 3\r\nval\r\n";
    }
    ASSERT_TRUE(send_all(fd, burst));
    const std::string resp = recv_until(fd, "STORED\r\n", 8);
    ASSERT_EQ(count_of(resp, "STORED\r\n"), 8)
        << "ACKs did not drain with the syncer wedged: " << resp;
  }
  ASSERT_TRUE(send_all(fd, "stats\r\n"));
  const std::string stats = recv_until(fd, "END\r\n", 1);
  EXPECT_GE(stat_value(stats, "sync_path_caller"), 1u) << stats;
  EXPECT_EQ(stat_value(stats, "sync_path_syncer"), 0u) << stats;
  ::close(fd);
  ASSERT_EQ(::kill(srv.pid, SIGTERM), 0);
  const int st = srv.wait_exit();
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
}

TEST(ServerSmoke, OverloadShedsInsteadOfQueueing) {
  const std::string dir = test_dir();
  ServerHandle srv = start_server(
      dir, {{"MONTAGE_SERVER_REGION_MB", "64"},
            {"MONTAGE_SERVER_MAX_INFLIGHT", "1"},
            {"MONTAGE_SERVER_SYNC_US", "100000"}});  // slow ack release
  ASSERT_GT(srv.port, 0);
  const int fd = connect_to(srv.port);
  std::string burst;
  for (int i = 0; i < 50; ++i) {
    burst += "set shed:" + std::to_string(i) + " 0 0 3\r\nval\r\n";
  }
  ASSERT_TRUE(send_all(fd, burst));
  std::string resp = recv_until(fd, "\r\n", 50);
  const int stored = count_of(resp, "STORED\r\n");
  const int shed = count_of(resp, "SERVER_ERROR overloaded\r\n");
  EXPECT_GE(stored, 1);
  EXPECT_GE(shed, 1) << "a 50-set burst over a 1-op cap must shed";
  EXPECT_EQ(stored + shed, 50);
  // The shed decisions are visible in server telemetry.
  ASSERT_TRUE(send_all(fd, "stats\r\n"));
  const std::string stats = recv_until(fd, "END\r\n", 1);
  EXPECT_GE(stat_value(stats, "requests_shed"), static_cast<uint64_t>(shed));
  ::close(fd);
  ::kill(srv.pid, SIGTERM);
  srv.wait_exit();
}

TEST(ServerSmoke, SlowReaderIsBackpressuredThenStallClosed) {
  const std::string dir = test_dir();
  ServerHandle srv = start_server(dir, {{"MONTAGE_SERVER_REGION_MB", "64"},
                                        {"MONTAGE_SERVER_MAX_INFLIGHT", "0"},
                                        {"MONTAGE_SERVER_WRITE_BUF", "4096"},
                                        {"MONTAGE_SERVER_STALL_MS", "300"},
                                        {"MONTAGE_SERVER_IDLE_MS", "60000"}});
  ASSERT_GT(srv.port, 0);
  // A well-behaved control connection, used to read stats afterwards.
  const int ctl = connect_to(srv.port);
  {
    const std::string big(1000, 'x');
    ASSERT_TRUE(send_all(
        ctl, "set big 0 0 " + std::to_string(big.size()) + "\r\n" + big +
                 "\r\n"));
    ASSERT_EQ(count_of(recv_until(ctl, "STORED\r\n", 1), "STORED\r\n"), 1);
  }
  // The attacker: tiny receive buffer, floods gets, never reads.
  const int bad = connect_to(srv.port, /*rcvbuf=*/8192);
  // ~10 MB of responses: past the server's user-space write cap (4 KB) plus
  // anything the kernel can absorb (tcp_wmem caps the sndbuf at 4 MB and the
  // reader's rcvbuf is pinned tiny), so backpressure must engage.
  std::string flood;
  for (int i = 0; i < 10'000; ++i) flood += "get big\r\n";
  // The server stops reading (backpressure) long before 10 MB of responses
  // fit anywhere, so this send may only partially succeed — that's fine.
  (void)!send_all(bad, flood);
  // Stall timeout (300 ms) must cut the connection loose. The client can't
  // see the FIN yet — megabytes of undrained responses sit ahead of it — so
  // watch the server's own accounting through the healthy connection.
  std::string stats;
  bool closed = false;
  for (int waited = 0; waited < 10'000 && !closed; waited += 100) {
    ::usleep(100'000);
    ASSERT_TRUE(send_all(ctl, "stats\r\n"));
    stats = recv_until(ctl, "END\r\n", 1);
    closed = stat_value(stats, "stall_closed") >= 1;
  }
  EXPECT_TRUE(closed) << "slow reader was never stall-closed: " << stats;
  EXPECT_GE(stat_value(stats, "backpressure_pauses"), 1u) << stats;
  // Now drain the dead socket: behind the buffered responses there must be
  // an EOF (or an RST once the kernel gives up) — the server really hung up.
  bool fin_seen = false;
  for (int waited = 0; waited < 10'000 && !fin_seen; ) {
    char buf[65536];
    const ssize_t n = ::recv(bad, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) {
      fin_seen = true;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ::usleep(10'000);
      waited += 10;
    } else if (n < 0) {
      fin_seen = true;  // ECONNRESET counts: the connection is gone
    }
  }
  EXPECT_TRUE(fin_seen) << "no FIN/RST behind the buffered responses";
  ::close(bad);
  // The control connection stayed healthy throughout — no collapse for
  // well-behaved peers.
  ASSERT_TRUE(send_all(ctl, "get big\r\n"));
  EXPECT_EQ(count_of(recv_until(ctl, "END\r\n", 1), "VALUE big 0 1000"), 1);
  ::close(ctl);
  ::kill(srv.pid, SIGTERM);
  srv.wait_exit();
}

TEST(ServerSmoke, AdminPlaneServesMetricsHealthzVarz) {
  const std::string dir = test_dir();
  ServerHandle srv = start_server(dir, {{"MONTAGE_SERVER_REGION_MB", "64"},
                                        {"MONTAGE_SERVER_ADMIN_PORT", "0"}});
  ASSERT_GT(srv.port, 0);
  ASSERT_GT(srv.admin_port, 0) << "admin port missing from the port file";
  // Some load first, so the scrape reflects real traffic.
  const int fd = connect_to(srv.port);
  std::string burst;
  for (int i = 0; i < 20; ++i) {
    burst += "set m:" + std::to_string(i) + " 0 0 3\r\nval\r\nget m:" +
             std::to_string(i) + "\r\n";
  }
  ASSERT_TRUE(send_all(fd, burst));
  ASSERT_EQ(count_of(recv_until(fd, "END\r\n", 20), "STORED\r\n"), 20);

  const HttpResponse health = http_get(srv.admin_port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // /metrics under load must satisfy the same strict exposition linter the
  // scripts/check.sh scrape leg uses (linked here in-process).
  const HttpResponse metrics = http_get(srv.admin_port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(promexpo::lint(metrics.body), "")
      << metrics.body.substr(0, 400);
  EXPECT_NE(metrics.body.find("montage_up 1\n"), std::string::npos);
  EXPECT_NE(metrics.body.find("montage_server_curr_connections"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("montage_server_epoch_persisted"),
            std::string::npos);

  const HttpResponse varz = http_get(srv.admin_port, "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("\"server\":{\"port\":"), std::string::npos);
  EXPECT_NE(varz.body.find("\"requests\":"), std::string::npos);
  EXPECT_NE(varz.body.find("\"slow_ops\":["), std::string::npos);
  EXPECT_NE(varz.body.find("\"registry\":"), std::string::npos);

  EXPECT_EQ(http_get(srv.admin_port, "/nope").status, 404);

  // The registry is also reachable over the data protocol (`stats montage`),
  // and unknown stats arguments are rejected instead of ignored.
  ASSERT_TRUE(send_all(fd, "stats montage\r\n"));
  const std::string mstats = recv_until(fd, "END\r\n", 1);
  EXPECT_NE(stat_value(mstats, "server.requests"), ~0ull) << mstats;
  EXPECT_NE(stat_value(mstats, "epoch_current"), ~0ull) << mstats;
  EXPECT_NE(stat_value(mstats, "nvm.lines_flushed_total"), ~0ull) << mstats;
  ASSERT_TRUE(send_all(fd, "stats bogus\r\nget m:0\r\n"));
  const std::string after = recv_until(fd, "END\r\n", 1);
  EXPECT_NE(after.find("CLIENT_ERROR"), std::string::npos) << after;
  EXPECT_NE(after.find("VALUE m:0 0 3"), std::string::npos)
      << "stream must stay in sync after a rejected stats argument: " << after;
  ::close(fd);
  ASSERT_EQ(::kill(srv.pid, SIGTERM), 0);
  const int st = srv.wait_exit();
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
}

TEST(ServerSmoke, HealthzReports503DuringDrain) {
  // A flooded, non-reading peer keeps the drain window open (undrained
  // responses, no stall close within the test horizon) so /healthz can be
  // polled mid-drain: 200 before SIGTERM, 503 from the first poll after,
  // then a clean deadline-bounded exit.
  const std::string dir = test_dir();
  ServerHandle srv = start_server(dir, {{"MONTAGE_SERVER_REGION_MB", "64"},
                                        {"MONTAGE_SERVER_ADMIN_PORT", "0"},
                                        {"MONTAGE_SERVER_MAX_INFLIGHT", "0"},
                                        {"MONTAGE_SERVER_WRITE_BUF", "4096"},
                                        {"MONTAGE_SERVER_STALL_MS", "60000"},
                                        {"MONTAGE_SERVER_DRAIN_MS", "2000"}});
  ASSERT_GT(srv.port, 0);
  ASSERT_GT(srv.admin_port, 0);
  const int ctl = connect_to(srv.port);
  const std::string big(1000, 'x');
  ASSERT_TRUE(send_all(ctl, "set big 0 0 " + std::to_string(big.size()) +
                                "\r\n" + big + "\r\n"));
  ASSERT_EQ(count_of(recv_until(ctl, "STORED\r\n", 1), "STORED\r\n"), 1);
  const int bad = connect_to(srv.port, /*rcvbuf=*/8192);
  std::string flood;
  for (int i = 0; i < 10'000; ++i) flood += "get big\r\n";
  (void)!send_all(bad, flood);
  ::usleep(200'000);  // let responses pile up behind the dead reader

  EXPECT_EQ(http_get(srv.admin_port, "/healthz").status, 200);
  ASSERT_EQ(::kill(srv.pid, SIGTERM), 0);
  int saw_503 = 0;
  for (int i = 0; i < 100; ++i) {
    int st = 0;
    if (::waitpid(srv.pid, &st, WNOHANG) == srv.pid) {
      srv.pid = -1;
      EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
      break;
    }
    const HttpResponse h = http_get(srv.admin_port, "/healthz");
    if (h.status == 503) {
      ++saw_503;
      EXPECT_EQ(h.body, "draining\n");
    }
    ::usleep(50'000);
  }
  EXPECT_GE(saw_503, 1) << "healthz never reported the drain";
  ::close(bad);
  ::close(ctl);
  if (srv.pid > 0) {
    const int st = srv.wait_exit();
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
  }
}

TEST(ServerSmoke, MetricsScrapeSurvivesKill9Recovery) {
  const std::string dir = test_dir();
  const EnvList env = {{"MONTAGE_SERVER_REGION", dir + "/region"},
                       {"MONTAGE_SERVER_REGION_MB", "64"},
                       {"MONTAGE_SERVER_ADMIN_PORT", "0"}};
  {
    ServerHandle srv = start_server(dir, env);
    ASSERT_GT(srv.port, 0);
    ASSERT_GT(srv.admin_port, 0);
    const int fd = connect_to(srv.port);
    ASSERT_TRUE(send_all(fd, "set sk 0 0 9\r\nsurvivor!\r\n"));
    ASSERT_EQ(count_of(recv_until(fd, "STORED\r\n", 1), "STORED\r\n"), 1);
    const HttpResponse metrics = http_get(srv.admin_port, "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_EQ(promexpo::lint(metrics.body), "");
    ::close(fd);
    ASSERT_EQ(::kill(srv.pid, SIGKILL), 0);
    srv.wait_exit();
  }
  // Recovery must come back with a fully working introspection plane.
  ServerHandle srv = start_server(dir, env);
  ASSERT_GT(srv.port, 0);
  ASSERT_GT(srv.admin_port, 0);
  EXPECT_EQ(http_get(srv.admin_port, "/healthz").status, 200);
  const HttpResponse metrics = http_get(srv.admin_port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(promexpo::lint(metrics.body), "") << metrics.body.substr(0, 400);
  EXPECT_NE(metrics.body.find("montage_up 1\n"), std::string::npos);
  const int fd = connect_to(srv.port);
  ASSERT_TRUE(send_all(fd, "get sk\r\n"));
  EXPECT_NE(recv_until(fd, "END\r\n", 1).find("survivor!"), std::string::npos);
  ::close(fd);
  ::kill(srv.pid, SIGTERM);
  srv.wait_exit();
}

TEST(ServerSmoke, SlowOpEmitsExactlyOneLogLine) {
  // Wedge the syncer so the single SET's ACK waits for the caller-help
  // threshold (~20 ms), far past the 1 ms slow-op bar: exactly one slow op,
  // one structured log line, one counter increment, one /varz ring entry.
  // The `stats` probe is sent only after STORED arrives — a pipelined
  // request queued behind the pending SET would be released late too and
  // count as a second slow op.
  const std::string dir = test_dir();
  const std::string errlog = dir + "/stderr.log";
  ServerHandle srv = start_server(dir,
                                  {{"MONTAGE_SERVER_REGION_MB", "64"},
                                   {"MONTAGE_SERVER_ADMIN_PORT", "0"},
                                   {"MONTAGE_SERVER_SYNCER_WEDGE", "1"},
                                   {"MONTAGE_SERVER_HELP_US", "20000"},
                                   {"MONTAGE_SERVER_SLOW_OP_NS", "1000000"}},
                                  errlog);
  ASSERT_GT(srv.port, 0);
  ASSERT_GT(srv.admin_port, 0);
  const int fd = connect_to(srv.port);
  ASSERT_TRUE(send_all(fd, "set slowkey 0 0 5\r\nhello\r\n"));
  ASSERT_EQ(count_of(recv_until(fd, "STORED\r\n", 1), "STORED\r\n"), 1);

  ASSERT_TRUE(send_all(fd, "stats\r\n"));
  const std::string stats = recv_until(fd, "END\r\n", 1);
  EXPECT_EQ(stat_value(stats, "slow_ops"), 1u) << stats;

  // The line was emitted (and fflushed) at the release point, strictly
  // before the STORED bytes entered the socket — no settling wait needed.
  const std::string log = read_file(errlog);
  EXPECT_EQ(count_of(log, "\"event\":\"slow_op\""), 1) << log;
  EXPECT_NE(log.find("\"verb\":\"set\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"key_hash\":\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"epoch_begin\":"), std::string::npos) << log;
  EXPECT_NE(log.find("\"persisted_frontier\":"), std::string::npos) << log;

  const HttpResponse varz = http_get(srv.admin_port, "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("\"slow_ops\":[{"), std::string::npos)
      << "slow-op ring empty in /varz: " << varz.body.substr(0, 400);
  EXPECT_NE(varz.body.find("\"verb\":\"set\""), std::string::npos);
  ::close(fd);
  ASSERT_EQ(::kill(srv.pid, SIGTERM), 0);
  const int st = srv.wait_exit();
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;
}

}  // namespace
