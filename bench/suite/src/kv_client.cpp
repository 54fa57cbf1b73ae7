#include "kv_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "suite.hpp"

namespace suite::kv {

namespace {

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint32_t fnv32(std::string_view s) {
  uint32_t h = 2166136261u;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

// Value layout (64 bytes): id as 16 hex digits, ':', version as 16 hex
// digits, ':', 22 fill letters chosen by (id, version), then 8 hex digits
// of the FNV-1a hash of the first 56 bytes.
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kBodyBytes = 56;

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
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

}  // namespace

std::string key(uint64_t seed, uint64_t id) {
  return "k" + hex16(mix64(seed ^ mix64(id)));
}

std::string value(uint64_t id, uint64_t version) {
  std::string v = hex16(id) + ":" + hex16(version) + ":";
  v.append(kBodyBytes - v.size(),
           static_cast<char>('a' + mix64(id * 31 + version) % 26));
  char sum[9];
  std::snprintf(sum, sizeof sum, "%08x", fnv32(v));
  return v + sum;
}

bool value_ok(std::string_view v, uint64_t id) {
  if (v.size() != kValueBytes || v.substr(0, 16) != hex16(id)) return false;
  const uint64_t version =
      std::strtoull(std::string(v.substr(17, 16)).c_str(), nullptr, 16);
  return v == value(id, version);
}

std::string get_request(std::string_view key) {
  std::string r = "get ";
  r.append(key);
  r += "\r\n";
  return r;
}

std::string set_request(std::string_view key, std::string_view value) {
  std::string r = "set ";
  r.append(key);
  r += " 0 0 " + std::to_string(value.size()) + "\r\n";
  r.append(value);
  r += "\r\n";
  return r;
}

Conn::Conn(uint16_t port) : fd_(connect_loopback(port)) {
  if (fd_ >= 0) ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::flush() {
  while (ok() && want_write()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (!(n < 0 && errno == EINTR)) {
      broken_ = true;
    }
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return ok();
}

bool Conn::receive() {
  char buf[65536];
  while (ok()) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (!(n < 0 && errno == EINTR)) {
      broken_ = true;
    }
  }
  return ok();
}

bool Conn::next(Response* r) {
  const std::string_view in(in_.data() + in_off_, in_.size() - in_off_);
  const std::size_t eol = in.find("\r\n");
  if (eol == std::string_view::npos) return false;
  const std::string_view line = in.substr(0, eol);
  std::size_t used = eol + 2;
  if (line.substr(0, 6) == "VALUE ") {
    // VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n
    const std::size_t sp = line.rfind(' ');
    const std::size_t nbytes =
        std::strtoull(std::string(line.substr(sp + 1)).c_str(), nullptr, 10);
    if (in.size() < used + nbytes + 2 + 5) return false;
    r->kind = Response::kValue;
    r->data.assign(in.substr(used, nbytes));
    used += nbytes + 2;
    if (in.substr(used, 5) != "END\r\n") r->kind = Response::kError;
    used += 5;
  } else if (line == "END") {
    r->kind = Response::kMiss;
  } else if (line == "STORED") {
    r->kind = Response::kStored;
  } else if (line.substr(0, 12) == "SERVER_ERROR") {
    r->kind = Response::kServerError;
  } else {
    r->kind = Response::kError;
  }
  in_off_ += used;
  if (in_off_ > (1u << 20)) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  return true;
}

std::string http_get(uint16_t port, const std::string& path) {
  Conn c(port);
  if (!c.ok()) return "";
  c.queue("GET " + path + " HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
  std::string body;
  char buf[65536];
  for (int spins = 0; spins < 5000; ++spins) {
    pollfd p{c.fd(), static_cast<short>(POLLIN | (c.want_write() ? POLLOUT : 0)), 0};
    ::poll(&p, 1, 2);
    if (!c.flush()) return "";
    const ssize_t n = ::recv(c.fd(), buf, sizeof buf, 0);
    if (n > 0) {
      body.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      const std::size_t hdr = body.find("\r\n\r\n");
      return hdr == std::string::npos ? "" : body.substr(hdr + 4);
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return "";
    }
  }
  return "";
}

}  // namespace suite::kv
