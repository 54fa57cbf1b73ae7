// The suite's memcached-text client for the kv_server workload: loopback
// connections with non-blocking buffered I/O, an incremental response
// parser, self-checking values, and a one-shot HTTP GET for /metrics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace suite::kv {

/// Key for record `id` under `seed`: "k" + 16 hex digits of a bijection of
/// id, so keys are distinct and their placement changes with the seed.
std::string key(uint64_t seed, uint64_t id);

/// A 64-byte value that names its record and version and ends in a checksum
/// of the rest, so a torn or misdirected value never passes value_ok().
std::string value(uint64_t id, uint64_t version);
bool value_ok(std::string_view v, uint64_t id);

std::string get_request(std::string_view key);
std::string set_request(std::string_view key, std::string_view value);

struct Response {
  enum Kind { kValue, kMiss, kStored, kServerError, kError };
  Kind kind = kError;
  std::string data;  ///< the value of a kValue response
};

/// A loopback TCP connection with an outgoing buffer and an incoming
/// response parser. All I/O is non-blocking; callers poll fd().
class Conn {
 public:
  /// Connects to 127.0.0.1:port; ok() is false if that failed.
  explicit Conn(uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0 && !broken_; }
  int fd() const { return fd_; }

  void queue(std::string_view bytes) { out_.append(bytes); }
  bool want_write() const { return out_off_ < out_.size(); }
  /// Send as much of the outgoing buffer as the socket takes.
  bool flush();
  /// Read everything available; false once the peer closed or failed.
  bool receive();
  /// Pop the next complete response, if one has arrived.
  bool next(Response* r);

 private:
  int fd_ = -1;
  bool broken_ = false;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
};

/// GET `path` from 127.0.0.1:port over HTTP/1.1 with Connection: close and
/// return the body; empty on failure.
std::string http_get(uint16_t port, const std::string& path);

}  // namespace suite::kv
