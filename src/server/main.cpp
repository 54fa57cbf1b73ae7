// montage_kv_server: the networked, persistent memcached-style server
// (DESIGN.md §11). Listens on loopback, speaks the memcached text protocol,
// and only acknowledges mutations once the covering epoch has persisted.
//
// Environment (all strictly validated; malformed values abort startup):
//   MONTAGE_SERVER_*          — ServerConfig (see src/server/config.hpp)
//   MONTAGE_SERVER_REGION     — backing file for the NVM region. When the
//                               file already holds a valid region (e.g. the
//                               previous process was SIGKILLed), the server
//                               recovers: allocator + epoch clock + payload
//                               scan, then serves the surviving items.
//                               Empty/unset = anonymous memory (no
//                               cross-process durability; tests only).
//   MONTAGE_SERVER_REGION_MB  — region size in MiB (default 256)
//   MONTAGE_SERVER_MODE       — passthrough | latency | tracked
//   MONTAGE_SERVER_SHARDS     — cache shards (default 16)
//   MONTAGE_SERVER_CAPACITY   — items per shard (default 65536)
//   MONTAGE_CRASH_AT=<n>      — tracked mode: die at the Nth persistence
//                               event with exit code 42, leaving the
//                               persisted-only image in the backing file
//                               (the background advancer is disabled so the
//                               event schedule is deterministic).
//
// Flags: --port-file=<path>  write the bound port (atomically) once serving;
//        test harnesses use it with MONTAGE_SERVER_PORT=0. When the admin
//        plane is enabled (MONTAGE_SERVER_ADMIN_PORT) a second line carries
//        the bound admin port; readers of the first integer are unaffected.
//
// SIGTERM/SIGINT trigger the graceful drain: stop accepting, flush in-flight
// responses behind a final sync, close the region cleanly, exit 0.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "kvstore/memcache.hpp"
#include "nvm/region.hpp"
#include "ralloc/ralloc.hpp"
#include "server/config.hpp"
#include "server/kv_server.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace {

montage::server::KvServer* g_server = nullptr;

void on_term_signal(int) {
  if (g_server != nullptr) g_server->request_drain();  // async-signal-safe
}

montage::nvm::PersistMode parse_mode(const std::string& s) {
  if (s == "passthrough") return montage::nvm::PersistMode::kPassthrough;
  if (s == "latency") return montage::nvm::PersistMode::kLatency;
  if (s == "tracked") return montage::nvm::PersistMode::kTracked;
  throw std::invalid_argument("MONTAGE_SERVER_MODE='" + s +
                              "': expected passthrough|latency|tracked");
}

void write_port_file(const std::string& path, uint16_t port,
                     uint16_t admin_port) {
  // Write-then-rename so a polling harness never reads a partial file. The
  // admin port, when enabled, is a second line: existing readers scan the
  // first integer and never see it.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + tmp);
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  if (admin_port != 0) {
    std::fprintf(f, "%u\n", static_cast<unsigned>(admin_port));
  }
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace montage;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(strlen("--port-file="));
    } else {
      std::fprintf(stderr, "usage: %s [--port-file=<path>]\n", argv[0]);
      return 2;
    }
  }

  try {
    util::log::init_from_env();
    const auto cfg = server::ServerConfig::from_env();
    nvm::RegionOptions ropts;
    ropts.size = util::env_u64_checked("MONTAGE_SERVER_REGION_MB", 256) << 20;
    ropts.path = util::env_str("MONTAGE_SERVER_REGION", "");
    ropts.mode = parse_mode(util::env_str("MONTAGE_SERVER_MODE", "passthrough"));
    const uint64_t shards = util::env_u64_checked("MONTAGE_SERVER_SHARDS", 16);
    const uint64_t capacity =
        util::env_u64_checked("MONTAGE_SERVER_CAPACITY", 65536);
    if (shards == 0 || capacity == 0) {
      throw std::invalid_argument(
          "MONTAGE_SERVER_SHARDS / MONTAGE_SERVER_CAPACITY must be positive");
    }

    nvm::Region::init_global(ropts);
    auto* region = nvm::Region::global();
    const bool recover = region->reopened();
    // With a crash schedule armed, persistence events must land on the
    // request/sync threads deterministically, so the free-running background
    // advancer stays off; the ack syncer drives the clock instead.
    const bool crash_armed =
        region->mode() == nvm::PersistMode::kTracked &&
        util::env_u64_checked("MONTAGE_CRASH_AT", 0) != 0;

    auto ral = std::make_unique<ralloc::Ralloc>(
        region, recover ? ralloc::Ralloc::Mode::kRecover
                        : ralloc::Ralloc::Mode::kFresh);
    EpochSys::Options eopts;
    eopts.start_advancer = !crash_armed;
    auto esys = std::make_unique<EpochSys>(ral.get(), eopts, recover);
    EpochSys::set_default_esys(esys.get());

    auto cache = std::make_unique<kvstore::MontageMemCache>(
        esys.get(), shards, capacity);
    if (recover) {
      const auto survivors = esys->recover(static_cast<int>(cfg.workers));
      cache->recover(survivors);
      const auto& rr = esys->last_recovery_report();
      util::log::info("recovered")
          .field("items", static_cast<uint64_t>(cache->size()))
          .field("region", ropts.path)
          .field("payloads", static_cast<uint64_t>(rr.recovered))
          .field("late_epoch", static_cast<uint64_t>(rr.discarded_late_epoch))
          .field("corrupt", static_cast<uint64_t>(rr.quarantined_corrupt))
          .field("crash_epoch", static_cast<uint64_t>(rr.crash_epoch))
          .field("cutoff_epoch", static_cast<uint64_t>(rr.cutoff_epoch));
    }

    server::KvServer srv(cfg, cache.get(), esys.get());
    g_server = &srv;
    struct sigaction sa {};
    sa.sa_handler = on_term_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    if (!port_file.empty()) {
      write_port_file(port_file, srv.port(), srv.admin_port());
    }
    util::log::info("serving")
        .field("addr", "127.0.0.1")
        .field("port", static_cast<uint64_t>(srv.port()))
        .field("admin_port", static_cast<uint64_t>(srv.admin_port()))
        .field("state", recover ? "recovered" : "fresh");

    srv.run();  // blocks until the SIGTERM drain completes
    g_server = nullptr;

    const auto reg = telemetry::counters_snapshot();
    util::log::info("drained")
        .field("latency_ms", srv.drain_latency_ns() / 1e6)
        .field("requests",
               telemetry::counter_value(reg, telemetry::Ctr::kSrvRequests))
        .field("shed", telemetry::counter_value(
                           reg, telemetry::Ctr::kSrvRequestsShed));

    // Clean region close: everything released was already durable (the drain
    // ended with a final sync); tear down in construction order.
    cache.reset();
    esys.reset();
    ral.reset();
    nvm::Region::destroy_global();
    return 0;
  } catch (const std::exception& e) {
    // Startup validation failures must reach the operator even when the log
    // level was itself the malformed knob, so this one stays on raw stderr.
    std::fprintf(stderr, "kv_server: fatal: %s\n", e.what());
    return 2;
  }
}
