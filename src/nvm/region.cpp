#include "nvm/region.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/env.hpp"
#include "util/rand.hpp"
#include "util/telemetry.hpp"
#include "util/timing.hpp"

namespace montage::nvm {

namespace {
std::atomic<int> next_region_tid{0};
thread_local int region_tid = -1;

int my_region_tid() {
  if (region_tid < 0) {
    region_tid = next_region_tid.fetch_add(1, std::memory_order_relaxed) %
                 Region::kMaxThreads;
  }
  return region_tid;
}

Region* g_region = nullptr;
}  // namespace

Region::Region(const RegionOptions& opts) : opts_(opts) {
  // Every Montage stack constructs a Region first, so this is the central
  // hook for the telemetry knobs (MONTAGE_TRACE / MONTAGE_STATS); malformed
  // values throw here, like the fault-injection knobs below.
  telemetry::init_from_env();
  if (opts_.size < kHeaderSize * 2) {
    throw std::invalid_argument("nvm::Region: size too small");
  }
  bool fresh = true;
  if (!opts_.path.empty()) {
    fd_ = ::open(opts_.path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) throw std::runtime_error("nvm::Region: cannot open " + opts_.path);
    struct stat st{};
    ::fstat(fd_, &st);
    fresh = static_cast<std::size_t>(st.st_size) < opts_.size;
    if (::ftruncate(fd_, static_cast<off_t>(opts_.size)) != 0) {
      ::close(fd_);
      throw std::runtime_error("nvm::Region: ftruncate failed");
    }
    void* p = ::mmap(nullptr, opts_.size, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
    if (p == MAP_FAILED) {
      ::close(fd_);
      throw std::runtime_error("nvm::Region: mmap failed");
    }
    base_ = static_cast<char*>(p);
  } else {
    void* p = ::mmap(nullptr, opts_.size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("nvm::Region: mmap failed");
    base_ = static_cast<char*>(p);
  }

  auto* header_magic = reinterpret_cast<std::atomic<uint64_t>*>(base_);
  if (fresh || header_magic->load(std::memory_order_relaxed) != kMagic) {
    std::memset(base_, 0, kHeaderSize);
    header_magic->store(kMagic, std::memory_order_relaxed);
  } else {
    reopened_ = true;
  }

  pending_ = std::make_unique<PendingLines[]>(kMaxThreads);
  if (opts_.mode == PersistMode::kTracked) {
    shadow_ = std::make_unique<char[]>(opts_.size);
    std::memcpy(shadow_.get(), base_, opts_.size);  // initial image is durable
    crash_at_.store(util::env_u64_checked("MONTAGE_CRASH_AT", 0),
                    std::memory_order_relaxed);
    if (const uint64_t at = util::env_u64_checked("MONTAGE_EIO_AT", 0);
        at != 0) {
      fail_events(at, util::env_u64_checked("MONTAGE_EIO_COUNT", 1));
    }
  }
  gauge_lines_ = telemetry::register_gauge(
      "nvm.lines_flushed", "lines", [this] { return lines_flushed_.read(); });
  gauge_fences_ = telemetry::register_gauge(
      "nvm.fences", "fences", [this] { return fences_.read(); });
}

Region::~Region() {
  // Unregister before tearing down the counters the gauge closures read,
  // then fold this region's totals into the process-wide cumulative
  // counters so stats dumped after teardown still account for it.
  telemetry::unregister_gauge(gauge_lines_);
  telemetry::unregister_gauge(gauge_fences_);
  telemetry::count(telemetry::Ctr::kNvmLinesFlushed, lines_flushed_.read());
  telemetry::count(telemetry::Ctr::kNvmFences, fences_.read());
  if (base_ != nullptr) ::munmap(base_, opts_.size);
  if (fd_ >= 0) ::close(fd_);
}

void Region::init_global(const RegionOptions& opts) {
  destroy_global();
  g_region = new Region(opts);
}

Region* Region::global() {
  assert(g_region != nullptr && "nvm::Region::init_global not called");
  return g_region;
}

void Region::destroy_global() {
  delete g_region;
  g_region = nullptr;
}

std::atomic<uint64_t>& Region::root(int i) {
  assert(i >= 0 && i < kNumRoots);
  // Roots start one line past the magic word so each has room to grow.
  return *reinterpret_cast<std::atomic<uint64_t>*>(base_ + kLine +
                                                   i * sizeof(uint64_t));
}

Region::PendingLines& Region::my_pending() { return pending_[my_region_tid()]; }

void Region::bump_event() {
  // Power already failed: nothing persists for anyone until simulate_crash()
  // takes the crash image and restores power for recovery. A concurrent
  // thread that kept committing here could move the durable epoch clock
  // past write-backs that died with the armed event (see region.hpp).
  if (frozen_.load(std::memory_order_acquire)) throw CrashPointException{};
  const uint64_t n = events_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t target = crash_at_.load(std::memory_order_relaxed);
  // Fires on equality only — but the freeze above keeps the power off from
  // this throw until the harness calls simulate_crash().
  if (target != 0 && n == target) {
    frozen_.store(true, std::memory_order_release);
    telemetry::trace(telemetry::Ev::kCrashDump, n);
    dump_trace_annex();
    throw CrashPointException{};
  }
  const uint64_t from = eio_from_.load(std::memory_order_relaxed);
  if (from != 0 && n >= from &&
      n - from < eio_count_.load(std::memory_order_relaxed)) {
    telemetry::count(telemetry::Ctr::kNvmEioInjected);
    throw IoError{};
  }
}

void Region::persist(const void* addr, std::size_t len) {
  if (len == 0) return;
  assert(contains(addr));
  if (opts_.mode == PersistMode::kTracked) bump_event();
  const uint64_t first = line_of(addr);
  const uint64_t last = line_of(static_cast<const char*>(addr) + len - 1);
  const uint64_t nlines = last - first + 1;
  lines_flushed_.add(nlines);
  switch (opts_.mode) {
    case PersistMode::kPassthrough:
      break;
    case PersistMode::kLatency: {
      // clwb issue is cheap; the lines occupy this thread's write-pending
      // queue and drain at flush_latency_ns per line, concurrently with
      // further execution. A fence waits for the drain, and issuing into a
      // full queue stalls the issuer (backpressure).
      auto& pend = my_pending();
      const uint64_t now = util::now_ns();
      pend.drain_clock_ns = std::max(pend.drain_clock_ns, now) +
                            opts_.flush_latency_ns * nlines;
      if (pend.drain_clock_ns > now + opts_.wpq_backlog_ns) {
        util::spin_for_ns(pend.drain_clock_ns - now - opts_.wpq_backlog_ns);
      }
      break;
    }
    case PersistMode::kTracked: {
      auto& pend = my_pending();
      std::lock_guard lk(pend.m);
      for (uint64_t l = first; l <= last; ++l) pend.lines.push_back(l);
      break;
    }
  }
}

void Region::fence() {
  if (opts_.mode == PersistMode::kTracked) bump_event();
  fences_.add();
  switch (opts_.mode) {
    case PersistMode::kPassthrough:
      break;
    case PersistMode::kLatency: {
      auto& pend = my_pending();
      const uint64_t now = util::now_ns();
      if (pend.drain_clock_ns > now) {
        const uint64_t wait = pend.drain_clock_ns - now;
        if (wait > 100'000) {
          // Long drains (epoch-boundary batches) sleep instead of spinning
          // so worker threads keep the core — mirroring that real drains
          // happen in the memory controller, not on the CPU.
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        } else {
          util::spin_for_ns(wait);
        }
        pend.drain_clock_ns = 0;
      }
      util::spin_for_ns(opts_.fence_latency_ns);
      break;
    }
    case PersistMode::kTracked: {
      // A drain covers the shared write-pending queue: commit every
      // thread's outstanding writes-back (see header). commit_m_ orders
      // whole-line shadow copies against concurrent fences and eviction
      // chaos (evict_random_lines from another thread).
      std::lock_guard commit_lk(commit_m_);
      for (int t = 0; t < kMaxThreads; ++t) {
        auto& pend = pending_[t];
        std::lock_guard lk(pend.m);
        for (uint64_t l : pend.lines) commit_line(l);
        pend.lines.clear();
      }
      break;
    }
  }
}

void Region::commit_line(uint64_t line) {
  std::memcpy(shadow_.get() + line * kLine, base_ + line * kLine, kLine);
}

void Region::simulate_crash() {
  assert(opts_.mode == PersistMode::kTracked &&
         "simulate_crash requires kTracked mode");
  // Callers quiesce worker threads first; unfenced writes-back die with the
  // "power failure" exactly as on hardware. Locks are still taken so a
  // straggling chaos thread cannot tear the restored image.
  std::lock_guard commit_lk(commit_m_);
  for (int t = 0; t < kMaxThreads; ++t) {
    auto& pend = pending_[t];
    std::lock_guard lk(pend.m);
    pend.lines.clear();
  }
  std::memcpy(base_, shadow_.get(), opts_.size);
  // Power restored: recovery's own persistence events count (and can be
  // crash-scheduled) normally from here.
  frozen_.store(false, std::memory_order_release);
}

void Region::evict_random_lines(uint64_t n, uint64_t seed) {
  assert(opts_.mode == PersistMode::kTracked);
  bump_event();
  util::Xorshift128Plus rng(seed);
  const uint64_t nlines = opts_.size / kLine;
  std::lock_guard commit_lk(commit_m_);
  for (uint64_t i = 0; i < n; ++i) commit_line(rng.next_bounded(nlines));
}

RegionStatsSnapshot Region::stats() const {
  return {lines_flushed_.read(), fences_.read()};
}

void Region::reset_stats() {
  lines_flushed_.reset();
  fences_.reset();
}

void Region::dump_trace_annex() {
  char buf[kTraceAnnexSize];
  const std::size_t n = telemetry::trace_serialize(buf, kTraceAnnexSize);
  if (n == 0) return;  // tracing off/empty or telemetry compiled out
  std::memcpy(base_ + kTraceAnnexOffset, buf, n);
  if (opts_.mode == PersistMode::kTracked) {
    // Commit the annex lines straight to the crash shadow, bypassing
    // persist()/fence() so no persistence events are counted and armed
    // crash schedules keep their numbering. Safe here: bump_event() runs
    // before persist/fence/evict take commit_m_ or any pending lock.
    std::lock_guard lk(commit_m_);
    const uint64_t first = line_of(base_ + kTraceAnnexOffset);
    const uint64_t last = line_of(base_ + kTraceAnnexOffset + n - 1);
    for (uint64_t l = first; l <= last; ++l) commit_line(l);
  }
}

std::vector<telemetry::TraceEvent> Region::crash_trace() const {
  return telemetry::trace_deserialize(base_ + kTraceAnnexOffset,
                                      kTraceAnnexSize);
}

}  // namespace montage::nvm
