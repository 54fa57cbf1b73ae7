// Emulated NVM device.
//
// The paper runs on Optane DIMMs mapped DAX; stores become durable only after
// an explicit write-back (clwb) ordered by a fence (sfence). This module
// reproduces that contract on ordinary memory:
//
//  * kPassthrough — persist/fence only count events. Fastest; used when a
//    test does not care about persistence cost or semantics.
//  * kLatency     — models Optane's write path: issuing a write-back (clwb)
//    is nearly free, but each line occupies the (per-thread) write-pending
//    queue for flush_latency_ns; a fence must wait until every line this
//    thread flushed has drained, plus a fixed fence_latency_ns. Systems
//    that fence per operation therefore pay the drain on their critical
//    path, while systems that buffer and fence once per epoch pay it once
//    for the whole batch — the mechanism the paper exploits. All figure
//    benches use this mode.
//  * kTracked     — a cache-line-granularity shadow image records exactly
//    the bytes that have been written back AND fenced. simulate_crash()
//    discards everything else, after which recovery code runs against the
//    surviving image. Crash-consistency tests use this mode; it is strictly
//    harsher than real hardware (real caches may also evict lines that were
//    never flushed — evict_random_lines() injects that behaviour).
//    A fence commits every thread's outstanding writes-back, not just the
//    caller's: initiated write-backs sit in the memory controller's shared
//    write-pending queue, which any subsequent drain covers. (Montage's
//    epoch boundary relies on this: workers issue incremental writes-back
//    that the background advancer's fence must make durable.)
//
// The first 4 KiB of the region is a header with a small number of root
// slots; the allocator directory and the epoch clock live there.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/padded.hpp"
#include "util/telemetry.hpp"

namespace montage::nvm {

enum class PersistMode { kPassthrough, kLatency, kTracked };

/// Thrown by persist()/fence()/evict_random_lines() in kTracked mode when an
/// armed crash schedule reaches its event index (see Region::crash_at_event).
/// The event it interrupts does NOT take effect — power failed just before
/// it — so a harness that catches this, calls simulate_crash() and reruns
/// recovery observes exactly the crash state at that persistence boundary.
struct CrashPointException : public std::exception {
  /// Human-readable reason (std::exception interface).
  const char* what() const noexcept override {
    return "nvm: scheduled crash point reached";
  }
};

/// Thrown by persist()/fence()/evict_random_lines() in kTracked mode while a
/// transient-failure window is armed (see Region::fail_events): the device
/// reported EIO / a full write queue and the event did NOT take effect.
/// Unlike CrashPointException, the condition is transient — the caller may
/// retry, and each retry issues a new persistence event that marches through
/// the armed window until it succeeds.
struct IoError : public std::exception {
  /// Human-readable reason (std::exception interface).
  const char* what() const noexcept override {
    return "nvm: injected transient I/O error (EIO)";
  }
};

struct RegionOptions {
  std::size_t size = 64ull << 20;  ///< arena size in bytes (default 64 MiB)
  std::string path;                ///< backing file; empty = anonymous memory
  PersistMode mode = PersistMode::kPassthrough;
  uint64_t flush_latency_ns = 0;   ///< kLatency: drain time per flushed line
  uint64_t fence_latency_ns = 0;   ///< kLatency: fixed cost per fence
  /// kLatency: write-pending-queue depth, expressed as drain time. Issuing
  /// a write-back when the backlog exceeds this stalls the issuer
  /// (backpressure), as on real hardware.
  uint64_t wpq_backlog_ns = 10'000;
};

/// A consistent point-in-time aggregate of the region's persistence
/// traffic. Each field is the aggregate-on-read sum of per-thread sharded
/// slots (telemetry::ShardedCounter), so the snapshot never observes the
/// torn values a pair of contended process-wide atomics could yield.
struct RegionStatsSnapshot {
  uint64_t lines_flushed = 0;
  uint64_t fences = 0;
};

class Region {
 public:
  static constexpr std::size_t kLine = 64;
  static constexpr std::size_t kHeaderSize = 4096;
  static constexpr int kNumRoots = 8;
  static constexpr int kMaxThreads = 256;
  static constexpr uint64_t kMagic = 0x4D4F4E5441474531ull;  // "MONTAGE1"
  /// Persistent trace annex: header bytes [kTraceAnnexOffset, kHeaderSize)
  /// hold the serialized telemetry event trace dumped at an armed crash
  /// (and by recovery), so a post-crash trace survives in the region.
  static constexpr std::size_t kTraceAnnexOffset = 1024;
  static constexpr std::size_t kTraceAnnexSize =
      kHeaderSize - kTraceAnnexOffset;

  /// Map (or create) the arena; reads MONTAGE_CRASH_AT / MONTAGE_EIO_* /
  /// MONTAGE_TRACE / MONTAGE_STATS (strictly validated — garbage throws).
  explicit Region(const RegionOptions& opts);
  /// Unmap the arena, folding this region's flush/fence totals into the
  /// process-wide telemetry registry first.
  ~Region();
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  /// Process-wide region used by the convenience singletons higher up the
  /// stack. init_global replaces any previous instance.
  static void init_global(const RegionOptions& opts);
  /// The process-wide region (nullptr before init_global).
  static Region* global();
  /// Unmap and forget the process-wide region (no-op when absent).
  static void destroy_global();

  /// Start of the mapped region (the 4 KiB header lives here).
  char* base() const { return base_; }
  /// Total mapped size in bytes, header included.
  std::size_t size() const { return opts_.size; }
  /// First allocatable byte, just past the header.
  char* arena_begin() const { return base_ + kHeaderSize; }
  /// One past the last mapped byte.
  char* arena_end() const { return base_ + opts_.size; }
  /// True when `p` points into the mapped region (header or arena).
  bool contains(const void* p) const {
    return p >= base_ && p < base_ + opts_.size;
  }
  /// The persistence-emulation mode this region was created with.
  PersistMode mode() const { return opts_.mode; }
  /// True when the constructor reopened an existing, validly formatted
  /// backing file (size and magic checked) instead of formatting a fresh
  /// header. A reopened region carries recoverable state — callers (e.g. the
  /// networked server after SIGKILL) should run allocator and epoch-clock
  /// recovery rather than a fresh format.
  bool reopened() const { return reopened_; }

  /// 64-bit root slots in the header. Callers persist them explicitly.
  std::atomic<uint64_t>& root(int i);

  /// clwb emulation: initiate write-back of every line covering [addr, len).
  /// Durability is only guaranteed after the next fence() by this thread.
  void persist(const void* addr, std::size_t len);

  /// sfence emulation: make this thread's outstanding writes-back durable.
  void fence();

  /// persist() immediately ordered by a fence(): [addr, len) is durable on
  /// return.
  void persist_fence(const void* addr, std::size_t len) {
    persist(addr, len);
    fence();
  }

  /// kTracked only: throw away every store that was not persisted, leaving
  /// memory exactly as a crash would. Recovery code then runs on the result.
  void simulate_crash();

  /// kTracked only: spontaneously write back `n` random lines, emulating
  /// cache evictions of lines the program never flushed. Crash tests use
  /// this to check that recovery tolerates torn, unfenced state. Safe to
  /// call from a chaos thread while workers persist/fence concurrently.
  void evict_random_lines(uint64_t n, uint64_t seed);

  // ---- deterministic crash-schedule engine (kTracked only) -----------------
  //
  // Every persist()/fence()/evict_random_lines() call is a numbered
  // "persistence event" (1-based, monotonic for the Region's lifetime,
  // counting across simulate_crash() so recovery's own events keep
  // numbering). A harness runs a workload once to learn the event count,
  // then replays it with crash_at_event(n) armed for each n: the Nth event
  // throws CrashPointException before taking effect. Arming an index at or
  // below the current count never fires.
  //
  // Firing cuts the power for the whole process, not just the calling
  // thread: every subsequent persist/fence/evict from ANY thread throws
  // CrashPointException without counting an event, until simulate_crash()
  // restores power for recovery. Without the freeze, a concurrent thread
  // (cooperative epoch advance, a helping sync) could keep committing
  // events between the armed one and the crash image being taken — e.g.
  // re-persist the epoch clock over a write-back that died with the
  // "power", and so acknowledge durability the image does not contain.
  //
  // MONTAGE_CRASH_AT=<n> arms the schedule at construction, for driving
  // whole binaries from the environment.

  /// Number of persistence events issued so far (kTracked; else 0).
  uint64_t persistence_events() const {
    return events_.load(std::memory_order_relaxed);
  }
  /// Arm the schedule: the event with 1-based index `n` throws. 0 disarms.
  void crash_at_event(uint64_t n) {
    crash_at_.store(n, std::memory_order_relaxed);
  }
  /// Disarm any pending crash schedule.
  void clear_crash_schedule() { crash_at_event(0); }

  /// Arm a transient-failure window: persistence events with 1-based index
  /// in [from, from + count) throw IoError instead of taking effect. A
  /// retrying caller issues fresh events and exits the window after `count`
  /// failures; an armed crash schedule takes precedence over the window.
  /// `from` = 0 disarms. MONTAGE_EIO_AT / MONTAGE_EIO_COUNT (default 1) arm
  /// this at construction, like MONTAGE_CRASH_AT.
  void fail_events(uint64_t from, uint64_t count) {
    eio_count_.store(count, std::memory_order_relaxed);
    eio_from_.store(from, std::memory_order_relaxed);
  }
  /// Disarm any pending transient-failure window.
  void clear_eio_schedule() { fail_events(0, 0); }

  /// Consistent aggregate of lines flushed / fences issued since the last
  /// reset_stats() (aggregate-on-read over per-thread shards).
  RegionStatsSnapshot stats() const;
  /// Zero the flush/fence statistics (adds racing with the reset may
  /// survive into the next snapshot).
  void reset_stats();

  /// Serialize the live telemetry event trace into the persistent annex
  /// ([kTraceAnnexOffset, kHeaderSize)). In kTracked mode the annex lines
  /// are committed straight to the crash shadow — emulating the eADR-style
  /// flush-on-power-fail window — WITHOUT counting persistence events, so
  /// crash-schedule numbering is unchanged. Called automatically when an
  /// armed crash fires; no-op when tracing is off.
  void dump_trace_annex();

  /// Deserialize the annex left by a pre-crash dump_trace_annex(); empty if
  /// no (valid) annex is present. EpochSys::recover() restores this into
  /// the live trace so post-crash diagnosis sees pre-crash history.
  std::vector<telemetry::TraceEvent> crash_trace() const;

 private:
  struct alignas(util::kCacheLineSize) PendingLines {
    std::mutex m;                 // kTracked only; guards `lines`
    std::vector<uint64_t> lines;  // line indices flushed but not yet fenced
    uint64_t drain_clock_ns = 0;  // kLatency: when this thread's WPQ drains
  };

  uint64_t line_of(const void* p) const {
    return (static_cast<const char*>(p) - base_) / kLine;
  }
  void commit_line(uint64_t line);
  PendingLines& my_pending();
  /// kTracked: count one persistence event; throw if the schedule fires.
  void bump_event();

  RegionOptions opts_;
  char* base_ = nullptr;
  int fd_ = -1;
  bool reopened_ = false;  // existing valid backing file found at open
  std::unique_ptr<char[]> shadow_;  // kTracked persistent image
  std::mutex commit_m_;  // kTracked: serializes shadow commits (fence/evict)
  std::unique_ptr<PendingLines[]> pending_;
  telemetry::ShardedCounter lines_flushed_;  // per-thread shards; see stats()
  telemetry::ShardedCounter fences_;
  int gauge_lines_ = -1;  // telemetry gauge handles (unregistered in dtor)
  int gauge_fences_ = -1;
  std::atomic<uint64_t> events_{0};    // kTracked persistence-event clock
  std::atomic<uint64_t> crash_at_{0};  // 0 = disarmed
  std::atomic<bool> frozen_{false};    // armed event fired; power stays off
                                       // until simulate_crash()
  std::atomic<uint64_t> eio_from_{0};  // EIO window start; 0 = disarmed
  std::atomic<uint64_t> eio_count_{0};
};

/// Convenience wrapper: Region::global()->persist(p, n).
inline void persist(const void* p, std::size_t n) {
  Region::global()->persist(p, n);
}
/// Convenience wrapper: Region::global()->fence().
inline void fence() { Region::global()->fence(); }
/// Convenience wrapper: Region::global()->persist_fence(p, n).
inline void persist_fence(const void* p, std::size_t n) {
  Region::global()->persist_fence(p, n);
}

}  // namespace montage::nvm
