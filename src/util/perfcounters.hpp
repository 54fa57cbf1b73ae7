// Hardware performance-counter sampling via perf_event_open: a small fixed
// group (cycles, instructions, LLC misses, task-clock) with RAII scoping and
// graceful degradation. Opening a counter can fail for many benign reasons —
// the syscall is filtered by seccomp, perf_event_paranoid is too strict, the
// PMU is virtualized away, or the platform is not Linux at all — and none of
// them may break a benchmark run: a counter that cannot be opened simply
// reads as invalid and serializes as JSON `null`.
//
// Three open modes cover the two consumers:
//
//  * self()    — a true perf event *group* on the calling thread (the events
//    are scheduled onto the PMU as a unit, so ratios like IPC are coherent).
//    Used with PerfScope for RAII section timing.
//  * process() — standalone counters on the calling thread with inherit=1,
//    so worker threads spawned later are counted too. Benches use this to
//    export whole-run readings as telemetry gauges. (Standalone because the
//    kernel's PERF_FORMAT_GROUP read format does not support inherit.)
//  * child(pid) — standalone inherited counters attached to another process;
//    the bench orchestrator uses this to meter each figure subprocess.
//
// MONTAGE_PERF=0 (strictly validated) forces every factory to return a
// disabled sampler — the deterministic fallback path tests exercise.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace montage::util {

/// The fixed set of events every PerfGroup samples.
enum class PerfEvent : int {
  kCycles = 0,     ///< PERF_COUNT_HW_CPU_CYCLES
  kInstructions,   ///< PERF_COUNT_HW_INSTRUCTIONS
  kLlcMisses,      ///< PERF_COUNT_HW_CACHE_MISSES (last-level cache)
  kTaskClockNs,    ///< PERF_COUNT_SW_TASK_CLOCK (always available on Linux)
  kCount,
};

inline constexpr int kNumPerfEvents = static_cast<int>(PerfEvent::kCount);

/// Canonical snake_case name of event `e` ("cycles", "instructions",
/// "llc_misses", "task_clock_ns") — the JSON keys and gauge names.
const char* perf_event_name(PerfEvent e);

/// One counter's reading. `valid == false` means the event could not be
/// opened (or was never scheduled) and must be reported as `null`, never 0.
struct PerfValue {
  bool valid = false;
  uint64_t value = 0;
};

/// A full sample of the event set at one instant.
struct PerfReading {
  /// Per-event readings, indexed by PerfEvent.
  std::array<PerfValue, kNumPerfEvents> values{};

  /// Reading for event `e`.
  PerfValue get(PerfEvent e) const {
    return values[static_cast<std::size_t>(e)];
  }

  /// True when at least one counter holds a usable value.
  bool any_valid() const;

  /// {"cycles":123,...} with JSON `null` for every invalid counter, so a
  /// consumer can always distinguish "not measured" from "measured zero".
  std::string to_json() const;
};

/// A set of perf_event file descriptors opened together (see file comment
/// for the three modes). Movable, not copyable; closes its fds on destroy.
class PerfGroup {
 public:
  /// Grouped counters on the calling thread (PMU-coherent ratios).
  static PerfGroup self();

  /// Standalone inherited counters on the calling thread and every thread
  /// it creates from now on.
  static PerfGroup process();

  /// Standalone inherited counters attached to process `pid` (and the
  /// threads/children it creates). Requires the target to be ours.
  static PerfGroup child(int pid);

  /// A sampler that never opened anything: available() is false and read()
  /// returns all-invalid. The forced-unavailable path MONTAGE_PERF=0 takes.
  static PerfGroup disabled();

  /// Closes every open counter fd.
  ~PerfGroup();
  /// Move-transfers fd ownership; the source becomes disabled.
  PerfGroup(PerfGroup&& other) noexcept;
  /// Move-assigns fd ownership; the source becomes disabled.
  PerfGroup& operator=(PerfGroup&& other) noexcept;
  PerfGroup(const PerfGroup&) = delete;
  PerfGroup& operator=(const PerfGroup&) = delete;

  /// True when at least one event opened successfully.
  bool available() const;

  /// Zero and enable every open counter.
  void start();

  /// Disable every open counter (readings freeze until the next start()).
  void stop();

  /// Sample every counter. Multiplexed counters are scaled by
  /// time_enabled/time_running; an event that never ran reads invalid.
  PerfReading read() const;

  /// Register one telemetry gauge per *open* counter ("perf.cycles", ...)
  /// sampled at dump time; returns the gauge ids (empty when unavailable).
  /// The group must outlive the registration;
  /// pass the ids to unregister_perf_gauges before destroying it.
  std::vector<int> register_telemetry_gauges() const;

 private:
  PerfGroup() = default;
  void open_all(int pid, bool grouped, bool inherit);

  int fds_[kNumPerfEvents] = {-1, -1, -1, -1};
};

/// Unregister gauges returned by PerfGroup::register_telemetry_gauges.
void unregister_perf_gauges(const std::vector<int>& ids);

/// RAII sampling scope: start()s the group on entry; on exit stop()s it and
/// accumulates the reading into `into` (per-event sums; an event is valid in
/// the sum once any scope contributed a valid reading).
class PerfScope {
 public:
  /// Begin sampling `group` for the lifetime of this scope.
  PerfScope(PerfGroup& group, PerfReading& into);
  /// Stop the group and fold its reading into the accumulator.
  ~PerfScope();
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  PerfGroup& group_;
  PerfReading& into_;
};

}  // namespace montage::util
