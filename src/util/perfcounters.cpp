#include "util/perfcounters.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/env.hpp"
#include "util/telemetry.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace montage::util {

namespace {

constexpr const char* kEventNames[kNumPerfEvents] = {
    "cycles",
    "instructions",
    "llc_misses",
    "task_clock_ns",
};

/// MONTAGE_PERF=0 forces the disabled path; any other value (default 1)
/// leaves availability up to the kernel. Strictly validated like every
/// other observability knob.
bool perf_forced_off() {
  return util::env_u64_checked("MONTAGE_PERF", 1) == 0;
}

#if defined(__linux__)

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

constexpr EventSpec kEventSpecs[kNumPerfEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
};

int sys_perf_event_open(perf_event_attr* attr, int pid, int cpu, int group_fd,
                        unsigned long flags) {
  return static_cast<int>(
      syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags));
}

int open_event(const EventSpec& spec, int pid, int group_fd, bool inherit) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 1;
  attr.inherit = inherit ? 1 : 0;
  attr.exclude_kernel = 1;  // works at perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  // time_enabled/time_running let read() rescale multiplexed counters.
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return sys_perf_event_open(&attr, pid, /*cpu=*/-1, group_fd,
                             PERF_FLAG_FD_CLOEXEC);
}

#endif  // __linux__

}  // namespace

const char* perf_event_name(PerfEvent e) {
  return kEventNames[static_cast<std::size_t>(e)];
}

bool PerfReading::any_valid() const {
  for (const auto& v : values) {
    if (v.valid) return true;
  }
  return false;
}

std::string PerfReading::to_json() const {
  std::string s = "{";
  char buf[64];
  for (int i = 0; i < kNumPerfEvents; ++i) {
    const PerfValue& v = values[static_cast<std::size_t>(i)];
    if (v.valid) {
      std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
                    kEventNames[i], v.value);
    } else {
      std::snprintf(buf, sizeof buf, "%s\"%s\":null", i == 0 ? "" : ",",
                    kEventNames[i]);
    }
    s += buf;
  }
  s += "}";
  return s;
}

void PerfGroup::open_all(int pid, bool grouped, bool inherit) {
#if defined(__linux__)
  if (perf_forced_off()) return;
  // In grouped mode the task clock leads: it is a software event, so it is
  // the member most likely to open even where the hardware PMU is absent.
  int leader = -1;
  if (grouped) {
    const int tc = static_cast<int>(PerfEvent::kTaskClockNs);
    leader = open_event(kEventSpecs[tc], pid, -1, inherit);
    fds_[tc] = leader;
  }
  for (int i = 0; i < kNumPerfEvents; ++i) {
    if (fds_[i] != -1) continue;
    fds_[i] = open_event(kEventSpecs[i], pid, grouped ? leader : -1, inherit);
    // If the leader itself failed, fall back to standalone opens so one
    // broken event never takes the whole set down.
    if (grouped && leader == -1 && fds_[i] != -1) leader = fds_[i];
  }
#else
  (void)pid;
  (void)grouped;
  (void)inherit;
  (void)perf_forced_off();  // still validates the knob off-Linux
#endif
}

PerfGroup PerfGroup::self() {
  PerfGroup g;
  g.open_all(/*pid=*/0, /*grouped=*/true, /*inherit=*/false);
  return g;
}

PerfGroup PerfGroup::process() {
  PerfGroup g;
  g.open_all(/*pid=*/0, /*grouped=*/false, /*inherit=*/true);
  return g;
}

PerfGroup PerfGroup::child(int pid) {
  PerfGroup g;
  g.open_all(pid, /*grouped=*/false, /*inherit=*/true);
  return g;
}

PerfGroup PerfGroup::disabled() { return PerfGroup(); }

PerfGroup::~PerfGroup() {
#if defined(__linux__)
  for (int& fd : fds_) {
    if (fd != -1) close(fd);
    fd = -1;
  }
#endif
}

PerfGroup::PerfGroup(PerfGroup&& other) noexcept {
  for (int i = 0; i < kNumPerfEvents; ++i) {
    fds_[i] = std::exchange(other.fds_[i], -1);
  }
}

PerfGroup& PerfGroup::operator=(PerfGroup&& other) noexcept {
  if (this != &other) {
#if defined(__linux__)
    for (int fd : fds_) {
      if (fd != -1) close(fd);
    }
#endif
    for (int i = 0; i < kNumPerfEvents; ++i) {
      fds_[i] = std::exchange(other.fds_[i], -1);
    }
  }
  return *this;
}

bool PerfGroup::available() const {
  for (int fd : fds_) {
    if (fd != -1) return true;
  }
  return false;
}

void PerfGroup::start() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd == -1) continue;
    ioctl(fd, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
  }
#endif
}

void PerfGroup::stop() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd == -1) continue;
    ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
  }
#endif
}

PerfReading PerfGroup::read() const {
  PerfReading r;
#if defined(__linux__)
  for (int i = 0; i < kNumPerfEvents; ++i) {
    const int fd = fds_[i];
    if (fd == -1) continue;
    // read_format: value, time_enabled, time_running.
    uint64_t data[3] = {0, 0, 0};
    if (::read(fd, data, sizeof data) != static_cast<ssize_t>(sizeof data)) {
      continue;
    }
    const uint64_t value = data[0];
    const uint64_t enabled = data[1];
    const uint64_t running = data[2];
    if (enabled > 0 && running == 0) continue;  // never scheduled: no data
    uint64_t scaled = value;
    if (running > 0 && running < enabled) {
      scaled = static_cast<uint64_t>(
          static_cast<double>(value) *
          (static_cast<double>(enabled) / static_cast<double>(running)));
    }
    r.values[static_cast<std::size_t>(i)] = PerfValue{true, scaled};
  }
#endif
  return r;
}

std::vector<int> PerfGroup::register_telemetry_gauges() const {
  std::vector<int> ids;
  for (int i = 0; i < kNumPerfEvents; ++i) {
    if (fds_[i] == -1) continue;
    const PerfEvent e = static_cast<PerfEvent>(i);
    ids.push_back(telemetry::register_gauge(
        std::string("perf.") + kEventNames[i],
        e == PerfEvent::kTaskClockNs ? "ns" : "events",
        [this, e] { return read().get(e).value; }));
  }
  return ids;
}

void unregister_perf_gauges(const std::vector<int>& ids) {
  for (int id : ids) telemetry::unregister_gauge(id);
}

PerfScope::PerfScope(PerfGroup& group, PerfReading& into)
    : group_(group), into_(into) {
  group_.start();
}

PerfScope::~PerfScope() {
  group_.stop();
  const PerfReading r = group_.read();
  for (int i = 0; i < kNumPerfEvents; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!r.values[idx].valid) continue;
    into_.values[idx].valid = true;
    into_.values[idx].value += r.values[idx].value;
  }
}

}  // namespace montage::util
