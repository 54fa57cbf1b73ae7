#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace suite {

void Tracer::begin_workload(const std::string& name) {
  std::lock_guard lk(m_);
  workloads_.push_back(name);
}

void Tracer::add(const Span& s) {
  std::lock_guard lk(m_);
  spans_.emplace_back(static_cast<int>(workloads_.size()), s);
}

void Tracer::add(const std::vector<Span>& spans, uint64_t dropped) {
  std::lock_guard lk(m_);
  const int w = static_cast<int>(workloads_.size());
  for (const Span& s : spans) spans_.emplace_back(w, s);
  dropped_ += dropped;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard lk(m_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto& [w, s] : spans_) origin = std::min(origin, s.t0_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  // Metadata: one trace process per workload, named after it. Names come
  // from the suite's fixed catalog, so they need no JSON escaping.
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", i + 1, workloads_[i].c_str());
    first = false;
  }
  for (const auto& [w, s] : spans_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%d,\"tid\":%" PRIu32
                 ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
                 first ? "" : ",\n", s.name, s.cat,
                 static_cast<double>(s.t0_ns - origin) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, w, s.tid, s.id,
                 s.parent);
    first = false;
  }
  std::fprintf(f,
               "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%zu,"
               "\"dropped_spans\":%" PRIu64 "}}\n",
               spans_.size(), dropped_);
  return std::fclose(f) == 0;
}

}  // namespace suite
