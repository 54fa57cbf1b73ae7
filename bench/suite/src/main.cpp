// montage_bench: the Montage benchmark suite.
//
//   montage_bench --workload=<name>|all --out=PATH [--seed=N] [--seconds=S]
//                 [--trace=PATH] [--run-dir=DIR]
//
// Runs queue_1k, map_write_1k, map_read_16 and kv_server (README.md says
// why each exists), prints one line per metric as
// `workload metric value unit`, writes the same data as JSON to --out, and
// exits 1 if any correctness check failed. --trace additionally records
// bench-side spans and a probe phase, and writes the spans to PATH as Chrome
// trace-event JSON.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "suite.hpp"
#include "trace.hpp"

namespace {

using suite::WorkloadResult;

struct Workload {
  const char* name;
  WorkloadResult (*run)(const suite::RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"queue_1k", suite::run_queue_1k},
    {"map_write_1k", suite::run_map_write_1k},
    {"map_read_16", suite::run_map_read_16},
    {"kv_server", suite::run_kv_server},
};

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  std::fprintf(stderr,
               "usage: %s --workload=<queue_1k|map_write_1k|map_read_16|"
               "kv_server|all> --out=PATH\n"
               "       [--seed=N] [--seconds=S (default 22)] [--trace=PATH] "
               "[--run-dir=DIR]\n",
               argv0);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool write_json(const std::string& path, const suite::RunOptions& o,
                const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool all_ok = true;
  for (const auto& r : results) all_ok = all_ok && r.correct();
  std::fprintf(f,
               "{\"suite\":\"montage_bench\",\"seed\":%" PRIu64
               ",\"seconds\":%.17g,\"trace\":%s,\"correct\":%s,\"workloads\":[",
               o.seed, o.seconds, o.tracer != nullptr ? "true" : "false",
               all_ok ? "true" : "false");
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"correct\":%s,\"attempted\":%" PRIu64
                 ",\"failed\":%" PRIu64 ",\"checks\":[",
                 w == 0 ? "" : ",", r.name.c_str(), r.correct() ? "true" : "false",
                 r.attempted, r.failed);
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
      const auto& c = r.checks[i];
      std::fprintf(f, "%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                   i == 0 ? "" : ",", c.name.c_str(), c.ok ? "true" : "false",
                   json_escape(c.detail).c_str());
    }
    std::fprintf(f, "],\"metrics\":{");
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const auto& m = r.metrics[i];
      std::fprintf(f, "%s\n\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"kind\":\"%s\"",
                   i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(),
                   m.e2e ? "e2e" : "layer");
      if (m.has_quartiles) std::fprintf(f, ",\"q1\":%.17g,\"q3\":%.17g", m.q1, m.q3);
      if (m.log2_resolution) std::fprintf(f, ",\"resolution\":\"log2\"");
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  suite::RunOptions o;
  std::string workload, out, trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (flag == "--help" || flag == "-h") {
      usage(argv[0], "");
    } else if (eq == std::string::npos || val.empty()) {
      usage(argv[0], "expected --flag=value, got '" + arg + "'");
    } else if (flag == "--workload") {
      workload = val;
    } else if (flag == "--out") {
      out = val;
    } else if (flag == "--trace") {
      trace_path = val;
    } else if (flag == "--run-dir") {
      o.run_dir = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val[0] == '-') usage(argv[0], "bad --seed '" + val + "'");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600)) {
        usage(argv[0], "--seconds must be in (0, 600]");
      }
    } else {
      usage(argv[0], "unknown flag '" + flag + "'");
    }
  }
  if (workload.empty() || out.empty()) usage(argv[0], "--workload and --out are required");
  std::vector<Workload> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(w);
  }
  if (selected.empty()) usage(argv[0], "unknown workload '" + workload + "'");
  if (o.run_dir.empty()) {
    o.run_dir = std::filesystem::absolute(out).parent_path().string();
  }
  std::error_code ec;
  std::filesystem::create_directories(o.run_dir, ec);

  suite::Tracer tracer;
  if (!trace_path.empty()) o.tracer = &tracer;
  std::vector<WorkloadResult> results;
  int rc = 0;
  for (const Workload& w : selected) {
    std::fprintf(stderr, "montage_bench: running %s (seed %" PRIu64 ", %.3g s)\n",
                 w.name, o.seed, o.seconds);
    results.push_back(w.run(o));
    const WorkloadResult& r = results.back();
    for (const auto& m : r.metrics) {
      std::printf("%s %s %.6g %s%s\n", r.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str(), m.log2_resolution ? " (log2 resolution)" : "");
    }
    for (const auto& c : r.checks) {
      std::printf("# %s check %s: %s (%s)\n", r.name.c_str(), c.name.c_str(),
                  c.ok ? "ok" : "FAILED", c.detail.c_str());
    }
    std::fflush(stdout);
    if (!r.correct()) rc = 1;
  }
  if (!write_json(out, o, results)) {
    std::fprintf(stderr, "montage_bench: cannot write %s\n", out.c_str());
    rc = 2;
  }
  if (o.tracer != nullptr && !tracer.write(trace_path)) {
    std::fprintf(stderr, "montage_bench: cannot write %s\n", trace_path.c_str());
    rc = 2;
  }
  return rc;
}
