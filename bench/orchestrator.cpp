// Bench orchestrator: runs a subset of the figure benches as subprocesses
// and merges everything they report — CSV throughput/latency rows, the
// --stats-json telemetry registry, hardware perf-counter readings taken by
// attaching to each child, and an environment fingerprint (git SHA, host,
// Config knobs) — into one schema-versioned BENCH_<git-sha>.json.
//
//   orchestrator --figures=4,9 --out=BENCH_test.json
//   orchestrator --figures=all --csv=results/full_run.csv
//
// Flags:
//   --figures=LIST  comma list of tokens: 4..14, sec64, micro, or "all"
//                   (default all; "all" covers every CSV bench, i.e. not
//                   micro — the gbench binary speaks its own format and is
//                   only run when named explicitly)
//   --out=PATH      output JSON path (default BENCH_<git-sha>.json in cwd)
//   --csv=PATH      additionally write the merged CSV rows with a
//                   provenance header (the results/full_run.csv format)
//   --list          print the bench registry and exit
//
// All MONTAGE_BENCH_* / MONTAGE_* env knobs pass through to the children,
// so one orchestrator invocation is reproducible from its fingerprint.
// Exit status: 0 when every requested bench ran and exited 0, 1 otherwise.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/json.hpp"

namespace montage::bench {
namespace {

constexpr const char* kSchema = "montage-bench/1";

struct BenchSpec {
  const char* token;    // --figures token
  const char* binary;   // executable name next to the orchestrator
  bool stats;           // supports --stats-json + CSV output
  bool in_all;          // included in --figures=all
};

// The figure benches (fig4–fig14, the networked-server fig15, the §6.4
// recovery table, and the gbench primitive microbench).
constexpr BenchSpec kBenches[] = {
    {"4", "fig4_design_hashmap", true, true},
    {"5", "fig5_design_queue", true, true},
    {"6", "fig6_queues", true, true},
    {"7", "fig7_hashmaps", true, true},
    {"8", "fig8_payload", true, true},
    {"9", "fig9_sync", true, true},
    {"10", "fig10_memcached", true, true},
    {"11", "fig11_graph", true, true},
    {"12", "fig12_graph_recovery", true, true},
    {"13", "fig13_recovery_robustness", true, true},
    {"14", "fig14_liveness", true, true},
    {"15", "fig15_server", true, true},
    {"sec64", "sec64_recovery", true, true},
    {"micro", "micro_primitives", false, false},
};

struct CsvRow {
  std::string figure, series, x;
  double value;
};

struct BenchRun {
  const BenchSpec* spec = nullptr;
  int exit_code = -1;
  double elapsed_s = 0.0;
  util::PerfReading perf;
  bool perf_attached = false;
  std::string stats_json;      // raw registry line ("" when absent)
  std::vector<CsvRow> rows;
  std::vector<std::string> raw_lines;  // non-CSV, non-JSON output (micro)
};

/// Directory containing this executable (and its sibling bench binaries).
std::string self_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

/// First line of `cmd`'s stdout, or "" on any failure.
std::string capture_line(const char* cmd) {
  FILE* p = popen(cmd, "r");
  if (p == nullptr) return "";
  char buf[256];
  std::string out;
  if (fgets(buf, sizeof buf, p) != nullptr) {
    out = buf;
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
  }
  pclose(p);
  return out;
}

/// Parse "figure,series,x,value" (header excluded); false for other lines.
bool parse_csv_row(const std::string& line, CsvRow& row) {
  std::size_t c1 = line.find(',');
  if (c1 == std::string::npos) return false;
  std::size_t c2 = line.find(',', c1 + 1);
  if (c2 == std::string::npos) return false;
  std::size_t c3 = line.find(',', c2 + 1);
  if (c3 == std::string::npos) return false;
  if (line.find(',', c3 + 1) != std::string::npos) return false;
  row.figure = line.substr(0, c1);
  row.series = line.substr(c1 + 1, c2 - c1 - 1);
  row.x = line.substr(c2 + 1, c3 - c2 - 1);
  const std::string v = line.substr(c3 + 1);
  if (row.figure == "figure") return false;  // the per-binary header
  char* end = nullptr;
  row.value = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0';
}

/// Run one bench binary as a subprocess with perf counters attached;
/// captures and classifies its stdout.
BenchRun run_bench(const BenchSpec& spec, const std::string& dir) {
  BenchRun run;
  run.spec = &spec;
  const std::string path = dir + "/" + spec.binary;

  int out_pipe[2];
  int sync_pipe[2];  // child waits for one byte so counters attach first
  if (pipe(out_pipe) != 0 || pipe(sync_pipe) != 0) {
    std::fprintf(stderr, "orchestrator: pipe: %s\n", std::strerror(errno));
    return run;
  }
  const uint64_t t0 = util::now_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "orchestrator: fork: %s\n", std::strerror(errno));
    return run;
  }
  if (pid == 0) {
    close(out_pipe[0]);
    close(sync_pipe[1]);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[1]);
    char byte;
    while (read(sync_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    close(sync_pipe[0]);
    if (spec.stats) {
      execl(path.c_str(), spec.binary, "--stats-json",
            static_cast<char*>(nullptr));
    } else {
      execl(path.c_str(), spec.binary, static_cast<char*>(nullptr));
    }
    std::fprintf(stderr, "orchestrator: exec %s: %s\n", path.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(out_pipe[1]);
  close(sync_pipe[0]);

  // Attach counters while the child is parked before exec, then release it.
  util::PerfGroup perf = util::PerfGroup::child(static_cast<int>(pid));
  run.perf_attached = perf.available();
  perf.start();
  (void)!write(sync_pipe[1], "g", 1);
  close(sync_pipe[1]);

  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = read(out_pipe[0], buf, sizeof buf)) > 0) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  close(out_pipe[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  perf.stop();
  run.perf = perf.read();
  run.elapsed_s = util::to_seconds(util::now_ns() - t0);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;

  std::size_t start = 0;
  while (start < output.size()) {
    std::size_t end = output.find('\n', start);
    if (end == std::string::npos) end = output.size();
    const std::string line = output.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    CsvRow row;
    if (parse_csv_row(line, row)) {
      run.rows.push_back(row);
    } else if (line.front() == '{' && line.back() == '}') {
      run.stats_json = line;
    } else if (row.figure != "figure") {
      run.raw_lines.push_back(line);
    }
  }
  return run;
}

/// The environment fingerprint object (git identity, host, knobs).
json::Value fingerprint(const Config& cfg) {
  json::Value fp(json::Value::Type::kObject);
  const std::string sha = capture_line("git rev-parse HEAD 2>/dev/null");
  fp.set("git_sha", sha.empty() ? json::Value{} : json::Value::of(sha));
  const std::string dirty =
      capture_line("git status --porcelain 2>/dev/null | head -1");
  fp.set("git_dirty", json::Value::of(!dirty.empty()));
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  fp.set("hostname", json::Value::of(std::string(host)));

  json::Value knobs(json::Value::Type::kObject);
  knobs.set("seconds", json::Value::of(cfg.seconds));
  knobs.set("max_threads", json::Value::of(static_cast<double>(cfg.max_threads)));
  knobs.set("scale", json::Value::of(cfg.scale));
  knobs.set("flush_ns", json::Value::of(static_cast<double>(cfg.flush_ns)));
  knobs.set("fence_ns", json::Value::of(static_cast<double>(cfg.fence_ns)));
  knobs.set("lat_sample", json::Value::of(
                              static_cast<double>(latency_sample_period())));
  knobs.set("series_filter",
            json::Value::of(util::env_str("MONTAGE_BENCH_SERIES", "")));
  fp.set("config", std::move(knobs));
  return fp;
}

/// BENCH JSON entry for one completed bench run.
json::Value bench_entry(const BenchRun& run) {
  json::Value e(json::Value::Type::kObject);
  e.set("binary", json::Value::of(std::string(run.spec->binary)));
  e.set("exit_code", json::Value::of(static_cast<double>(run.exit_code)));
  e.set("elapsed_s", json::Value::of(run.elapsed_s));

  // Perf counters: explicit null per event the host could not measure.
  e.set("perf", json::Value::parse(run.perf.to_json()));

  if (!run.stats_json.empty()) {
    try {
      e.set("stats", json::Value::parse(run.stats_json));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "orchestrator: %s stats line unparsable: %s\n",
                   run.spec->binary, ex.what());
      e.set("stats", json::Value{});
    }
  } else {
    e.set("stats", json::Value{});
  }

  // Series map: "<figure>/<series>" -> [{x, v}, ...].
  json::Value series(json::Value::Type::kObject);
  for (const CsvRow& row : run.rows) {
    const std::string key = row.figure + "/" + row.series;
    const json::Value* existing = series.find(key);
    json::Value arr = existing != nullptr
                          ? *existing
                          : json::Value(json::Value::Type::kArray);
    json::Value point(json::Value::Type::kObject);
    point.set("x", json::Value::of(row.x));
    point.set("v", json::Value::of(row.value));
    arr.array.push_back(std::move(point));
    series.set(key, std::move(arr));
  }
  e.set("series", std::move(series));
  return e;
}

int main_impl(int argc, char** argv) {
  std::string figures = "all";
  std::string out_path;
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--figures=", 0) == 0) {
      figures = arg.substr(10);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--csv=", 0) == 0) {
      csv_path = arg.substr(6);
    } else if (arg == "--list") {
      for (const BenchSpec& b : kBenches) {
        std::printf("%-6s %s%s\n", b.token, b.binary,
                    b.in_all ? "" : "  (only when named)");
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: orchestrator [--figures=4,9|all] [--out=PATH] [--csv=PATH] "
          "[--list]\nRuns figure benches as subprocesses and merges CSV, "
          "telemetry, perf\ncounters, and an environment fingerprint into one "
          "BENCH_<git-sha>.json.\n");
      return 0;
    } else {
      std::fprintf(stderr, "orchestrator: unknown argument '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  // Resolve the token list against the registry.
  std::vector<const BenchSpec*> selected;
  if (figures == "all") {
    for (const BenchSpec& b : kBenches) {
      if (b.in_all) selected.push_back(&b);
    }
  } else {
    std::size_t start = 0;
    while (start <= figures.size()) {
      std::size_t end = figures.find(',', start);
      if (end == std::string::npos) end = figures.size();
      const std::string tok = figures.substr(start, end - start);
      start = end + 1;
      if (tok.empty()) continue;
      const BenchSpec* found = nullptr;
      for (const BenchSpec& b : kBenches) {
        if (tok == b.token || tok == b.binary) found = &b;
      }
      if (found == nullptr) {
        std::fprintf(stderr,
                     "orchestrator: unknown figure '%s' (see --list)\n",
                     tok.c_str());
        return 2;
      }
      selected.push_back(found);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "orchestrator: no benches selected\n");
    return 2;
  }

  const Config cfg = Config::from_env();
  const std::string dir = self_dir();
  json::Value root(json::Value::Type::kObject);
  root.set("schema", json::Value::of(std::string(kSchema)));
  root.set("created_unix",
           json::Value::of(static_cast<double>(std::time(nullptr))));
  json::Value fp = fingerprint(cfg);
  if (out_path.empty()) {
    const json::Value* sha = fp.find("git_sha");
    std::string tag = (sha != nullptr && !sha->is_null())
                          ? sha->str.substr(0, 12)
                          : "unknown";
    out_path = "BENCH_" + tag + ".json";
  }
  root.set("fingerprint", std::move(fp));

  json::Value benches(json::Value::Type::kObject);
  std::vector<BenchRun> runs;
  bool all_ok = true;
  for (const BenchSpec* spec : selected) {
    std::fprintf(stderr, "orchestrator: running %s...\n", spec->binary);
    BenchRun run = run_bench(*spec, dir);
    if (run.exit_code != 0) {
      std::fprintf(stderr, "orchestrator: %s exited %d\n", spec->binary,
                   run.exit_code);
      all_ok = false;
    }
    if (!run.perf_attached) {
      std::fprintf(stderr,
                   "orchestrator: %s: perf counters unavailable (reported as "
                   "null)\n",
                   spec->binary);
    }
    benches.set(spec->binary, bench_entry(run));
    runs.push_back(std::move(run));
  }
  root.set("benches", std::move(benches));

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "orchestrator: cannot write %s: %s\n",
                 out_path.c_str(), std::strerror(errno));
    return 1;
  }
  const std::string doc = root.dump();
  std::fwrite(doc.data(), 1, doc.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::fprintf(stderr, "orchestrator: wrote %s\n", out_path.c_str());

  if (!csv_path.empty()) {
    FILE* csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "orchestrator: cannot write %s: %s\n",
                   csv_path.c_str(), std::strerror(errno));
      return 1;
    }
    const json::Value* sha = root.find("fingerprint")->find("git_sha");
    std::fprintf(csv,
                 "# generated by bench/orchestrator --figures=%s\n"
                 "# git_sha=%s seconds=%g threads=%d scale=%g flush_ns=%llu "
                 "fence_ns=%llu\n"
                 "figure,series,x,value\n",
                 figures.c_str(),
                 (sha != nullptr && !sha->is_null()) ? sha->str.c_str()
                                                     : "unknown",
                 cfg.seconds, cfg.max_threads, cfg.scale,
                 static_cast<unsigned long long>(cfg.flush_ns),
                 static_cast<unsigned long long>(cfg.fence_ns));
    for (const BenchRun& run : runs) {
      for (const CsvRow& row : run.rows) {
        std::fprintf(csv, "%s,%s,%s,%.4f\n", row.figure.c_str(),
                     row.series.c_str(), row.x.c_str(), row.value);
      }
    }
    std::fclose(csv);
    std::fprintf(stderr, "orchestrator: wrote %s\n", csv_path.c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace montage::bench

int main(int argc, char** argv) {
  return montage::bench::main_impl(argc, argv);
}
