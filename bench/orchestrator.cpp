// Bench orchestrator: runs a subset of the figure benches as subprocesses
// and writes their CSV rows, in order, to one file under a provenance header
// (the results/full_run.csv format).
//
//   orchestrator --figures=all --csv=results/full_run.csv
//   orchestrator --figures=4,9 --csv=smoke.csv
//
// Flags:
//   --figures=LIST  comma list of tokens: 4..15, sec64, or "all" (default)
//   --csv=PATH      the output file (required)
//   --list          print the bench registry and exit
//
// All MONTAGE_BENCH_* / MONTAGE_* env knobs pass through to the children,
// and the header records the git SHA and the bench knobs.
// Exit status: 0 when every requested bench ran and exited 0, 1 otherwise,
// 2 on a usage error.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace montage::bench {
namespace {

struct BenchSpec {
  const char* token;   // --figures token
  const char* binary;  // executable name next to the orchestrator
};

// The figure benches (fig4–fig14, the networked-server fig15 and the §6.4
// recovery table).
constexpr BenchSpec kBenches[] = {
    {"4", "fig4_design_hashmap"},
    {"5", "fig5_design_queue"},
    {"6", "fig6_queues"},
    {"7", "fig7_hashmaps"},
    {"8", "fig8_payload"},
    {"9", "fig9_sync"},
    {"10", "fig10_memcached"},
    {"11", "fig11_graph"},
    {"12", "fig12_graph_recovery"},
    {"13", "fig13_recovery_robustness"},
    {"14", "fig14_liveness"},
    {"15", "fig15_server"},
    {"sec64", "sec64_recovery"},
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

/// Whether `line` is a "figure,series,x,value" row (not the per-binary
/// header) with a numeric value.
bool is_csv_row(const std::string& line) {
  const std::size_t c1 = line.find(',');
  if (c1 == std::string::npos || line.compare(0, c1, "figure") == 0) {
    return false;
  }
  const std::size_t c2 = line.find(',', c1 + 1);
  if (c2 == std::string::npos) return false;
  const std::size_t c3 = line.find(',', c2 + 1);
  if (c3 == std::string::npos || line.find(',', c3 + 1) != std::string::npos) {
    return false;
  }
  const char* v = line.c_str() + c3 + 1;
  char* end = nullptr;
  std::strtod(v, &end);
  return end != v && *end == '\0';
}

/// Run one bench binary as a subprocess, append its CSV rows to `rows`,
/// and return its exit code (128 when it died on a signal).
int run_bench(const BenchSpec& spec, const std::string& dir,
              std::vector<std::string>& rows) {
  const std::string path = dir + "/" + spec.binary;
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    std::fprintf(stderr, "orchestrator: pipe: %s\n", std::strerror(errno));
    return -1;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "orchestrator: fork: %s\n", std::strerror(errno));
    return -1;
  }
  if (pid == 0) {
    close(out_pipe[0]);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[1]);
    execl(path.c_str(), spec.binary, static_cast<char*>(nullptr));
    std::fprintf(stderr, "orchestrator: exec %s: %s\n", path.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(out_pipe[1]);

  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = read(out_pipe[0], buf, sizeof buf)) > 0) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  close(out_pipe[0]);
  int status = 0;
  waitpid(pid, &status, 0);

  std::size_t start = 0;
  while (start < output.size()) {
    std::size_t end = output.find('\n', start);
    if (end == std::string::npos) end = output.size();
    std::string line = output.substr(start, end - start);
    start = end + 1;
    if (is_csv_row(line)) rows.push_back(std::move(line));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

int main_impl(int argc, char** argv) {
  std::string figures = "all";
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--figures=", 0) == 0) {
      figures = arg.substr(10);
    } else if (arg.rfind("--csv=", 0) == 0) {
      csv_path = arg.substr(6);
    } else if (arg == "--list") {
      for (const BenchSpec& b : kBenches) {
        std::printf("%-6s %s\n", b.token, b.binary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: orchestrator --csv=PATH [--figures=4,9|all] [--list]\n"
          "Runs figure benches as subprocesses and writes their CSV rows to\n"
          "PATH under a provenance header (git SHA, bench knobs).\n");
      return 0;
    } else {
      std::fprintf(stderr, "orchestrator: unknown argument '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (csv_path.empty()) {
    std::fprintf(stderr, "orchestrator: --csv=PATH is required\n");
    return 2;
  }

  // Resolve the token list against the registry.
  std::vector<const BenchSpec*> selected;
  if (figures == "all") {
    for (const BenchSpec& b : kBenches) selected.push_back(&b);
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
  std::vector<std::string> rows;
  bool all_ok = true;
  for (const BenchSpec* spec : selected) {
    std::fprintf(stderr, "orchestrator: running %s...\n", spec->binary);
    const int rc = run_bench(*spec, dir, rows);
    if (rc != 0) {
      std::fprintf(stderr, "orchestrator: %s exited %d\n", spec->binary, rc);
      all_ok = false;
    }
  }

  FILE* csv = std::fopen(csv_path.c_str(), "w");
  if (csv == nullptr) {
    std::fprintf(stderr, "orchestrator: cannot write %s: %s\n",
                 csv_path.c_str(), std::strerror(errno));
    return 1;
  }
  const std::string sha = capture_line("git rev-parse HEAD 2>/dev/null");
  std::fprintf(csv,
               "# generated by bench/orchestrator --figures=%s\n"
               "# git_sha=%s seconds=%g threads=%d scale=%g flush_ns=%llu "
               "fence_ns=%llu\n"
               "figure,series,x,value\n",
               figures.c_str(), sha.empty() ? "unknown" : sha.c_str(),
               cfg.seconds, cfg.max_threads, cfg.scale,
               static_cast<unsigned long long>(cfg.flush_ns),
               static_cast<unsigned long long>(cfg.fence_ns));
  for (const std::string& row : rows) std::fprintf(csv, "%s\n", row.c_str());
  std::fclose(csv);
  std::fprintf(stderr, "orchestrator: wrote %s\n", csv_path.c_str());
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace montage::bench

int main(int argc, char** argv) {
  return montage::bench::main_impl(argc, argv);
}
