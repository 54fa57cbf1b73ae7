// Regression gate: compares two BENCH_<sha>.json files produced by
// bench/orchestrator and prints a per-series verdict table.
//
//   compare BENCH_old.json BENCH_new.json [--threshold=0.10] [--rates-only]
//
// For every series present in both files, points are matched by x and the
// worst relative delta decides the verdict. Series whose name ends in
// `_ns`, `_ms`, or `_s` are latencies/durations (lower is better), and
// series ending in `lines_per_op` are persistence costs (also lower is
// better); all others are rates (higher is better). --rates-only excludes
// the duration series from gating entirely — tail percentiles from short
// smoke runs sit on a handful of power-of-two-bucket samples, where a
// single bucket shift already reads as a 2x change, so CI smoke gates
// compare throughput only. `lines_per_op` series STAY gated under
// --rates-only: lines flushed per op is a deterministic count ratio, not a
// bucketed tail, so a change there is a real change in write-back cost.
// Verdicts:
//   OK        within the noise threshold
//   IMPROVED  moved beyond the threshold in the good direction
//   REGRESSED moved beyond the threshold in the bad direction
//   NEW/GONE  series present in only one file (informational)
// Exit status: 1 iff at least one series REGRESSED, 2 on usage or parse
// errors, 0 otherwise — suitable for CI gating.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/json.hpp"

namespace montage::bench {
namespace {

using json::Value;

// One series: x -> value, insertion-ordered by first appearance.
struct Series {
  std::vector<std::pair<std::string, double>> points;
  const double* find(const std::string& x) const {
    for (const auto& [px, v] : points) {
      if (px == x) return &v;
    }
    return nullptr;
  }
};

using SeriesMap = std::map<std::string, Series>;

bool ends_with(const std::string& name, const char* suf) {
  const std::size_t n = std::strlen(suf);
  return name.size() >= n && name.compare(name.size() - n, n, suf) == 0;
}

/// True when the series measures time — excluded by --rates-only.
bool duration_series(const std::string& name) {
  return ends_with(name, "_ns") || ends_with(name, "_ms") ||
         ends_with(name, "_s");
}

/// True when the series measures cache lines flushed per operation — lower
/// is better, and NOT excluded by --rates-only (see the header comment).
bool lines_series(const std::string& name) {
  return ends_with(name, "lines_per_op");
}

/// True when smaller values are the good direction for this series.
bool lower_is_better(const std::string& name) {
  return duration_series(name) || lines_series(name);
}

/// Load a BENCH JSON file and flatten benches.*.series into one map keyed
/// "figure/series". Throws std::runtime_error on IO or schema problems.
SeriesMap load_bench(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::stringstream ss;
  ss << in.rdbuf();
  const Value root = Value::parse(ss.str());
  const Value* schema = root.find("schema");
  if (schema == nullptr || schema->type != Value::Type::kString) {
    throw std::runtime_error(path + ": missing \"schema\" field");
  }
  if (schema->str.rfind("montage-bench/", 0) != 0) {
    throw std::runtime_error(path + ": unknown schema '" + schema->str + "'");
  }
  const Value* benches = root.find("benches");
  if (benches == nullptr || benches->type != Value::Type::kObject) {
    throw std::runtime_error(path + ": missing \"benches\" object");
  }
  SeriesMap out;
  for (const auto& [bench_name, entry] : benches->object) {
    const Value* series = entry.find("series");
    if (series == nullptr || series->type != Value::Type::kObject) continue;
    for (const auto& [key, arr] : series->object) {
      Series& s = out[key];
      for (const Value& point : arr.array) {
        const Value* x = point.find("x");
        const Value* v = point.find("v");
        if (x == nullptr || v == nullptr) continue;
        s.points.emplace_back(
            x->type == Value::Type::kString ? x->str : x->dump(), v->number);
      }
    }
  }
  return out;
}

struct Verdict {
  std::string series;
  const char* verdict;  // OK / IMPROVED / REGRESSED / NEW / GONE
  double worst_delta = 0.0;  // signed, in the series' own direction
  int points = 0;
};

int main_impl(int argc, char** argv) {
  std::string old_path, new_path;
  double threshold = 0.10;
  bool rates_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rates-only") {
      rates_only = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      char* end = nullptr;
      threshold = std::strtod(arg.c_str() + 12, &end);
      if (end == nullptr || *end != '\0' || threshold < 0.0) {
        std::fprintf(stderr, "compare: bad --threshold value in '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: compare OLD.json NEW.json [--threshold=0.10] "
          "[--rates-only]\n"
          "Compares two orchestrator BENCH files; exits 1 iff any series\n"
          "regressed beyond the threshold (relative), 2 on errors.\n"
          "--rates-only skips duration (_ns/_ms/_s) series; lines_per_op\n"
          "series stay gated (lower is better).\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "compare: unknown flag '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    } else if (old_path.empty()) {
      old_path = arg;
    } else if (new_path.empty()) {
      new_path = arg;
    } else {
      std::fprintf(stderr, "compare: too many positional arguments\n");
      return 2;
    }
  }
  if (old_path.empty() || new_path.empty()) {
    std::fprintf(stderr, "usage: compare OLD.json NEW.json [--threshold=T]\n");
    return 2;
  }

  SeriesMap olds, news;
  try {
    olds = load_bench(old_path);
    news = load_bench(new_path);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "compare: %s\n", ex.what());
    return 2;
  }

  std::vector<Verdict> verdicts;
  for (const auto& [key, old_series] : olds) {
    const bool lower = lower_is_better(key);
    if (rates_only && duration_series(key)) continue;
    auto it = news.find(key);
    if (it == news.end()) {
      verdicts.push_back({key, "GONE", 0.0, 0});
      continue;
    }
    Verdict v{key, "OK", 0.0, 0};
    // worst_delta is normalized so that negative always means "got worse".
    for (const auto& [x, old_val] : old_series.points) {
      const double* new_val = it->second.find(x);
      if (new_val == nullptr || old_val == 0.0) continue;
      double rel = (*new_val - old_val) / old_val;
      if (lower) rel = -rel;  // shrinking a latency is an improvement
      ++v.points;
      if (v.points == 1 || rel < v.worst_delta) v.worst_delta = rel;
    }
    if (v.points > 0 && v.worst_delta < -threshold) {
      v.verdict = "REGRESSED";
    } else if (v.points > 0 && v.worst_delta > threshold) {
      // Even the worst point improved beyond the threshold.
      v.verdict = "IMPROVED";
    }
    verdicts.push_back(v);
  }
  for (const auto& [key, series] : news) {
    if (rates_only && duration_series(key)) continue;
    if (olds.find(key) == olds.end()) {
      verdicts.push_back({key, "NEW", 0.0,
                          static_cast<int>(series.points.size())});
    }
  }

  std::printf("%-44s %-10s %9s %7s\n", "series", "verdict", "worst", "pts");
  int regressions = 0;
  for (const Verdict& v : verdicts) {
    if (std::strcmp(v.verdict, "REGRESSED") == 0) ++regressions;
    if (v.points > 0) {
      std::printf("%-44s %-10s %+8.1f%% %7d\n", v.series.c_str(), v.verdict,
                  v.worst_delta * 100.0, v.points);
    } else {
      std::printf("%-44s %-10s %9s %7s\n", v.series.c_str(), v.verdict, "-",
                  "-");
    }
  }
  std::printf("compare: %d series, %d regressed (threshold %.0f%%)\n",
              static_cast<int>(verdicts.size()), regressions,
              threshold * 100.0);
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace montage::bench

int main(int argc, char** argv) {
  return montage::bench::main_impl(argc, argv);
}
