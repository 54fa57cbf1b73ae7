#include "util/promexpo.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>

namespace montage::promexpo {

namespace {

// Append one formatted chunk to `out` (all rendering funnels through here so
// the reserve strategy lives in one place).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

// Escape a HELP text / label value for the exposition format.
std::string escape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string sanitize(std::string_view dotted) {
  std::string out;
  out.reserve(dotted.size());
  for (char c : dotted) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Counter family name: metric_name plus a `_total` suffix unless the dotted
// name already carries one (nvm.lines_flushed_total must not double up).
std::string counter_family(std::string_view dotted) {
  std::string fam = metric_name(dotted);
  if (!ends_with(fam, "_total")) fam += "_total";
  return fam;
}

void render_histogram(std::string& out, const telemetry::HistogramValue& h) {
  const std::string fam = metric_name(h.name);
  appendf(out, "# HELP %s montage histogram %s (%s)\n# TYPE %s histogram\n",
          fam.c_str(), escape_label(h.name).c_str(), h.unit, fam.c_str());
  uint64_t cum = 0;
  for (int b = 0; b < telemetry::kHistBuckets; ++b) {
    cum += h.buckets[b];
    if (b == telemetry::kHistBuckets - 1) {
      appendf(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", fam.c_str(), cum);
    } else {
      appendf(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", fam.c_str(),
              telemetry::hist_bucket_upper(b), cum);
    }
  }
  appendf(out, "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n", fam.c_str(),
          h.sum, fam.c_str(), h.count);
}

}  // namespace

Snapshot capture(uint64_t t_ns) {
  return Snapshot{t_ns, telemetry::counters_snapshot(),
                  telemetry::histograms_snapshot()};
}

std::string metric_name(std::string_view dotted) {
  return "montage_" + sanitize(dotted);
}

RateWindow::RateWindow(std::size_t capacity)
    : cap_(capacity < 2 ? 2 : capacity) {}

void RateWindow::push(Snapshot s) {
  if (!snaps_.empty() && s.t_ns <= snaps_.back().t_ns) return;
  snaps_.push_back(std::move(s));
  while (snaps_.size() > cap_) snaps_.pop_front();
}

bool RateWindow::ready() const {
  return snaps_.size() >= 2 && snaps_.back().t_ns > snaps_.front().t_ns;
}

double RateWindow::span_seconds() const {
  if (!ready()) return 0.0;
  return static_cast<double>(snaps_.back().t_ns - snaps_.front().t_ns) / 1e9;
}

double RateWindow::counter_rate(std::string_view name) const {
  if (!ready()) return 0.0;
  const Snapshot& a = snaps_.front();
  const Snapshot& b = snaps_.back();
  const telemetry::CounterValue* ca = nullptr;
  const telemetry::CounterValue* cb = nullptr;
  for (const auto& c : a.counters) {
    if (name == c.name) {
      ca = &c;
      break;
    }
  }
  for (const auto& c : b.counters) {
    if (name == c.name) {
      cb = &c;
      break;
    }
  }
  if (ca == nullptr || cb == nullptr || cb->value < ca->value) return 0.0;
  return static_cast<double>(cb->value - ca->value) / span_seconds();
}

uint64_t RateWindow::window_percentile(std::string_view name, double q) const {
  if (!ready()) return 0;
  const telemetry::HistogramValue* ha = nullptr;
  const telemetry::HistogramValue* hb = nullptr;
  for (const auto& h : snaps_.front().hists) {
    if (name == h.name) {
      ha = &h;
      break;
    }
  }
  for (const auto& h : snaps_.back().hists) {
    if (name == h.name) {
      hb = &h;
      break;
    }
  }
  if (ha == nullptr || hb == nullptr) return 0;
  telemetry::HistogramValue delta = *hb;
  delta.count = 0;
  delta.sum = hb->sum >= ha->sum ? hb->sum - ha->sum : 0;
  for (int b = 0; b < telemetry::kHistBuckets; ++b) {
    delta.buckets[b] =
        hb->buckets[b] >= ha->buckets[b] ? hb->buckets[b] - ha->buckets[b] : 0;
    delta.count += delta.buckets[b];
  }
  return telemetry::hist_percentile(delta, q);
}

std::string render(const Snapshot& snap, const std::vector<GaugeRow>& gauges,
                   const RateWindow* window) {
  std::string out;
  out.reserve(16384);
  appendf(out,
          "# HELP montage_up whether the montage process is serving\n"
          "# TYPE montage_up gauge\nmontage_up 1\n");
  for (const auto& c : snap.counters) {
    const std::string fam = counter_family(c.name);
    appendf(out,
            "# HELP %s montage counter %s (%s)\n# TYPE %s counter\n%s %" PRIu64
            "\n",
            fam.c_str(), escape_label(c.name).c_str(), c.unit, fam.c_str(),
            fam.c_str(), c.value);
  }
  for (const auto& g : gauges) {
    const std::string fam = metric_name(g.name);
    appendf(out, "# HELP %s %s\n# TYPE %s gauge\n%s %.6g\n", fam.c_str(),
            g.help.c_str(), fam.c_str(), fam.c_str(), g.value);
  }
  for (const auto& h : snap.hists) {
    render_histogram(out, h);
  }
  if (window != nullptr && window->ready()) {
    appendf(out,
            "# HELP montage_window_seconds span of the rate window\n"
            "# TYPE montage_window_seconds gauge\n"
            "montage_window_seconds %.6g\n",
            window->span_seconds());
    if (!snap.counters.empty()) {
      appendf(out,
              "# HELP montage_window_rate_per_sec per-second counter rate "
              "over the window\n"
              "# TYPE montage_window_rate_per_sec gauge\n");
      for (const auto& c : snap.counters) {
        appendf(out, "montage_window_rate_per_sec{name=\"%s\"} %.6g\n",
                sanitize(c.name).c_str(), window->counter_rate(c.name));
      }
    }
    if (!snap.hists.empty()) {
      appendf(out,
              "# HELP montage_window_quantile histogram quantile over the "
              "window, native unit\n"
              "# TYPE montage_window_quantile gauge\n");
      for (const auto& h : snap.hists) {
        appendf(out, "montage_window_quantile{hist=\"%s\",q=\"0.5\"} %" PRIu64
                     "\n",
                sanitize(h.name).c_str(), window->window_percentile(h.name, 0.5));
        appendf(out, "montage_window_quantile{hist=\"%s\",q=\"0.99\"} %" PRIu64
                     "\n",
                sanitize(h.name).c_str(),
                window->window_percentile(h.name, 0.99));
      }
    }
  }
  return out;
}

// ---- lint -------------------------------------------------------------------

namespace {

bool valid_metric_name(std::string_view s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(s[0])) return false;
  for (char c : s.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(std::string_view s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(s[0])) return false;
  for (char c : s.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

// Parse the sample value (strict: the whole token must be a float literal or
// +Inf/-Inf/NaN). Returns false on garbage.
bool parse_value(const std::string& tok, double* out) {
  if (tok.empty()) return false;
  if (tok == "+Inf" || tok == "Inf") {
    *out = HUGE_VAL;
    return true;
  }
  if (tok == "-Inf") {
    *out = -HUGE_VAL;
    return true;
  }
  if (tok == "NaN") {
    *out = NAN;
    return true;
  }
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

// One parsed sample line.
struct Sample {
  std::string name;
  // label name -> (raw) value, insertion-ordered signature for dedup
  std::vector<std::pair<std::string, std::string>> labels;
  double value;
};

// Parse `name{k="v",...} value`; returns empty string or an error message.
std::string parse_sample(const std::string& line, Sample* s) {
  std::size_t i = 0;
  const std::size_t n = line.size();
  std::size_t name_end = i;
  while (name_end < n && line[name_end] != '{' && line[name_end] != ' ') {
    ++name_end;
  }
  s->name = line.substr(0, name_end);
  if (!valid_metric_name(s->name)) return "invalid metric name";
  i = name_end;
  if (i < n && line[i] == '{') {
    ++i;
    while (true) {
      if (i >= n) return "unterminated label set";
      if (line[i] == '}') {
        ++i;
        break;
      }
      std::size_t k = i;
      while (k < n && line[k] != '=') ++k;
      if (k >= n) return "label without '='";
      const std::string lname = line.substr(i, k - i);
      if (!valid_label_name(lname)) return "invalid label name";
      i = k + 1;
      if (i >= n || line[i] != '"') return "label value must be quoted";
      ++i;
      std::string lval;
      while (i < n && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= n) return "dangling escape in label value";
          if (line[i] == 'n') {
            lval.push_back('\n');
          } else if (line[i] == '\\' || line[i] == '"') {
            lval.push_back(line[i]);
          } else {
            return "bad escape in label value";
          }
        } else {
          lval.push_back(line[i]);
        }
        ++i;
      }
      if (i >= n) return "unterminated label value";
      ++i;  // closing quote
      s->labels.emplace_back(lname, lval);
      if (i < n && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < n && line[i] == '}') {
        ++i;
        break;
      }
      return "expected ',' or '}' after label";
    }
  }
  if (i >= n || line[i] != ' ') return "expected single space before value";
  ++i;
  const std::string vtok = line.substr(i);
  if (vtok.find(' ') != std::string::npos) {
    return "unexpected token after value (timestamps not allowed)";
  }
  if (!parse_value(vtok, &s->value)) return "unparseable sample value";
  return "";
}

// Cumulative-bucket tracking for one histogram label-group (the label set
// minus `le`).
struct BucketSeries {
  bool has_last = false;
  double last_le = 0;
  double last_cum = 0;
  bool inf_seen = false;
  double inf_val = 0;
  bool count_seen = false;
  double count_val = 0;
  bool sum_seen = false;
};

std::string labels_sig(const Sample& s, bool drop_le) {
  std::string sig;
  for (const auto& [k, v] : s.labels) {
    if (drop_le && k == "le") continue;
    sig += k;
    sig += '\x01';
    sig += v;
    sig += '\x02';
  }
  return sig;
}

}  // namespace

std::string lint(std::string_view text) {
  auto err = [](std::size_t lineno, const std::string& msg) {
    return "line " + std::to_string(lineno) + ": " + msg;
  };
  if (text.empty()) return "line 0: empty payload";
  if (text.back() != '\n') return "line 0: payload must end with a newline";

  std::map<std::string, std::string> type_of;  // family -> counter|gauge|...
  std::set<std::string> helped;                // families with a HELP line
  std::set<std::string> closed;                // families whose samples ended
  std::set<std::string> seen_samples;          // name + label signature
  std::string cur;                             // family currently emitting
  std::map<std::string, BucketSeries> series;  // label-group state for cur

  // Close out the family currently emitting samples, enforcing the
  // histogram end-state invariants.
  auto close_family = [&](std::size_t lineno) -> std::string {
    if (cur.empty()) return "";
    if (type_of[cur] == "histogram") {
      if (series.empty()) return err(lineno, cur + ": histogram without samples");
      for (const auto& [sig, bs] : series) {
        (void)sig;
        if (!bs.inf_seen) {
          return err(lineno, cur + ": histogram missing le=\"+Inf\" bucket");
        }
        if (!bs.count_seen) {
          return err(lineno, cur + ": histogram missing _count");
        }
        if (!bs.sum_seen) return err(lineno, cur + ": histogram missing _sum");
        if (bs.count_val != bs.inf_val) {
          return err(lineno, cur + ": _count disagrees with +Inf bucket");
        }
      }
    }
    closed.insert(cur);
    series.clear();
    cur.clear();
    return "";
  };

  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++lineno;
    const std::size_t eol = text.find('\n', pos);
    const std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) return err(lineno, "blank line");

    if (line[0] == '#') {
      // Only `# HELP <name> <text>` and `# TYPE <name> <type>` are accepted.
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        const std::string name = rest.substr(0, sp);
        if (!valid_metric_name(name)) return err(lineno, "bad HELP name");
        if (!helped.insert(name).second) {
          return err(lineno, name + ": duplicate HELP");
        }
        if (closed.count(name) != 0 || type_of.count(name) != 0) {
          return err(lineno, name + ": HELP after TYPE/samples");
        }
      } else if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos) return err(lineno, "TYPE missing type");
        const std::string name = rest.substr(0, sp);
        const std::string type = rest.substr(sp + 1);
        if (!valid_metric_name(name)) return err(lineno, "bad TYPE name");
        if (type != "counter" && type != "gauge" && type != "histogram") {
          return err(lineno, name + ": unknown type '" + type + "'");
        }
        if (type_of.count(name) != 0) {
          return err(lineno, name + ": duplicate TYPE");
        }
        if (closed.count(name) != 0) {
          return err(lineno, name + ": TYPE after samples");
        }
        type_of[name] = type;
      } else {
        return err(lineno, "comment is neither HELP nor TYPE");
      }
      continue;
    }

    Sample s;
    if (std::string perr = parse_sample(line, &s); !perr.empty()) {
      return err(lineno, perr);
    }

    // Attribute the sample to its family: histogram suffixes strip back to a
    // declared histogram base; everything else is its own family.
    std::string family = s.name;
    std::string suffix;
    for (const char* suf : {"_bucket", "_sum", "_count"}) {
      if (ends_with(s.name, suf)) {
        const std::string base = s.name.substr(0, s.name.size() - strlen(suf));
        auto it = type_of.find(base);
        if (it != type_of.end() && it->second == "histogram") {
          family = base;
          suffix = suf;
          break;
        }
      }
    }
    auto t = type_of.find(family);
    if (t == type_of.end()) {
      return err(lineno, s.name + ": sample without a preceding TYPE");
    }
    if (t->second != "histogram" && s.name != family) {
      return err(lineno, s.name + ": suffixed sample on non-histogram family");
    }
    if (t->second == "histogram" && suffix.empty()) {
      return err(lineno,
                 s.name + ": histogram sample must be _bucket/_sum/_count");
    }
    if (family != cur) {
      if (closed.count(family) != 0) {
        return err(lineno, family + ": family reopened (samples not contiguous)");
      }
      if (std::string cerr = close_family(lineno); !cerr.empty()) return cerr;
      cur = family;
    }
    if (!seen_samples.insert(s.name + "\x03" + labels_sig(s, false)).second) {
      return err(lineno, s.name + ": duplicate sample");
    }

    if (t->second == "histogram") {
      BucketSeries& bs = series[labels_sig(s, true)];
      if (suffix == "_bucket") {
        std::string le;
        bool has_le = false;
        for (const auto& [k, v] : s.labels) {
          if (k == "le") {
            le = v;
            has_le = true;
          }
        }
        if (!has_le) return err(lineno, s.name + ": bucket without le label");
        double led = 0;
        if (!parse_value(le, &led)) {
          return err(lineno, s.name + ": unparseable le value");
        }
        if (bs.inf_seen) {
          return err(lineno, s.name + ": bucket after le=\"+Inf\"");
        }
        if (bs.has_last && led <= bs.last_le) {
          return err(lineno, s.name + ": le not strictly increasing");
        }
        if (bs.has_last && s.value < bs.last_cum) {
          return err(lineno, s.name + ": bucket counts not cumulative");
        }
        bs.has_last = true;
        bs.last_le = led;
        bs.last_cum = s.value;
        if (le == "+Inf") {
          bs.inf_seen = true;
          bs.inf_val = s.value;
        }
      } else if (suffix == "_count") {
        bs.count_seen = true;
        bs.count_val = s.value;
      } else {
        bs.sum_seen = true;
      }
    } else if (t->second == "counter") {
      if (s.value < 0) return err(lineno, s.name + ": negative counter");
    }
  }
  if (std::string cerr = close_family(lineno); !cerr.empty()) return cerr;
  return "";
}

}  // namespace montage::promexpo
