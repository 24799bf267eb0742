// Shared plumbing of the end-to-end benchmark: clock, seeded RNG, order
// statistics, the metric sink, and the in-memory span recorder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// splitmix64: the benchmark's only randomness, seeded from --seed, so the
/// same seed gives the same sources, traffic and deltas.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * double(xs.size() - 1);
  const size_t lo = size_t(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - double(lo));
}
inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Tracing overhead in percent: how much slower the median of the traced
/// samples is than the median of the untraced ones (0 without both).
inline double overhead_pct(const std::vector<double>& traced,
                           const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return 100.0 * (median(traced) / median(untraced) - 1.0);
}

/// Named metrics of one run, printed as the result line's "metrics" map.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string json() const {
    std::string out = "{";
    bool first = true;
    char buf[128];
    for (const auto& [name, v] : values_) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, ",
                    first ? "" : ", ", name.c_str(),
                    std::isfinite(v.first) ? v.first : 0.0);
      out += buf;
      out += "\"unit\": \"" + v.second + "\"}";
      first = false;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One span around a call into a layer. `parent` is the index of the span
/// that caused it (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  int64_t parent = -1;
  uint64_t request = 0;
  double start_ms = 0.0;  // since the recorder's epoch
  double end_ms = 0.0;
};

/// In-memory span recorder. Disabled (the untraced run) it records nothing
/// and every call is one branch; enabled, spans stay in memory until
/// write() dumps them as JSON lines at the end of the run.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int64_t begin(const char* name, int64_t parent = -1, uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, request, ms_since(epoch_), 0.0});
    return int64_t(spans_.size() - 1);
  }
  void end(int64_t id) {
    if (id >= 0) spans_[size_t(id)].end_ms = ms_since(epoch_);
  }
  /// Records an already-measured interval [start, end) on the epoch clock.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int64_t parent = -1, uint64_t request = 0) {
    if (!enabled_) return;
    spans_.push_back({name, parent, request, ms_between(epoch_, start),
                      ms_between(epoch_, end)});
  }

  /// Durations (ms) of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    return out;
  }

  /// Writes one JSON object per span to `path`; false when the file cannot
  /// be opened.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                   "\"request\": %llu, \"start_ms\": %.6f, \"end_ms\": "
                   "%.6f}\n",
                   i, s.name.c_str(), (long long)s.parent,
                   (unsigned long long)s.request, s.start_ms, s.end_ms);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// What a workload hands back to main(): the operation counts, the
/// correctness verdict and the metrics of the requested mode.
struct RunResult {
  bool correct = true;
  std::string first_error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;

  void fail(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point process_start;
  std::string span_path;  // where the traced run writes its spans
};

RunResult run_engine_workload(const RunConfig& cfg);
RunResult run_service_workload(const RunConfig& cfg);

}  // namespace bench
