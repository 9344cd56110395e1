// Shared pieces of the benchmark: run options, the result record,
// timing and percentile helpers, and the in-memory span tracer.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the live stores and the trace file.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: whether every checked answer was right, the
/// operations attempted and failed, and the metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First wrong answer, for the log.
  std::string first_error;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Wrong(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Percentile by the nearest-rank rule; `v` need not be sorted.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// The smallest of the values offered; 0 when none was.
class Best {
 public:
  void Offer(double v) { best_ = std::min(best_, v); }
  double value() const { return std::isfinite(best_) ? best_ : 0; }

 private:
  double best_ = std::numeric_limits<double>::infinity();
};

/// Spans kept in memory for the traced run: name, start, end, parent
/// span and request id. Written out as JSON when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint32_t request;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  bool on() const { return on_; }

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, uint32_t request) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes span `id` (the innermost open one) and returns its length
  /// in nanoseconds.
  int64_t End(int id) {
    if (id < 0) return 0;
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    open_.pop_back();
    return s.end_ns - s.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total and self time (length minus the part its
  /// children cover), in nanoseconds.
  struct Totals {
    std::string name;
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::vector<Totals> Summarize() const;

  /// Writes every span plus the per-name summary to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Progress note on standard error: seconds since the process started.
void Note(const char* what);

Outcome RunWikiMixed(const RunOptions& opt);
Outcome RunGovtrackAnalytics(const RunOptions& opt);
Outcome RunLiveIngest(const RunOptions& opt);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
