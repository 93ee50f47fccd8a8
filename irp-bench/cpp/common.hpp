// Shared pieces of the irp_bench runner: clocks, process probes, order
// statistics, the span tracer and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace irpbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double micros_between(Clock::time_point a, Clock::time_point b);

/// User + system CPU seconds of this process, all threads included.
double process_cpu_seconds();
/// User + system CPU seconds of another process, from /proc/<pid>/stat.
double pid_cpu_seconds(pid_t pid);
/// VmHWM (peak resident set) of a process in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid);
/// Current thread count of this process (/proc/self/status "Threads:").
int thread_count();

/// Nearest-rank quantile (q in [0, 1]) of a sample; 0 for an empty one.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// p99 that one stall of a shared machine cannot move: the run is cut into
/// `windows` equal spans of completion time (`done_s`, parallel to
/// `latency`), and the median of the per-span p99s is returned.
double windowed_p99(const std::vector<double>& latency,
                    const std::vector<double>& done_s, int windows = 10);

/// Span recorder. Spans stay in memory and are written when the run ends;
/// a span's parent is the index of the span that caused it (-1 for a root),
/// and spans of one sampled request share `request_id` (0 = none).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    std::uint64_t request_id = 0;
  };

  Tracer();
  int open(std::string name, int parent = -1);
  void close(int span);
  /// Records an already-measured interval.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t request_id = 0);
  double duration_s(int span) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals: span time and self time (span time minus the part
  /// covered by its children), sorted by self time, descending.
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::vector<SelfTime> self_times() const;

  /// Writes {"spans": [...], "self_time": [...]} to `path`.
  void write_json(const std::string& path) const;

 private:
  double since_origin(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it at stop() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent = -1)
      : tracer_(tracer), index_(tracer.open(std::move(name), parent)) {}
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }
  /// Closes the span (the first call only) and returns its duration.
  double stop() {
    if (open_) tracer_.close(index_);
    open_ = false;
    return tracer_.duration_s(index_);
  }

 private:
  Tracer& tracer_;
  int index_;
  bool open_ = true;
};

/// The ordered metric set of one run plus its correctness verdict; renders
/// the result object the benchmark prints as its last line.
class Result {
 public:
  void add(std::string name, double value, std::string unit);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string json() const;
  /// One "# metric name = value unit" line per metric, for humans.
  std::string text() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Creates `dir` (and parents); throws on failure.
void make_dirs(const std::string& dir);

}  // namespace irpbench
