#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

#include "util/check.hpp"

namespace irpbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double pid_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / double(sysconf(_SC_CLK_TCK));
}

namespace {

/// The first number after `key` in /proc/<pid>/status; -1 when absent.
double status_field(const std::string& pid, std::string_view key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  return -1;
}

}  // namespace

double peak_rss_mb(pid_t pid) {
  const double kb = status_field(std::to_string(pid), "VmHWM:");
  return kb < 0 ? 0 : kb / 1024.0;
}

int thread_count() { return int(status_field("self", "Threads:")); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * double(values.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(values.size() - 1, std::size_t(rank) - 1);
  return values[idx];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double windowed_p99(const std::vector<double>& latency,
                    const std::vector<double>& done_s, int windows) {
  if (latency.empty()) return 0;
  const double span =
      *std::max_element(done_s.begin(), done_s.end()) / double(windows);
  std::vector<std::vector<double>> per(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const auto w = span > 0 ? std::size_t(done_s[i] / span) : 0;
    per[std::min(w, per.size() - 1)].push_back(latency[i]);
  }
  std::vector<double> p99s;
  for (const auto& w : per)
    if (!w.empty()) p99s.push_back(quantile(w, 0.99));
  return median(p99s);
}

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::since_origin(Clock::time_point t) const {
  return seconds_between(origin_, t);
}

int Tracer::open(std::string name, int parent) {
  const double now = since_origin(Clock::now());
  spans_.push_back({std::move(name), now, now, parent, 0});
  return int(spans_.size()) - 1;
}

void Tracer::close(int span) {
  spans_[std::size_t(span)].end_s = since_origin(Clock::now());
}

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, std::uint64_t request_id) {
  spans_.push_back({std::move(name), since_origin(start), since_origin(end),
                    parent, request_id});
  return int(spans_.size()) - 1;
}

double Tracer::duration_s(int span) const {
  const Span& s = spans_[std::size_t(span)];
  return s.end_s - s.start_s;
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_time[std::size_t(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_s += s.end_s - s.start_s;
    row.self_s += std::max(0.0, s.end_s - s.start_s - child_time[i]);
  }
  std::vector<SelfTime> out;
  for (auto& [name, row] : by_name) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  IRP_CHECK(out.is_open(), "cannot write span dump " + path);
  out.precision(9);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
        << ", \"parent\": " << s.parent << ", \"request_id\": "
        << s.request_id << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\n\"self_time\": [\n";
  const std::vector<SelfTime> rows = self_times();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "  {\"name\": \"" << rows[i].name << "\", \"count\": "
        << rows[i].count << ", \"total_s\": " << rows[i].total_s
        << ", \"self_s\": " << rows[i].self_s << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Result::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string Result::json() const {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Result::text() const {
  std::ostringstream out;
  out.precision(6);
  for (const Metric& m : metrics_)
    out << "# metric " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  return out.str();
}

void make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  IRP_CHECK(!ec, "cannot create " + dir + ": " + ec.message());
}

}  // namespace irpbench
