// A `run_study_cli serve --listen 0` child process: spawn, learn its port
// from the startup line, read its counters, drain it with SIGTERM.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace irpbench {

class ServerProcess {
 public:
  /// Starts `binary args...` with stdout on a pipe and stderr appended to
  /// `log_path`. Throws CheckError when the process cannot be started.
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args,
                const std::string& log_path);
  /// Kills and reaps the process if stop() was never called.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the "oracle serving ... on ADDR:PORT" line; throws after
  /// `timeout_s` or when the process exits first.
  std::uint16_t wait_port(double timeout_s);

  pid_t pid() const { return pid_; }

  /// SIGTERM, read stdout to EOF (the drain statistics), reap. Returns
  /// everything printed after the startup line. Throws when the process
  /// does not exit cleanly within `timeout_s`.
  std::string stop(double timeout_s);

 private:
  /// Appends whatever stdout holds within `timeout_s` to `out_`; false at
  /// EOF.
  bool read_some(double timeout_s);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_;
};

/// Parses the "key=value" integers of the drain lines "# wire: ..." and
/// "# served=...": frames_in, bytes_in, bytes_out, decode_errors, shed,
/// admitted, served, rejected, peak_queue, ...
std::map<std::string, double> parse_drain_counters(const std::string& text);

}  // namespace irpbench
