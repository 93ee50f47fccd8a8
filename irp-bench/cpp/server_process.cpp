#include "server_process.hpp"

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "util/check.hpp"

namespace irpbench {

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& log_path) {
  int fds[2];
  IRP_CHECK(pipe(fds) == 0, "pipe() failed");
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  IRP_CHECK(log_fd >= 0, "cannot open server log " + log_path);
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = fork();
  IRP_CHECK(pid_ >= 0, "fork() failed");
  if (pid_ == 0) {
    dup2(fds[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  close(log_fd);
  out_fd_ = fds[0];
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) close(out_fd_);
}

bool ServerProcess::read_some(double timeout_s) {
  pollfd pfd{out_fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, int(timeout_s * 1000));
  if (ready <= 0) return true;
  char buf[4096];
  const ssize_t n = ::read(out_fd_, buf, sizeof buf);
  if (n > 0) {
    out_.append(buf, std::size_t(n));
    return true;
  }
  return n < 0 && errno == EINTR;
}

std::uint16_t ServerProcess::wait_port(double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<
                                           Clock::duration>(
                                           std::chrono::duration<double>(
                                               timeout_s));
  while (Clock::now() < deadline) {
    const std::size_t eol = out_.find('\n');
    if (eol != std::string::npos) {
      const std::string line = out_.substr(0, eol);
      out_.erase(0, eol + 1);
      const std::size_t on = line.find(" on ");
      const std::size_t colon = line.find(':', on == std::string::npos ? 0 : on);
      if (line.rfind("oracle serving", 0) == 0 && on != std::string::npos &&
          colon != std::string::npos)
        return std::uint16_t(std::stoul(line.substr(colon + 1)));
      continue;
    }
    IRP_CHECK(read_some(0.05), "server exited before listening");
  }
  IRP_CHECK(false, "server did not start listening in time");
}

std::string ServerProcess::stop(double timeout_s) {
  IRP_CHECK(pid_ > 0, "server already stopped");
  kill(pid_, SIGTERM);
  const auto start = Clock::now();
  while (read_some(0.05))
    IRP_CHECK(seconds_between(start, Clock::now()) < timeout_s,
              "server did not drain in time");
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  IRP_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
            "server exited uncleanly");
  return out_;
}

std::map<std::string, double> parse_drain_counters(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# wire:", 0) != 0 && line.rfind("# served=", 0) != 0)
      continue;
    std::istringstream words(line.substr(1));
    std::string word;
    while (words >> word) {
      const std::size_t eq = word.find('=');
      if (eq == std::string::npos) continue;
      try {
        out[word.substr(0, eq)] = std::stod(word.substr(eq + 1));
      } catch (const std::exception&) {
      }
    }
  }
  return out;
}

}  // namespace irpbench
