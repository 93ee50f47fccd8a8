#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/check.hpp"

namespace irp {
namespace {

/// Closes a file descriptor on every exit path, a throw included.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

}  // namespace

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  const int open_errno = errno;
  IRP_CHECK(fd >= 0, "cannot open file for reading: " + path + " (" +
                         std::strerror(open_errno) + ")");
  const FdCloser closer{fd};
  // The size and type come from the open descriptor, so they describe the
  // file that is read: a directory opens fine on Linux but reads nothing.
  struct stat st {};
  IRP_CHECK(::fstat(fd, &st) == 0 && S_ISREG(st.st_mode),
            "not a regular file: " + path);
  std::string contents(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t done = 0;
  while (done < contents.size()) {
    const ssize_t n =
        ::read(fd, contents.data() + done, contents.size() - done);
    if (n < 0 && errno == EINTR) continue;
    IRP_CHECK(n > 0, "short read (file shrank or I/O error): " + path);
    done += static_cast<std::size_t>(n);
  }
  return contents;
}

void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  IRP_CHECK(out.good(), "cannot open file for writing: " + path);
  out.write(contents.data(), std::streamsize(contents.size()));
  IRP_CHECK(out.good(), "write failed: " + path);
}

}  // namespace irp