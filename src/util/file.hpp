// Minimal whole-file I/O helpers.
#pragma once

#include <string>
#include <string_view>

namespace irp {

/// Reads a whole regular file with one presized read. Throws CheckError
/// when the path cannot be opened, is not a regular file (a directory, a
/// device) or cannot be read in full.
std::string read_file(const std::string& path);

/// Writes (truncates) a whole file; throws CheckError on failure.
void write_file(const std::string& path, std::string_view contents);

}  // namespace irp
