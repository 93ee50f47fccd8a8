// Plain-text table rendering for the study's reports and example output.
//
// The CLI and examples print the same rows the paper's tables report;
// TextTable produces aligned, monospace-friendly output for that purpose.
#pragma once

#include <string>
#include <vector>

namespace irp {

/// A simple left/right aligned text table.
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  std::size_t rows() const { return rows_.size(); }

  /// Renders the table with a header separator line.
  std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace irp
