//===- util/table.h - ASCII table rendering for benches -------*- C++ -*-===//
///
/// \file
/// The benchmark binaries print their results in the same row structure as
/// the paper's tables. TablePrinter renders aligned ASCII tables and can
/// also emit CSV for downstream plotting.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_UTIL_TABLE_H
#define GENPROVE_UTIL_TABLE_H

#include <string>
#include <vector>

namespace genprove {

/// Collects rows of strings and renders them as an aligned ASCII table.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Header);

  /// Append one data row; must have the same arity as the header.
  void addRow(std::vector<std::string> Row);

  /// Render as an aligned ASCII table with a separator under the header.
  std::string render() const;

  /// Convenience: render() to stdout.
  void print() const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

/// Format a double in a compact scientific/fixed hybrid, matching the way
/// the paper reports bound widths (e.g. "5.7e-05" or "0.9703").
std::string formatBound(double Value);

/// Format seconds with 4 significant digits.
std::string formatSeconds(double Seconds);

/// Format a byte count as MB/GB with 2 decimals.
std::string formatBytes(size_t Bytes);

/// Format a ratio as a percentage string like "92.5%".
std::string formatPercent(double Fraction);

} // namespace genprove

#endif // GENPROVE_UTIL_TABLE_H
