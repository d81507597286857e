//===- util/table.cpp -----------------------------------------*- C++ -*-===//

#include "src/util/table.h"

#include "src/util/error.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace genprove {

TablePrinter::TablePrinter(std::vector<std::string> Header)
    : Header(std::move(Header)) {}

void TablePrinter::addRow(std::vector<std::string> Row) {
  check(Row.size() == Header.size(), "table row arity mismatch");
  Rows.push_back(std::move(Row));
}

std::string TablePrinter::render() const {
  std::vector<size_t> Widths(Header.size(), 0);
  for (size_t I = 0; I < Header.size(); ++I)
    Widths[I] = Header[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  std::ostringstream Out;
  auto EmitRow = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Row.size(); ++I) {
      Out << Row[I];
      if (I + 1 < Row.size())
        Out << std::string(Widths[I] - Row[I].size() + 2, ' ');
    }
    Out << '\n';
  };
  EmitRow(Header);
  size_t Total = 0;
  for (size_t W : Widths)
    Total += W + 2;
  Out << std::string(Total > 2 ? Total - 2 : Total, '-') << '\n';
  for (const auto &Row : Rows)
    EmitRow(Row);
  return Out.str();
}

void TablePrinter::print() const { std::fputs(render().c_str(), stdout); }

std::string formatBound(double Value) {
  char Buf[64];
  const double Abs = std::fabs(Value);
  if (Value != 0.0 && (Abs < 1e-3 || Abs >= 1e5))
    std::snprintf(Buf, sizeof(Buf), "%.2e", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "%.4f", Value);
  return Buf;
}

std::string formatSeconds(double Seconds) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4f", Seconds);
  return Buf;
}

std::string formatBytes(size_t Bytes) {
  char Buf[64];
  const double Mb = static_cast<double>(Bytes) / (1024.0 * 1024.0);
  if (Mb >= 1024.0)
    std::snprintf(Buf, sizeof(Buf), "%.2f GB", Mb / 1024.0);
  else
    std::snprintf(Buf, sizeof(Buf), "%.2f MB", Mb);
  return Buf;
}

std::string formatPercent(double Fraction) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", Fraction * 100.0);
  return Buf;
}

} // namespace genprove
