//===- tests/bench_cache_test.cpp - results/grid.csv cache ------*- C++ -*-===//
///
/// \file
/// The bench binaries' grid cache: a damaged results/grid.csv must not
/// abort BenchEnv construction, and a cached cell must read back bit for
/// bit. Constructing a BenchEnv trains nothing; only cell() on a missing
/// coordinate would.
///
//===----------------------------------------------------------------------===//

#include "bench/bench_common.h"
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <unistd.h>

namespace genprove {
namespace {

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectSameCell(const GridCell &A, const GridCell &B) {
  EXPECT_EQ(A.DatasetName, B.DatasetName);
  EXPECT_EQ(A.NetworkName, B.NetworkName);
  EXPECT_EQ(A.Which, B.Which);
  EXPECT_EQ(A.Neurons, B.Neurons);
  EXPECT_EQ(A.NumPairs, B.NumPairs);
  EXPECT_EQ(A.NumBounds, B.NumBounds);
  EXPECT_TRUE(sameBits(A.MeanWidth, B.MeanWidth)) << B.MeanWidth;
  EXPECT_TRUE(sameBits(A.MeanLower, B.MeanLower)) << B.MeanLower;
  EXPECT_TRUE(sameBits(A.MeanUpper, B.MeanUpper)) << B.MeanUpper;
  EXPECT_TRUE(sameBits(A.FractionNonTrivial, B.FractionNonTrivial));
  EXPECT_TRUE(sameBits(A.FractionOom, B.FractionOom));
  EXPECT_TRUE(sameBits(A.MeanSeconds, B.MeanSeconds));
  EXPECT_TRUE(sameBits(A.PeakGb, B.PeakGb));
  EXPECT_EQ(A.MaxRegions, B.MaxRegions);
  EXPECT_EQ(A.MaxNodes, B.MaxNodes);
  EXPECT_EQ(A.Retries, B.Retries);
}

/// A cell whose doubles need all 17 significant digits.
GridCell sampleCell() {
  GridCell Cell;
  Cell.DatasetName = "CelebA*";
  Cell.NetworkName = "ConvLarge";
  Cell.Which = Method::GenProveRelax;
  Cell.Neurons = 12345;
  Cell.NumPairs = 2;
  Cell.NumBounds = 20;
  Cell.MeanWidth = 0.0006983757756229307;
  Cell.MeanLower = 1.0 / 3.0;
  Cell.MeanUpper = 0.1 + 0.2;
  Cell.FractionNonTrivial = 0.95;
  Cell.FractionOom = std::numeric_limits<double>::denorm_min();
  Cell.MeanSeconds = 0.12345678901234567;
  Cell.PeakGb = 2.718281828459045;
  Cell.MaxRegions = 287;
  Cell.MaxNodes = 574;
  Cell.Retries = 1;
  return Cell;
}

/// A fresh results directory, removed afterwards; the BenchEnv constructor
/// turns metrics on, so the scope restores the switch too.
struct ResultsDirScope {
  ResultsDirScope()
      : Dir(std::filesystem::temp_directory_path() /
            ("genprove-bench-cache-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name())),
        WasEnabled(metricsEnabled()) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  ~ResultsDirScope() {
    std::filesystem::remove_all(Dir);
    setMetricsEnabled(WasEnabled);
  }
  std::filesystem::path Dir;
  bool WasEnabled;
};

/// The #config line a BenchEnv with this configuration expects.
std::string configLine(const BenchConfig &Config) {
  return "#config " + BenchEnv(Config).configFingerprint();
}

TEST(BenchCache, RowRoundTripIsBitExact) {
  const GridCell Cell = sampleCell();
  const std::string Key = "CelebA*|ConvLarge|GenProveRelax";
  std::string ParsedKey;
  GridCell Parsed;
  ASSERT_TRUE(parseGridRow(formatGridRow(Key, Cell), ParsedKey, Parsed));
  EXPECT_EQ(ParsedKey, Key);
  expectSameCell(Parsed, Cell);
}

TEST(BenchCache, MalformedRowsAreRejected) {
  const std::string Row =
      formatGridRow("CelebA*|ConvLarge|GenProveRelax", sampleCell());
  std::string Key = "untouched";
  GridCell Cell;
  for (size_t Cut : {size_t(0), size_t(10), Row.find(',') + 1,
                     Row.rfind(',') - 3, Row.size() - 1})
    EXPECT_FALSE(parseGridRow(Row.substr(0, Cut), Key, Cell)) << Cut;
  EXPECT_FALSE(parseGridRow(Row + ",7", Key, Cell));
  std::string BadNumber = Row;
  BadNumber.replace(BadNumber.find("12345"), 5, "12x45");
  EXPECT_FALSE(parseGridRow(BadNumber, Key, Cell));
  std::string BadMethod = Row;
  BadMethod.replace(BadMethod.find(",GenProveRelax,"), 15, ",NoSuchMethod,");
  EXPECT_FALSE(parseGridRow(BadMethod, Key, Cell));
  EXPECT_EQ(Key, "untouched");
}

// A row cut mid-field, as a run killed while saving used to leave, is
// skipped with a message; the intact rows before it are served bit for
// bit.
TEST(BenchCache, TruncatedCacheLoadsWithoutAborting) {
  ResultsDirScope Scope;
  BenchConfig Config;
  Config.ResultsDir = Scope.Dir.string();
  const GridCell Cell = sampleCell();
  const std::string Full =
      formatGridRow("CelebA*|ConvLarge|GenProveRelax", Cell);
  GridCell Other = Cell;
  Other.NetworkName = "ConvSmall";
  const std::string Cut =
      formatGridRow("CelebA*|ConvSmall|GenProveRelax", Other);
  const std::string Config0 = configLine(Config);
  {
    std::ofstream Out(Scope.Dir / "grid.csv");
    Out << Config0 << '\n'
        << GridCsvHeader << '\n'
        << Full << '\n'
        << Cut.substr(0, Cut.find("ConvSmall,") + 6);
  }
  ::testing::internal::CaptureStderr();
  BenchEnv Env(Config);
  const std::string Err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("line 4 is malformed"), std::string::npos) << Err;
  expectSameCell(
      Env.cell(DatasetId::Faces, "ConvLarge", Method::GenProveRelax), Cell);
}

} // namespace
} // namespace genprove
