//===- tests/util_test.cpp - util module unit tests -------------*- C++ -*-===//

#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/timer.h"

#include <gtest/gtest.h>

#include <cmath>

namespace genprove {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    const double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng R(11);
  double Sum = 0.0, SumSq = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    const double X = R.normal();
    Sum += X;
    SumSq += X * X;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.05);
  EXPECT_NEAR(SumSq / N, 1.0, 0.05);
}

TEST(Rng, ArcsineStaysInUnitIntervalAndIsSymmetric) {
  Rng R(13);
  double Sum = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    const double X = R.arcsine();
    ASSERT_GE(X, 0.0);
    ASSERT_LE(X, 1.0);
    Sum += X;
  }
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  Rng R(17);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> V{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(V, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(V, 0.25), 2.0);
}

TEST(Stats, PercentileSingleElement) {
  std::vector<double> V{42.0};
  EXPECT_DOUBLE_EQ(percentile(V, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(V, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile(V, 1.0), 42.0);
}

TEST(Timer, AccumTimerStartsStopped) {
  AccumTimer T;
  EXPECT_FALSE(T.running());
  EXPECT_DOUBLE_EQ(T.seconds(), 0.0);
  T.pause(); // pause while stopped is a no-op
  EXPECT_DOUBLE_EQ(T.seconds(), 0.0);
}

TEST(Timer, AccumTimerPauseFreezesTheTotal) {
  AccumTimer T;
  T.start();
  EXPECT_TRUE(T.running());
  T.pause();
  EXPECT_FALSE(T.running());
  const double Frozen = T.seconds();
  // Paused: repeated reads return the identical accumulated value.
  EXPECT_DOUBLE_EQ(T.seconds(), Frozen);
  EXPECT_DOUBLE_EQ(T.seconds(), Frozen);

  T.resume();
  T.pause();
  EXPECT_GE(T.seconds(), Frozen); // resume adds on top, never restarts

  T.reset();
  EXPECT_FALSE(T.running());
  EXPECT_DOUBLE_EQ(T.seconds(), 0.0);
}

TEST(Timer, AccumTimerDoubleStartIsANoOp) {
  AccumTimer T;
  T.start();
  const double Before = T.seconds();
  T.start(); // must not restart the running segment
  EXPECT_GE(T.seconds(), Before);
  T.pause();
  EXPECT_GE(T.seconds(), Before);
}

TEST(Stats, ClopperPearsonKnownValues) {
  // 95% CI for 5 successes out of 10: roughly [0.187, 0.813].
  const auto [Lo, Hi] = clopperPearson(5, 10, 0.05);
  EXPECT_NEAR(Lo, 0.187, 5e-3);
  EXPECT_NEAR(Hi, 0.813, 5e-3);
}

TEST(Stats, ClopperPearsonEdgeCases) {
  {
    const auto [Lo, Hi] = clopperPearson(0, 20, 0.05);
    EXPECT_DOUBLE_EQ(Lo, 0.0);
    EXPECT_GT(Hi, 0.0);
    EXPECT_LT(Hi, 0.25);
  }
  {
    const auto [Lo, Hi] = clopperPearson(20, 20, 0.05);
    EXPECT_DOUBLE_EQ(Hi, 1.0);
    EXPECT_GT(Lo, 0.75);
  }
  {
    const auto [Lo, Hi] = clopperPearson(0, 0, 0.05);
    EXPECT_DOUBLE_EQ(Lo, 0.0);
    EXPECT_DOUBLE_EQ(Hi, 1.0);
  }
}

TEST(Stats, ClopperPearsonTightensWithSamples) {
  const auto [Lo1, Hi1] = clopperPearson(50, 100, 1e-5);
  const auto [Lo2, Hi2] = clopperPearson(5000, 10000, 1e-5);
  EXPECT_LT(Hi2 - Lo2, Hi1 - Lo1);
}

TEST(Table, RendersAlignedRows) {
  TablePrinter T({"name", "value"});
  T.addRow({"alpha", "1"});
  T.addRow({"b", "22"});
  const std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(formatBound(0.97), "0.9700");
  EXPECT_EQ(formatBound(5.7e-5), "5.70e-05");
  EXPECT_EQ(formatPercent(0.925), "92.5%");
  EXPECT_NE(formatBytes(3ull << 30).find("GB"), std::string::npos);
  EXPECT_NE(formatBytes(10 << 20).find("MB"), std::string::npos);
}

} // namespace
} // namespace genprove
