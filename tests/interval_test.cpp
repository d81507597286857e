//===- tests/interval_test.cpp - interval arithmetic ------------*- C++ -*-===//

#include "src/interval/interval.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

TEST(Interval, BasicAccessors) {
  Interval I(-1.0, 3.0);
  EXPECT_DOUBLE_EQ(I.width(), 4.0);
  EXPECT_DOUBLE_EQ(I.center(), 1.0);
  EXPECT_DOUBLE_EQ(I.radius(), 2.0);
  EXPECT_TRUE(I.contains(0.0));
  EXPECT_FALSE(I.contains(3.5));
  EXPECT_TRUE(I.contains(Interval(0.0, 1.0)));
}

TEST(Interval, AddSub) {
  const Interval A(-1.0, 2.0), B(0.5, 1.5);
  const Interval S = A + B;
  EXPECT_DOUBLE_EQ(S.Lo, -0.5);
  EXPECT_DOUBLE_EQ(S.Hi, 3.5);
  const Interval D = A - B;
  EXPECT_DOUBLE_EQ(D.Lo, -2.5);
  EXPECT_DOUBLE_EQ(D.Hi, 1.5);
}

TEST(Interval, ScalarMulFlipsOnNegative) {
  const Interval A(-1.0, 2.0);
  const Interval P = A * 3.0;
  EXPECT_DOUBLE_EQ(P.Lo, -3.0);
  EXPECT_DOUBLE_EQ(P.Hi, 6.0);
  const Interval N = A * -2.0;
  EXPECT_DOUBLE_EQ(N.Lo, -4.0);
  EXPECT_DOUBLE_EQ(N.Hi, 2.0);
}

TEST(Interval, Relu) {
  EXPECT_DOUBLE_EQ(Interval(-2.0, -1.0).relu().Hi, 0.0);
  EXPECT_DOUBLE_EQ(Interval(-1.0, 2.0).relu().Lo, 0.0);
  EXPECT_DOUBLE_EQ(Interval(-1.0, 2.0).relu().Hi, 2.0);
  EXPECT_DOUBLE_EQ(Interval(1.0, 2.0).relu().Lo, 1.0);
}

TEST(Interval, Hull) {
  const Interval H = Interval(-1.0, 0.5).hull(Interval(0.0, 2.0));
  EXPECT_DOUBLE_EQ(H.Lo, -1.0);
  EXPECT_DOUBLE_EQ(H.Hi, 2.0);
}

/// Property: interval multiplication is sound for sampled operands.
class IntervalMulProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalMulProperty, ProductSound) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 200; ++Trial) {
    const double A = R.uniform(-3.0, 3.0), B = R.uniform(-3.0, 3.0);
    const double C = R.uniform(-3.0, 3.0), D = R.uniform(-3.0, 3.0);
    const Interval X(std::min(A, B), std::max(A, B));
    const Interval Y(std::min(C, D), std::max(C, D));
    const Interval P = X * Y;
    for (int S = 0; S < 10; ++S) {
      const double Xs = R.uniform(X.Lo, X.Hi);
      const double Ys = R.uniform(Y.Lo, Y.Hi);
      EXPECT_GE(Xs * Ys, P.Lo - 1e-9);
      EXPECT_LE(Xs * Ys, P.Hi + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalMulProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace
} // namespace genprove
