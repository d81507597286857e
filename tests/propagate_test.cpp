//===- tests/propagate_test.cpp - propagation soundness/exactness -*- C++ -*-===//

#include "src/core/genprove.h"
#include "src/domains/propagate.h"
#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/reshape.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace genprove {
namespace {

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.8);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.5);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

/// Is the point on some curve piece at parameter T, or inside some box?
bool stateContains(const std::vector<Region> &Regions, double T,
                   const Tensor &Point, double Tol) {
  for (const Region &R : Regions) {
    if (R.Kind == RegionKind::Curve) {
      if (T < R.T0 - 1e-12 || T > R.T1 + 1e-12)
        continue;
      const Tensor P = evalCurve(R, T);
      bool Match = true;
      for (int64_t J = 0; J < P.numel() && Match; ++J)
        if (std::fabs(P[J] - Point[J]) > Tol)
          Match = false;
      if (Match)
        return true;
    } else {
      bool Inside = true;
      for (int64_t J = 0; J < Point.numel() && Inside; ++J)
        if (std::fabs(Point[J] - R.Center[J]) > R.Radius[J] + Tol)
          Inside = false;
      if (Inside)
        return true;
    }
  }
  return false;
}

class PropagateSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagateSoundness, ExactSegmentMatchesConcreteForward) {
  Rng R(GetParam());
  Sequential Net = makeRandomMlp(R, {4, 10, 8, 3});
  const auto Layers = Net.view();
  const Shape InShape({1, 4});

  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};

  const PropagateConfig Config;
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  const auto Final = propagateRegions(Layers, InShape, std::move(Init),
                                      Config, Memory, Stats);
  ASSERT_FALSE(Stats.OutOfMemory);
  ASSERT_FALSE(Final.empty());

  // Exact analysis: every sampled input maps exactly onto a curve piece.
  for (int Trial = 0; Trial < 60; ++Trial) {
    const double T = R.uniform();
    Tensor X({1, 4});
    for (int64_t J = 0; J < 4; ++J)
      X[J] = E1[J] + T * (E2[J] - E1[J]);
    const Tensor Y = forwardConcretePoints(Layers, InShape, X);
    EXPECT_TRUE(stateContains(Final, T, Y, 1e-6)) << "t = " << T;
  }

  // Weights of an exact analysis sum to 1.
  double TotalWeight = 0.0;
  for (const auto &Piece : Final)
    TotalWeight += Piece.Weight;
  EXPECT_NEAR(TotalWeight, 1.0, 1e-9);
}

TEST_P(PropagateSoundness, RelaxedSegmentStillCoversSamples) {
  Rng R(GetParam() + 100);
  // Relaxation fires before conv layers, so build a conv pipeline.
  Sequential ConvNet;
  {
    auto L = std::make_unique<Linear>(3, 2 * 4 * 4);
    L->weight() = Tensor::randn({32, 3}, R, 0.8);
    L->bias() = Tensor::randn({32}, R, 0.3);
    ConvNet.add(std::move(L));
    ConvNet.add(std::make_unique<ReLU>());
    ConvNet.add(std::make_unique<Reshape>(2, 4, 4));
    auto C = std::make_unique<Conv2d>(2, 3, 3, 1, 1);
    C->weight() = Tensor::randn({3, 2, 3, 3}, R, 0.6);
    C->bias() = Tensor::randn({3}, R, 0.3);
    ConvNet.add(std::move(C));
    ConvNet.add(std::make_unique<ReLU>());
    ConvNet.add(std::make_unique<Flatten>());
    auto L2 = std::make_unique<Linear>(3 * 4 * 4, 2);
    L2->weight() = Tensor::randn({2, 48}, R, 0.5);
    L2->bias() = Tensor::randn({2}, R, 0.3);
    ConvNet.add(std::move(L2));
  }
  const auto Layers = ConvNet.view();
  const Shape InShape({1, 3});

  Tensor E1 = Tensor::randn({1, 3}, R);
  Tensor E2 = Tensor::randn({1, 3}, R);
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};

  PropagateConfig Config;
  Config.Relax.RelaxPercent = 0.8; // aggressive boxing
  Config.Relax.ClusterK = 4.0;
  Config.Relax.NodeThreshold = 2; // relax even tiny chains
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  const auto Final = propagateRegions(Layers, InShape, std::move(Init),
                                      Config, Memory, Stats);
  ASSERT_FALSE(Stats.OutOfMemory);
  ASSERT_FALSE(Final.empty());

  // Soundness: every sampled output is inside the abstract state.
  for (int Trial = 0; Trial < 60; ++Trial) {
    const double T = R.uniform();
    Tensor X({1, 3});
    for (int64_t J = 0; J < 3; ++J)
      X[J] = E1[J] + T * (E2[J] - E1[J]);
    const Tensor Y = forwardConcretePoints(Layers, InShape, X);
    EXPECT_TRUE(stateContains(Final, T, Y, 1e-6)) << "t = " << T;
  }

  // Mass is preserved by relaxation.
  double TotalWeight = 0.0;
  for (const auto &Piece : Final)
    TotalWeight += Piece.Weight;
  EXPECT_NEAR(TotalWeight, 1.0, 1e-9);
}

TEST_P(PropagateSoundness, QuadraticCurveExact) {
  Rng R(GetParam() + 200);
  Sequential Net = makeRandomMlp(R, {3, 8, 6, 2});
  const auto Layers = Net.view();
  const Shape InShape({1, 3});

  Tensor A0 = Tensor::randn({1, 3}, R);
  Tensor A1 = Tensor::randn({1, 3}, R);
  Tensor A2 = Tensor::randn({1, 3}, R);
  std::vector<Region> Init{makeQuadraticRegion(A0, A1, A2)};

  const PropagateConfig Config;
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  const auto Final = propagateRegions(Layers, InShape, std::move(Init),
                                      Config, Memory, Stats);
  ASSERT_FALSE(Stats.OutOfMemory);

  for (int Trial = 0; Trial < 60; ++Trial) {
    const double T = R.uniform();
    Tensor X({1, 3});
    for (int64_t J = 0; J < 3; ++J)
      X[J] = A0[J] + A1[J] * T + A2[J] * T * T;
    const Tensor Y = forwardConcretePoints(Layers, InShape, X);
    EXPECT_TRUE(stateContains(Final, T, Y, 1e-6)) << "t = " << T;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagateSoundness,
                         ::testing::Values(1u, 7u, 42u, 1234u, 9999u));

TEST(Propagate, BoxRegionThroughReluIsIntervalRelu) {
  Sequential Net;
  Net.add(std::make_unique<ReLU>());
  Tensor C({1, 2}, {-1.0, 2.0});
  Tensor R({1, 2}, {0.5, 1.0});
  std::vector<Region> Init{makeBoxRegion(C, R, 1.0)};
  PropagateConfig Config;
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  const auto Final = propagateRegions(Net.view(), Shape({1, 2}),
                                      std::move(Init), Config, Memory, Stats);
  ASSERT_EQ(Final.size(), 1u);
  // Dim 0: [-1.5, -0.5] -> [0, 0]; dim 1: [1, 3] unchanged.
  EXPECT_NEAR(Final[0].Center[0], 0.0, 1e-12);
  EXPECT_NEAR(Final[0].Radius[0], 0.0, 1e-12);
  EXPECT_NEAR(Final[0].Center[1], 2.0, 1e-12);
  EXPECT_NEAR(Final[0].Radius[1], 1.0, 1e-12);
}

TEST(Propagate, SegmentSplitCountMatchesCrossings) {
  // One linear layer to 2 dims; crossings at t = 0.25 and t = 0.75.
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 2);
  L->weight() = Tensor({2, 1}, {1.0, 1.0});
  L->bias() = Tensor({2}, {-0.25, -0.75});
  Net.add(std::move(L));
  Net.add(std::make_unique<ReLU>());

  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};
  PropagateConfig Config;
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  const auto Final = propagateRegions(Net.view(), Shape({1, 1}),
                                      std::move(Init), Config, Memory, Stats);
  EXPECT_EQ(Final.size(), 3u);
  EXPECT_EQ(Stats.NumSplits, 2);
  // Weights: 0.25, 0.5, 0.25 under the uniform distribution.
  double Weights[3] = {Final[0].Weight, Final[1].Weight, Final[2].Weight};
  std::sort(Weights, Weights + 3);
  EXPECT_NEAR(Weights[0], 0.25, 1e-9);
  EXPECT_NEAR(Weights[1], 0.25, 1e-9);
  EXPECT_NEAR(Weights[2], 0.5, 1e-9);
}

TEST(Propagate, MemoryBudgetTriggersOom) {
  Rng R(77);
  Sequential Net = makeRandomMlp(R, {4, 64, 64, 8});
  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};
  PropagateConfig Config;
  DeviceMemoryModel Memory(128); // absurdly small budget
  PropagateStats Stats;
  const auto Final = propagateRegions(Net.view(), Shape({1, 4}),
                                      std::move(Init), Config, Memory, Stats);
  EXPECT_TRUE(Stats.OutOfMemory);
  EXPECT_TRUE(Final.empty());
  EXPECT_TRUE(Memory.exhausted());
}

TEST(Propagate, ArcsineCdfWeightsSplits) {
  // Crossing at t = 0.5; arcsine CDF gives F(0.5) = 0.5 (symmetric), but a
  // crossing at t = 0.25 gives F(0.25) = 2/pi * asin(0.5) = 1/3.
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 1);
  L->weight() = Tensor({1, 1}, {1.0});
  L->bias() = Tensor({1}, {-0.25});
  Net.add(std::move(L));
  Net.add(std::make_unique<ReLU>());

  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};
  PropagateConfig Config;
  Config.Cdf = [](double T) {
    return 2.0 / M_PI * std::asin(std::sqrt(std::clamp(T, 0.0, 1.0)));
  };
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  const auto Final = propagateRegions(Net.view(), Shape({1, 1}),
                                      std::move(Init), Config, Memory, Stats);
  ASSERT_EQ(Final.size(), 2u);
  double WLow = Final[0].T0 < 0.1 ? Final[0].Weight : Final[1].Weight;
  EXPECT_NEAR(WLow, 1.0 / 3.0, 1e-9);
}

} // namespace
} // namespace genprove
