//===- tests/box_domain_test.cpp - interval baseline ------------*- C++ -*-===//

#include "src/domains/box_domain.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.7);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.4);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

class BoxSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoxSoundness, CertificationAgreesWithSamples) {
  Rng R(GetParam());
  Sequential Net = makeRandomMlp(R, {4, 8, 6, 3});
  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  for (int SpecTrial = 0; SpecTrial < 15; ++SpecTrial) {
    Tensor Normal = Tensor::randn({1, 3}, R);
    const OutputSpec Spec = OutputSpec::halfspace(Normal, R.normal(0.0, 3.0));
    DeviceMemoryModel Memory;
    const ConvexResult Result =
        analyzeBoxMulti(Net.view(), Shape({1, 4}), E1, E2, {Spec}, Memory)
            .front();
    for (int Trial = 0; Trial < 30; ++Trial) {
      const double T = R.uniform();
      Tensor X({1, 4});
      for (int64_t J = 0; J < 4; ++J)
        X[J] = E1[J] + T * (E2[J] - E1[J]);
      const Tensor Y = Net.forward(X);
      if (Result.Bounds.Lower >= 1.0) {
        EXPECT_TRUE(Spec.satisfied(Y));
      }
      if (Result.Bounds.Upper <= 0.0) {
        EXPECT_FALSE(Spec.satisfied(Y));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxSoundness, ::testing::Values(3u, 8u, 21u));

TEST(BoxDomain, DegenerateSegmentIsAPoint) {
  Rng R(1);
  Sequential Net = makeRandomMlp(R, {2, 4, 2});
  Tensor E = Tensor::randn({1, 2}, R);
  const Tensor Y = Net.forward(E);
  const OutputSpec Spec = OutputSpec::argmaxWins(
      Y[0] > Y[1] ? 0 : 1, 2);
  DeviceMemoryModel Memory;
  const ConvexResult Result =
      analyzeBoxMulti(Net.view(), Shape({1, 2}), E, E, {Spec}, Memory)
          .front();
  // A point input stays exact under interval arithmetic (no crossing
  // uncertainty unless a pre-activation is exactly zero).
  EXPECT_DOUBLE_EQ(Result.Bounds.Lower, 1.0);
}

TEST(BoxDomain, IsCoarserThanNothingButStillSound) {
  // The box domain must never certify a property that a concrete
  // counterexample violates, even on a wide segment.
  Rng R(2);
  Sequential Net = makeRandomMlp(R, {3, 16, 16, 2});
  Tensor E1 = Tensor::full({1, 3}, -2.0);
  Tensor E2 = Tensor::full({1, 3}, 2.0);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  DeviceMemoryModel Memory;
  const ConvexResult Result =
      analyzeBoxMulti(Net.view(), Shape({1, 3}), E1, E2, {Spec}, Memory)
          .front();
  if (Result.Bounds.Lower >= 1.0) {
    for (int Trial = 0; Trial < 200; ++Trial) {
      const double T = R.uniform();
      Tensor X({1, 3});
      for (int64_t J = 0; J < 3; ++J)
        X[J] = E1[J] + T * (E2[J] - E1[J]);
      EXPECT_TRUE(Spec.satisfied(Net.forward(X)));
    }
  }
}

} // namespace
} // namespace genprove
