//===- tests/zonotope_test.cpp - zonotope family baselines ------*- C++ -*-===//

#include "src/domains/hybrid_zonotope.h"
#include "src/domains/zonotope.h"
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
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.8);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.5);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

Tensor forwardConcrete(Sequential &Net, const Tensor &X) {
  return Net.forward(X);
}

struct ZonoCase {
  uint64_t Seed;
  ZonotopeKind Kind;
};

/// gtest_discover_tests names each case by its printed parameter, so
/// print seed1_Zonotope rather than the struct's bytes, padding included.
/// (A name generator would not do: the discovered name would keep the
/// printed bytes after it.)
void PrintTo(const ZonoCase &C, std::ostream *Out) {
  *Out << "seed" << C.Seed << "_"
       << (C.Kind == ZonotopeKind::Zonotope   ? "Zonotope"
           : C.Kind == ZonotopeKind::DeepZono ? "DeepZono"
                                              : "HybridZono");
}

class ZonotopeSoundness : public ::testing::TestWithParam<ZonoCase> {};

TEST_P(ZonotopeSoundness, CertifiedContainmentIsSound) {
  Rng R(GetParam().Seed);
  Sequential Net = makeRandomMlp(R, {3, 8, 6, 2});
  Tensor E1 = Tensor::randn({1, 3}, R);
  Tensor E2 = Tensor::randn({1, 3}, R);

  // Use many random halfspace specs; whenever the zonotope certifies
  // containment / disjointness, every concrete sample must agree.
  for (int SpecTrial = 0; SpecTrial < 20; ++SpecTrial) {
    Tensor Normal = Tensor::randn({1, 2}, R);
    const double Offset = R.normal(0.0, 2.0);
    const OutputSpec Spec = OutputSpec::halfspace(Normal, Offset);

    DeviceMemoryModel Memory;
    const ConvexResult Result =
        analyzeZonotopeMulti(Net.view(), Shape({1, 3}), E1, E2, {Spec},
                             GetParam().Kind, Memory)
            .front();
    ASSERT_FALSE(Result.Bounds.OutOfMemory);

    for (int Trial = 0; Trial < 40; ++Trial) {
      const double T = R.uniform();
      Tensor X({1, 3});
      for (int64_t J = 0; J < 3; ++J)
        X[J] = E1[J] + T * (E2[J] - E1[J]);
      const Tensor Y = forwardConcrete(Net, X);
      const bool Sat = Spec.satisfied(Y);
      if (Result.Bounds.Lower >= 1.0) {
        EXPECT_TRUE(Sat) << "certified-contained but sample violates";
      }
      if (Result.Bounds.Upper <= 0.0) {
        EXPECT_FALSE(Sat) << "certified-disjoint but sample satisfies";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKinds, ZonotopeSoundness,
    ::testing::Values(ZonoCase{1, ZonotopeKind::Zonotope},
                      ZonoCase{1, ZonotopeKind::DeepZono},
                      ZonoCase{5, ZonotopeKind::Zonotope},
                      ZonoCase{5, ZonotopeKind::DeepZono},
                      ZonoCase{9, ZonotopeKind::Zonotope},
                      ZonoCase{9, ZonotopeKind::DeepZono}));

TEST(Zonotope, ExactThroughPureAffine) {
  Rng R(3);
  Sequential Net;
  auto L = std::make_unique<Linear>(2, 2);
  L->weight() = Tensor({2, 2}, {1.0, 2.0, -1.0, 0.5});
  L->bias() = Tensor({2}, {0.5, -0.5});
  Net.add(std::move(L));
  Tensor E1({1, 2}, {0.0, 0.0});
  Tensor E2({1, 2}, {1.0, 1.0});
  // Spec chosen to separate exactly: outputs range over the affine image
  // of the segment; certified containment must match the true min.
  Tensor Normal({1, 2}, {1.0, 0.0});
  // Output0 = x0 + 2 x1 + 0.5 ranges over [0.5, 3.5]; spec y0 > 0 holds.
  const OutputSpec Spec = OutputSpec::halfspace(Normal, 0.0);
  DeviceMemoryModel Memory;
  const ConvexResult Result =
      analyzeZonotopeMulti(Net.view(), Shape({1, 2}), E1, E2, {Spec},
                           ZonotopeKind::DeepZono, Memory)
          .front();
  EXPECT_DOUBLE_EQ(Result.Bounds.Lower, 1.0);
}

TEST(Zonotope, GeneratorCountGrowsThroughRelu) {
  Rng R(4);
  Sequential Net = makeRandomMlp(R, {3, 32, 32, 2});
  Tensor E1 = Tensor::randn({1, 3}, R, 2.0);
  Tensor E2 = Tensor::randn({1, 3}, R, 2.0);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  DeviceMemoryModel Memory;
  const ConvexResult Result =
      analyzeZonotopeMulti(Net.view(), Shape({1, 3}), E1, E2, {Spec},
                           ZonotopeKind::DeepZono, Memory)
          .front();
  EXPECT_GT(Result.MaxGenerators, 1);
}

TEST(Zonotope, SmallBudgetTriggersOom) {
  Rng R(5);
  Sequential Net = makeRandomMlp(R, {3, 64, 64, 2});
  Tensor E1 = Tensor::randn({1, 3}, R, 2.0);
  Tensor E2 = Tensor::randn({1, 3}, R, 2.0);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  DeviceMemoryModel Memory(256);
  const ConvexResult Result =
      analyzeZonotopeMulti(Net.view(), Shape({1, 3}), E1, E2, {Spec},
                           ZonotopeKind::Zonotope, Memory)
          .front();
  EXPECT_TRUE(Result.Bounds.OutOfMemory);
}

class HybridSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HybridSoundness, CertifiedContainmentIsSound) {
  Rng R(GetParam());
  Sequential Net = makeRandomMlp(R, {3, 10, 8, 2});
  Tensor E1 = Tensor::randn({1, 3}, R);
  Tensor E2 = Tensor::randn({1, 3}, R);
  for (int SpecTrial = 0; SpecTrial < 20; ++SpecTrial) {
    Tensor Normal = Tensor::randn({1, 2}, R);
    const double Offset = R.normal(0.0, 2.0);
    const OutputSpec Spec = OutputSpec::halfspace(Normal, Offset);
    DeviceMemoryModel Memory;
    const ConvexResult Result =
        analyzeHybridZonotopeMulti(Net.view(), Shape({1, 3}), E1, E2, {Spec},
                                   Memory)
            .front();
    // Hybrid keeps a constant generator count.
    EXPECT_EQ(Result.MaxGenerators, 1);
    for (int Trial = 0; Trial < 40; ++Trial) {
      const double T = R.uniform();
      Tensor X({1, 3});
      for (int64_t J = 0; J < 3; ++J)
        X[J] = E1[J] + T * (E2[J] - E1[J]);
      const Tensor Y = Net.forward(X);
      const bool Sat = Spec.satisfied(Y);
      if (Result.Bounds.Lower >= 1.0) {
        EXPECT_TRUE(Sat);
      }
      if (Result.Bounds.Upper <= 0.0) {
        EXPECT_FALSE(Sat);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridSoundness,
                         ::testing::Values(2u, 6u, 11u));

} // namespace
} // namespace genprove
