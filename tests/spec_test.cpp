//===- tests/spec_test.cpp - output spec and bound computation --*- C++ -*-===//

#include "src/core/distribution.h"
#include "src/core/spec.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace genprove {
namespace {

TEST(Spec, ArgmaxMembership) {
  const OutputSpec Spec = OutputSpec::argmaxWins(1, 3);
  EXPECT_TRUE(Spec.satisfied(Tensor({1, 3}, {0.0, 2.0, 1.0})));
  EXPECT_FALSE(Spec.satisfied(Tensor({1, 3}, {3.0, 2.0, 1.0})));
  // Ties are not strict wins.
  EXPECT_FALSE(Spec.satisfied(Tensor({1, 3}, {2.0, 2.0, 1.0})));
}

TEST(Spec, AttributeSignMembership) {
  const OutputSpec Pos = OutputSpec::attributeSign(2, true, 4);
  EXPECT_TRUE(Pos.satisfied(Tensor({1, 4}, {0.0, 0.0, 0.5, 0.0})));
  EXPECT_FALSE(Pos.satisfied(Tensor({1, 4}, {0.0, 0.0, -0.5, 0.0})));
  const OutputSpec Neg = OutputSpec::attributeSign(0, false, 4);
  EXPECT_TRUE(Neg.satisfied(Tensor({1, 4}, {-1.0, 0.0, 0.0, 0.0})));
}

TEST(Spec, BoxContainmentAndIntersectionForArgmax) {
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  // Box: y0 in [2, 3], y1 in [0, 1] -> fully contained.
  Tensor C({1, 2}, {2.5, 0.5});
  Tensor R({1, 2}, {0.5, 0.5});
  EXPECT_TRUE(Spec.boxContained(C, R));
  EXPECT_TRUE(Spec.boxIntersects(C, R));
  // Box: y0 in [0, 1], y1 in [2, 3] -> disjoint.
  Tensor C2({1, 2}, {0.5, 2.5});
  EXPECT_FALSE(Spec.boxContained(C2, R));
  EXPECT_FALSE(Spec.boxIntersects(C2, R));
  // Box straddling the boundary.
  Tensor C3({1, 2}, {1.0, 1.0});
  EXPECT_FALSE(Spec.boxContained(C3, R));
  EXPECT_TRUE(Spec.boxIntersects(C3, R));
}

TEST(Spec, CurveMassExactForKnownCrossing) {
  // Segment in 2-D output space from (1, 0) to (0, 1): argmax 0 wins for
  // t < 0.5 exactly.
  Tensor A({1, 2}, {1.0, 0.0});
  Tensor B({1, 2}, {0.0, 1.0});
  const Region Seg = makeSegmentRegion(A, B);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  EXPECT_NEAR(curveMassInside(Seg, Spec), 0.5, 1e-12);
}

TEST(Spec, CurveMassRespectsArcsineCdf) {
  // Same crossing at t = 0.5; arcsine is symmetric -> still 0.5. Crossing
  // at t = 0.25 (via a scaled segment) gives F(0.25) = 1/3.
  Tensor A({1, 1}, {0.25});
  Tensor B({1, 1}, {-0.75}); // crosses 0 at t = 0.25
  const Region Seg = makeSegmentRegion(A, B);
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  const auto Cdf = makeCdf(ParamDistribution::Arcsine);
  EXPECT_NEAR(curveMassInside(Seg, Spec, Cdf), 1.0 / 3.0, 1e-9);
}

TEST(Spec, CurveMassQuadraticTwoCrossings) {
  // Output component (t - 0.25)(t - 0.75): positive outside [0.25, 0.75].
  Tensor A0({1, 1}, {0.1875});
  Tensor A1({1, 1}, {-1.0});
  Tensor A2({1, 1}, {1.0});
  const Region Q = makeQuadraticRegion(A0, A1, A2);
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  EXPECT_NEAR(curveMassInside(Q, Spec), 0.5, 1e-9);
}

TEST(Spec, ComputeProbBoundsMixesSegmentsAndBoxes) {
  // A segment fully inside D with weight 0.4, a box inside with 0.3, a box
  // straddling with 0.2, a box outside with 0.1.
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  std::vector<Region> Regions;
  Regions.push_back(makeSegmentRegion(Tensor({1, 1}, {1.0}),
                                      Tensor({1, 1}, {2.0}), 0.4));
  Regions.back().Weight = 0.4;
  Regions.push_back(
      makeBoxRegion(Tensor({1, 1}, {3.0}), Tensor({1, 1}, {0.5}), 0.3));
  Regions.push_back(
      makeBoxRegion(Tensor({1, 1}, {0.0}), Tensor({1, 1}, {0.5}), 0.2));
  Regions.push_back(
      makeBoxRegion(Tensor({1, 1}, {-3.0}), Tensor({1, 1}, {0.5}), 0.1));
  const ProbBounds Bounds = computeProbBounds(Regions, Spec);
  EXPECT_NEAR(Bounds.Lower, 0.7, 1e-9); // 0.4 + 0.3
  EXPECT_NEAR(Bounds.Upper, 0.9, 1e-9); // 0.4 + 0.3 + 0.2
}

TEST(Spec, DeterministicCollapse) {
  EXPECT_DOUBLE_EQ((ProbBounds{1.0, 1.0, false}).deterministic().Lower, 1.0);
  EXPECT_DOUBLE_EQ((ProbBounds{0.0, 0.0, false}).deterministic().Upper, 0.0);
  const ProbBounds Mid{0.3, 0.8, false};
  EXPECT_DOUBLE_EQ(Mid.deterministic().Lower, 0.0);
  EXPECT_DOUBLE_EQ(Mid.deterministic().Upper, 1.0);
  EXPECT_FALSE(Mid.deterministic().nonTrivial());
  EXPECT_TRUE(Mid.nonTrivial());
  const ProbBounds Oom{0.5, 0.6, true};
  EXPECT_TRUE(Oom.deterministic().OutOfMemory);
}

TEST(Spec, SegmentWeightScalesPartialMass) {
  // Segment crossing at its middle but carrying weight 0.5 over a
  // sub-interval: the inside mass should be half its weight.
  Tensor A({1, 1}, {1.0});
  Tensor B({1, 1}, {-1.0});
  const Region Seg = makeSegmentRegion(A, B, 0.5, 0.2, 0.6);
  // Crossing of gamma at global t where value = 0: the segment spans
  // values 1 -> -1 over [0.2, 0.6], so zero at t = 0.4 (its middle).
  const OutputSpec Spec = OutputSpec::attributeSign(0, true, 1);
  EXPECT_NEAR(curveMassInside(Seg, Spec), 0.25, 1e-9);
}

TEST(Spec, ParsesOutputSpecText) {
  // Valid forms: each parses into the same halfspaces as its constructor.
  const auto ExpectSame = [](const OutputSpec &Got, const OutputSpec &Want,
                             const std::string &Text) {
    ASSERT_EQ(Got.halfspaces().size(), Want.halfspaces().size()) << Text;
    for (size_t I = 0; I < Want.halfspaces().size(); ++I) {
      const auto &G = Got.halfspaces()[I];
      const auto &W = Want.halfspaces()[I];
      EXPECT_EQ(G.Offset, W.Offset) << Text << " halfspace " << I;
      ASSERT_EQ(G.Normal.numel(), W.Normal.numel()) << Text;
      for (int64_t J = 0; J < W.Normal.numel(); ++J)
        EXPECT_EQ(G.Normal[J], W.Normal[J]) << Text << " halfspace " << I;
    }
  };
  const std::vector<std::pair<std::string, OutputSpec>> Valid = {
      {"argmax:2:3", OutputSpec::argmaxWins(2, 3)},
      {"argmax:0:2", OutputSpec::argmaxWins(0, 2)},
      {"sign:1:+:4", OutputSpec::attributeSign(1, true, 4)},
      {"sign:0:-:1", OutputSpec::attributeSign(0, false, 1)},
      {"halfspace:-0.5:1,-2.5e1,3",
       OutputSpec::halfspace(Tensor({1, 3}, {1.0, -25.0, 3.0}), -0.5)},
      {"halfspace:2:.25", OutputSpec::halfspace(Tensor({1, 1}, {0.25}), 2.0)},
  };
  for (const auto &[Text, Want] : Valid) {
    OutputSpec Got;
    std::string Err;
    EXPECT_TRUE(parseOutputSpecText(Text, Got, &Err)) << Text << ": " << Err;
    ExpectSame(Got, Want, Text);
  }

  // Malformed forms: each is rejected with its kind's message.
  const std::string Argmax = "argmax spec wants argmax:T:N";
  const std::string Sign = "sign spec wants sign:I:+|-:N";
  const std::string Halfspace = "halfspace spec wants halfspace:C:g0,g1,...";
  const std::string Coefficient =
      "halfspace spec has a non-numeric coefficient";
  const std::vector<std::pair<std::string, std::string>> Invalid = {
      {"argmax:1", Argmax},
      {"argmax:1:3:4", Argmax},
      {"argmax:0:3x", Argmax},
      {"argmax:+1:3", Argmax},
      {"argmax: 1:3", Argmax},
      {"argmax:0x1:3", Argmax},
      {"argmax:99999999999999999999:3", Argmax},
      {"argmax:3:3", "argmax spec target out of range"},
      {"argmax:-1:3", "argmax spec target out of range"},
      {"argmax:0:1", "argmax spec target out of range"},
      {"sign:0:+", Sign},
      {"sign:0:*:2", Sign},
      {"sign:a:+:2", Sign},
      {"sign:2:+:2", "sign spec attribute out of range"},
      {"sign:0:-:0", "sign spec attribute out of range"},
      {"halfspace:1", Halfspace},
      {"halfspace:nan:1", Halfspace},
      {"halfspace:inf:1", Halfspace},
      {"halfspace:+1:1", Halfspace},
      {"halfspace:0x1p0:1", Halfspace},
      {"halfspace:1:1,x", Coefficient},
      {"halfspace:1:1,,2", Coefficient},
      {"halfspace:1:", Coefficient},
      {"halfspace:1:1e999", Coefficient},
      {"", "unknown spec kind (use argmax / sign / halfspace)"},
      {"margin:0:3", "unknown spec kind (use argmax / sign / halfspace)"},
  };
  for (const auto &[Text, Message] : Invalid) {
    OutputSpec Got;
    std::string Err;
    EXPECT_FALSE(parseOutputSpecText(Text, Got, &Err)) << Text;
    EXPECT_EQ(Err, Message) << Text;
    OutputSpec Quiet;
    EXPECT_FALSE(parseOutputSpecText(Text, Quiet)) << Text << " (no Err)";
  }
}

} // namespace
} // namespace genprove
