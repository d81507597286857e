//===- tests/relu_split_test.cpp - exact ReLU split, bit for bit -*- C++ -*-===//
//
// The region engine's exact ReLU split runs as row loops over raw
// coefficient rows, and Flatten/Reshape change only the engine's shape.
// Both are pinned here bit for bit against a naive per-component
// reference: the split as it was written through Tensor::at,
// curveComponentRoots and evalCurveComponent.
//
//===----------------------------------------------------------------------===//

#include "src/core/distribution.h"
#include "src/domains/propagate.h"
#include "src/nn/activations.h"
#include "src/nn/reshape.h"
#include "src/parallel/thread_pool.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

namespace genprove {
namespace {

/// The engine's merge gap between two split points.
constexpr double SplitEps = 1e-9;

/// Reference split of one curve: every component's roots, sorted and
/// merged within SplitEps, then one piece per gap masked by the sign of
/// each component at the piece's midpoint.
void naiveReluCurve(const Region &Curve, const ParamCdf &Cdf,
                    std::vector<Region> &Out, int64_t &NumSplits) {
  const int64_t N = Curve.dim();
  std::vector<double> Cuts;
  Cuts.push_back(Curve.T0);
  Cuts.push_back(Curve.T1);
  for (int64_t J = 0; J < N; ++J)
    curveComponentRoots(Curve, J, Cuts);
  std::sort(Cuts.begin(), Cuts.end());
  Cuts.erase(std::unique(Cuts.begin(), Cuts.end(),
                         [](double A, double B) { return B - A < SplitEps; }),
             Cuts.end());
  if (Cuts.size() == 1)
    Cuts.push_back(Curve.T1);
  Cuts.front() = Curve.T0;
  Cuts.back() = Curve.T1;

  const auto F = [&](double T) { return Cdf ? Cdf(T) : T; };
  const int64_t Degree = Curve.degree();
  for (size_t I = 0; I + 1 < Cuts.size(); ++I) {
    const double T0 = Cuts[I];
    const double T1 = Cuts[I + 1];
    const double Tm = 0.5 * (T0 + T1);
    Region Piece;
    Piece.Kind = RegionKind::Curve;
    Piece.T0 = T0;
    Piece.T1 = T1;
    Piece.Weight = F(T1) - F(T0);
    Piece.Coeffs = Tensor({Degree + 1, N});
    for (int64_t J = 0; J < N; ++J)
      if (evalCurveComponent(Curve, Tm, J) > 0.0)
        for (int64_t D = 0; D <= Degree; ++D)
          Piece.Coeffs.at(D, J) = Curve.Coeffs.at(D, J);
    Out.push_back(std::move(Piece));
  }
  NumSplits += static_cast<int64_t>(Cuts.size()) - 2;
}

/// Reference round-to-nearest interval ReLU of a box.
Region naiveReluBox(Region Box) {
  for (int64_t J = 0; J < Box.dim(); ++J) {
    const double Lo = std::max(Box.Center[J] - Box.Radius[J], 0.0);
    const double Hi = std::max(Box.Center[J] + Box.Radius[J], 0.0);
    Box.Center[J] = 0.5 * (Lo + Hi);
    Box.Radius[J] = 0.5 * (Hi - Lo);
  }
  return Box;
}

bool sameBits(const Tensor &A, const Tensor &B) {
  return A.shape() == B.shape() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.numel()) * sizeof(double)) == 0;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectSameRegions(const std::vector<Region> &Got,
                       const std::vector<Region> &Want,
                       const std::string &Where) {
  ASSERT_EQ(Got.size(), Want.size()) << Where;
  for (size_t I = 0; I < Got.size(); ++I) {
    const Region &G = Got[I], &W = Want[I];
    const std::string At = Where + ", region " + std::to_string(I);
    ASSERT_EQ(G.Kind, W.Kind) << At;
    EXPECT_TRUE(sameBits(G.Weight, W.Weight)) << At;
    if (G.Kind == RegionKind::Curve) {
      EXPECT_TRUE(sameBits(G.T0, W.T0)) << At;
      EXPECT_TRUE(sameBits(G.T1, W.T1)) << At;
      EXPECT_TRUE(sameBits(G.Coeffs, W.Coeffs)) << At;
    } else {
      EXPECT_TRUE(sameBits(G.Center, W.Center)) << At;
      EXPECT_TRUE(sameBits(G.Radius, W.Radius)) << At;
    }
  }
}

/// Set one component of a curve: Coeffs(D, J) = C[D].
void setComponent(Region &Curve, int64_t J, std::initializer_list<double> C) {
  int64_t D = 0;
  for (double V : C)
    Curve.Coeffs.at(D++, J) = V;
}

/// Seeded degree-1 and degree-2 curves and boxes, with the edge cases of
/// the split planted in fixed components: zero slopes, roots at and within
/// SplitEps of the interval ends, root pairs closer than SplitEps, tangent
/// quadratics, -0.0 coefficients, and components that are exactly zero at
/// every piece midpoint (all-zero coefficients of either sign).
std::vector<Region> splitCases(int64_t N) {
  Rng R(20);
  std::vector<Region> Cases;
  const std::pair<double, double> Spans[] = {
      {0.0, 1.0}, {0.25, 0.75}, {0.125, 0.625}, {0.5, 0.5 + 5e-10}};
  for (const auto &[T0, T1] : Spans) {
    // Degree 1.
    Tensor A = Tensor::randn({1, N}, R);
    Tensor B = Tensor::randn({1, N}, R, 2.0);
    Region Seg = makeSegmentRegion(A, B, T1 - T0, T0, T1);
    const double Mid = 0.5 * (T0 + T1);
    const double Rt = T0 + 0.3 * (T1 - T0);
    setComponent(Seg, 0, {0.7, 0.0});                // zero slope
    setComponent(Seg, 1, {-2.0 * T0, 2.0});          // root at T0
    setComponent(Seg, 2, {4.0 * T1, -4.0});          // root at T1
    setComponent(Seg, 3, {-(T0 + 4e-10), 1.0});      // root just inside T0
    setComponent(Seg, 4, {T1 - 3e-10, -1.0});        // root just inside T1
    setComponent(Seg, 5, {-Rt, 1.0});                // a root ...
    setComponent(Seg, 6, {-(Rt + 6e-10), 1.0});      // ... and its close twin
    setComponent(Seg, 7, {-0.0, -0.0});              // zero at every t
    setComponent(Seg, 8, {-0.0, 0.0});
    setComponent(Seg, 9, {0.0, -0.0});
    setComponent(Seg, 10, {1.0, -0.0});              // -0.0 slope
    setComponent(Seg, 11, {-Mid, 1.0});              // root at the midpoint
    Cases.push_back(std::move(Seg));

    // Degree 2.
    Tensor A0 = Tensor::randn({1, N}, R);
    Tensor A1 = Tensor::randn({1, N}, R, 3.0);
    Tensor A2 = Tensor::randn({1, N}, R, 3.0);
    Region Quad = makeQuadraticRegion(A0, A1, A2, T1 - T0, T0, T1);
    // Tangent at a dyadic point: the discriminant is exactly zero.
    const double Tan = T0 + 0.375 * (T1 - T0);
    setComponent(Quad, 0, {-0.5, 2.0, 0.0});         // linear in disguise
    setComponent(Quad, 1, {0.25, 0.0, 0.0});         // constant
    setComponent(Quad, 2, {Tan * Tan, -2.0 * Tan, 1.0});
    setComponent(Quad, 3, {-Tan * Tan, 2.0 * Tan, -1.0});
    setComponent(Quad, 4, {Rt * (Rt + 5e-10), -(2.0 * Rt + 5e-10), 1.0});
    setComponent(Quad, 5, {T0 * T1, -(T0 + T1), 1.0}); // roots at the ends
    setComponent(Quad, 6, {-0.0, -0.0, -0.0});
    setComponent(Quad, 7, {-0.0, 0.0, -0.0});
    setComponent(Quad, 8, {0.0, -0.0, 0.0});
    setComponent(Quad, 9, {1.0, 0.0, 1.0});          // no real root
    setComponent(Quad, 10, {-1.0, -0.0, 0.0});       // -0.0 slope, A2 = 0
    Cases.push_back(std::move(Quad));

    // A box between the curves.
    Tensor C = Tensor::randn({1, N}, R);
    Tensor Rad = Tensor::rand({1, N}, R, 0.0, 1.5);
    Cases.push_back(makeBoxRegion(C, Rad, 0.125));
  }
  return Cases;
}

int64_t nodesOf(const std::vector<Region> &Rs) {
  int64_t Nodes = 0;
  for (const Region &R : Rs)
    Nodes += R.nodes();
  return Nodes;
}

struct PoolScope {
  explicit PoolScope(int64_t Threads) {
    ThreadPool::global().setThreads(Threads);
  }
  ~PoolScope() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

TEST(ReluSplit, BitwiseEqualToNaiveReference) {
  constexpr int64_t N = 98; // 2x7x7: vector loops run a tail
  const std::vector<Region> Cases = splitCases(N);
  const ReLU Relu;
  const std::pair<const char *, ParamCdf> Cdfs[] = {
      {"uniform", ParamCdf()},
      {"arcsine", makeCdf(ParamDistribution::Arcsine)}};

  for (const auto &[CdfName, Cdf] : Cdfs) {
    // The reference: per region, in order; the engine charges the running
    // node count after every input region, then the committed state.
    std::vector<Region> Want;
    int64_t WantSplits = 0;
    std::vector<size_t> WantCharges{stateBytes(nodesOf(Cases), N)};
    int64_t Running = 0;
    for (const Region &In : Cases) {
      const size_t Before = Want.size();
      if (In.Kind == RegionKind::Box)
        Want.push_back(naiveReluBox(In));
      else
        naiveReluCurve(In, Cdf, Want, WantSplits);
      Running += In.Kind == RegionKind::Box
                     ? 2
                     : static_cast<int64_t>(Want.size() - Before) *
                           (In.degree() + 1);
      WantCharges.push_back(stateBytes(Running, N));
    }
    WantCharges.push_back(stateBytes(nodesOf(Want), N));
    ASSERT_GT(WantSplits, static_cast<int64_t>(Cases.size()));

    for (int64_t Threads : {1, 4}) {
      PoolScope Scope(Threads);
      const std::string Where =
          std::string(CdfName) + ", threads " + std::to_string(Threads);
      PropagateConfig Config;
      Config.Cdf = Cdf;
      DeviceMemoryModel Memory;
      std::vector<size_t> Charges;
      Memory.setInterceptor([&](size_t Bytes) {
        Charges.push_back(Bytes);
        return false;
      });
      PropagateStats Stats;
      const std::vector<Region> Got = propagateRegions(
          {&Relu}, Shape({1, N}), Cases, Config, Memory, Stats);

      expectSameRegions(Got, Want, Where);
      EXPECT_EQ(Stats.NumSplits, WantSplits) << Where;
      EXPECT_EQ(Charges, WantCharges) << Where;
      ASSERT_EQ(Stats.Layers.size(), 1u) << Where;
      const LayerRecord &Rec = Stats.Layers[0];
      EXPECT_STREQ(Rec.Kind, "ReLU") << Where;
      EXPECT_EQ(Rec.RegionsIn, static_cast<int64_t>(Cases.size())) << Where;
      EXPECT_EQ(Rec.RegionsOut, static_cast<int64_t>(Want.size())) << Where;
      EXPECT_EQ(Rec.NodesIn, nodesOf(Cases)) << Where;
      EXPECT_EQ(Rec.NodesOut, nodesOf(Want)) << Where;
      EXPECT_EQ(Rec.Splits, WantSplits) << Where;
      EXPECT_EQ(Rec.ChargedBytes, stateBytes(nodesOf(Want), N)) << Where;
    }
  }

  // Regions are stored flat: Reshape and Flatten leave every bit as it
  // was, and still record their layer and charge their state.
  const Reshape ToImage(2, 7, 7);
  const Flatten ToRows;
  for (int64_t Threads : {1, 4}) {
    PoolScope Scope(Threads);
    const std::string Where = "reshapes, threads " + std::to_string(Threads);
    PropagateConfig Config;
    DeviceMemoryModel Memory;
    PropagateStats Stats;
    const std::vector<Region> Got = propagateRegions(
        {&ToImage, &ToRows}, Shape({1, N}), Cases, Config, Memory, Stats);
    expectSameRegions(Got, Cases, Where);
    ASSERT_EQ(Stats.Layers.size(), 2u) << Where;
    EXPECT_STREQ(Stats.Layers[0].Kind, "Reshape") << Where;
    EXPECT_STREQ(Stats.Layers[1].Kind, "Flatten") << Where;
    for (const LayerRecord &Rec : Stats.Layers) {
      EXPECT_EQ(Rec.RegionsIn, static_cast<int64_t>(Cases.size())) << Where;
      EXPECT_EQ(Rec.RegionsOut, static_cast<int64_t>(Cases.size())) << Where;
      EXPECT_EQ(Rec.NodesOut, nodesOf(Cases)) << Where;
      EXPECT_EQ(Rec.ChargedBytes, stateBytes(nodesOf(Cases), N)) << Where;
    }
    EXPECT_EQ(Memory.peakBytes(), stateBytes(nodesOf(Cases), N)) << Where;
  }
}

} // namespace
} // namespace genprove
