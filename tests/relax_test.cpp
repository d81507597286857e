//===- tests/relax_test.cpp - relaxation heuristic tests --------*- C++ -*-===//

#include "src/domains/relaxation.h"
#include "src/parallel/thread_pool.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace genprove {
namespace {

/// A chain of NumPieces connected random segments over [0, 1], with
/// weights proportional to parameter length.
std::vector<Region> makeChain(Rng &R, int64_t NumPieces, int64_t Dim) {
  std::vector<Region> Chain;
  Tensor Prev = Tensor::randn({1, Dim}, R);
  for (int64_t I = 0; I < NumPieces; ++I) {
    Tensor Next = Prev.clone();
    for (int64_t J = 0; J < Dim; ++J)
      Next[J] += R.normal(0.0, I % 7 == 0 ? 1.0 : 0.05); // mixed lengths
    const double T0 = static_cast<double>(I) / NumPieces;
    const double T1 = static_cast<double>(I + 1) / NumPieces;
    Chain.push_back(makeSegmentRegion(Prev, Next, T1 - T0, T0, T1));
    Prev = Next;
  }
  return Chain;
}

TEST(Relax, ShortChainsAreLeftExact) {
  Rng R(1);
  auto Chain = makeChain(R, 20, 4);
  RelaxConfig Config;
  Config.RelaxPercent = 0.5;
  Config.ClusterK = 5.0;
  Config.NodeThreshold = 100; // chain has only 21 nodes
  const size_t Before = Chain.size();
  relaxRegions(Chain, Config);
  EXPECT_EQ(Chain.size(), Before);
  for (const auto &Piece : Chain)
    EXPECT_EQ(Piece.Kind, RegionKind::Curve);
}

TEST(Relax, ZeroPercentIsExact) {
  Rng R(2);
  auto Chain = makeChain(R, 200, 4);
  RelaxConfig Config;
  Config.RelaxPercent = 0.0;
  Config.NodeThreshold = 10;
  const size_t Before = Chain.size();
  relaxRegions(Chain, Config);
  EXPECT_EQ(Chain.size(), Before);
}

TEST(Relax, BoxesShortSegmentsAndPreservesMass) {
  Rng R(3);
  auto Chain = makeChain(R, 300, 4);
  double MassBefore = 0.0;
  for (const auto &Piece : Chain)
    MassBefore += Piece.Weight;

  RelaxConfig Config;
  Config.RelaxPercent = 0.9;
  Config.ClusterK = 10.0;
  Config.NodeThreshold = 50;
  relaxRegions(Chain, Config);

  double MassAfter = 0.0;
  int64_t NumBoxes = 0;
  for (const auto &Piece : Chain) {
    MassAfter += Piece.Weight;
    NumBoxes += Piece.Kind == RegionKind::Box;
  }
  EXPECT_NEAR(MassAfter, MassBefore, 1e-9);
  EXPECT_GT(NumBoxes, 0);
  EXPECT_LT(Chain.size(), 300u); // the state actually shrank
}

TEST(Relax, ClusterBudgetCapsBoxSpan) {
  Rng R(4);
  // Uniform tiny segments: everything below the percentile cap.
  std::vector<Region> Chain;
  Tensor Prev = Tensor::zeros({1, 2});
  const int64_t N = 400;
  for (int64_t I = 0; I < N; ++I) {
    Tensor Next = Prev.clone();
    Next[0] += 0.01;
    const double T0 = static_cast<double>(I) / N;
    const double T1 = static_cast<double>(I + 1) / N;
    Chain.push_back(makeSegmentRegion(Prev, Next, T1 - T0, T0, T1));
    Prev = Next;
  }
  RelaxConfig Config;
  Config.RelaxPercent = 1.0; // every length is <= the 100th percentile
  Config.ClusterK = 20.0;    // per-step budget = 401/20 = 20 endpoints
  Config.NodeThreshold = 50;
  relaxRegions(Chain, Config);

  // Each box may cover at most ~20 pieces of weight 1/400 each.
  for (const auto &Piece : Chain) {
    if (Piece.Kind == RegionKind::Box) {
      EXPECT_LE(Piece.Weight, 21.0 / 400.0 + 1e-9);
    }
  }
}

TEST(Relax, SoundnessBoxesCoverReplacedSegments) {
  Rng R(5);
  auto Chain = makeChain(R, 300, 3);
  // Remember the originals to check coverage after relaxation.
  const std::vector<Region> Original = Chain;

  RelaxConfig Config;
  Config.RelaxPercent = 1.0;
  Config.ClusterK = 8.0;
  Config.NodeThreshold = 10;
  relaxRegions(Chain, Config);

  // Every original sample point must be covered by the relaxed state.
  for (int Trial = 0; Trial < 300; ++Trial) {
    const auto &Seg = Original[R.below(Original.size())];
    const double T = R.uniform(Seg.T0, Seg.T1);
    const Tensor P = evalCurve(Seg, T);
    bool Covered = false;
    for (const auto &Piece : Chain) {
      if (Piece.Kind == RegionKind::Curve) {
        if (T < Piece.T0 - 1e-12 || T > Piece.T1 + 1e-12)
          continue;
        const Tensor Q = evalCurve(Piece, T);
        bool Match = true;
        for (int64_t J = 0; J < Q.numel() && Match; ++J)
          if (std::fabs(Q[J] - P[J]) > 1e-9)
            Match = false;
        Covered |= Match;
      } else {
        bool Inside = true;
        for (int64_t J = 0; J < P.numel() && Inside; ++J)
          if (std::fabs(P[J] - Piece.Center[J]) > Piece.Radius[J] + 1e-9)
            Inside = false;
        Covered |= Inside;
      }
      if (Covered)
        break;
    }
    EXPECT_TRUE(Covered);
  }
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

// evalCurve (behind curveChordLength, the sampler and the spec checks)
// evaluates each component as the literal chain (0 + a0*1) + a1*t +
// a2*(t*t): degree 1 and 2 pieces on sub-intervals of [0, 1], with
// coefficients spread over many magnitudes and some exact and negative
// zeros, so any other add chain or power evaluation would round
// differently somewhere.
TEST(Relax, EvalCurveIsTheLiteralAddChain) {
  Rng R(17);
  for (int64_t Degree : {int64_t(1), int64_t(2)})
    for (int64_t Dim : {int64_t(1), int64_t(7), int64_t(768)})
      for (int Trial = 0; Trial < 20; ++Trial) {
        Region C;
        C.Kind = RegionKind::Curve;
        C.T0 = R.uniform(0.0, 0.9);
        C.T1 = C.T0 + R.uniform(1e-9, 1.0 - C.T0);
        C.Coeffs = Tensor({Degree + 1, Dim});
        for (int64_t I = 0; I < C.Coeffs.numel(); ++I) {
          const double U = R.uniform();
          C.Coeffs[I] = U < 0.1   ? 0.0
                        : U < 0.2 ? -0.0
                                  : R.normal(0.0, std::pow(10.0, R.uniform(
                                                                  -6.0, 6.0)));
        }
        for (const double T : {C.T0, C.T1, 0.5 * (C.T0 + C.T1)}) {
          const Tensor P = evalCurve(C, T);
          for (int64_t J = 0; J < Dim; ++J) {
            double Ref =
                (0.0 + C.Coeffs.at(0, J) * 1.0) + C.Coeffs.at(1, J) * T;
            if (Degree == 2)
              Ref += C.Coeffs.at(2, J) * (T * T);
            ASSERT_TRUE(sameBits(P[J], Ref))
                << "degree " << Degree << ", dim " << Dim << ", trial "
                << Trial << ", component " << J << ": " << P[J] << " vs "
                << Ref;
          }
        }
      }
}

// relaxRegions computes the lengths on the pool; the relaxed chain must
// not depend on the thread count.
TEST(Relax, RelaxedChainIsTheSameAtAnyThreadCount) {
  std::vector<Region> Out[2];
  const int64_t Threads[2] = {1, 4};
  for (int Side = 0; Side < 2; ++Side) {
    ThreadPool::global().setThreads(Threads[Side]);
    Rng R(5);
    Out[Side] = makeChain(R, 300, 16);
    RelaxConfig Config;
    Config.RelaxPercent = 0.5;
    Config.ClusterK = 10.0;
    Config.NodeThreshold = 10;
    relaxRegions(Out[Side], Config);
  }
  ThreadPool::global().setThreads(ThreadPool::envThreads());
  ASSERT_EQ(Out[0].size(), Out[1].size());
  for (size_t I = 0; I < Out[0].size(); ++I) {
    const Region &A = Out[0][I], &B = Out[1][I];
    ASSERT_EQ(A.Kind, B.Kind) << I;
    EXPECT_TRUE(sameBits(A.Weight, B.Weight)) << I;
    const Tensor &TA = A.Kind == RegionKind::Curve ? A.Coeffs : A.Center;
    const Tensor &TB = B.Kind == RegionKind::Curve ? B.Coeffs : B.Center;
    ASSERT_EQ(TA.numel(), TB.numel()) << I;
    EXPECT_EQ(std::memcmp(TA.data(), TB.data(),
                          static_cast<size_t>(TA.numel()) * sizeof(double)),
              0)
        << I;
  }
}

TEST(Relax, TotalNodesCountsCurveAndBoxNodes) {
  Tensor A({1, 2}, {0.0, 0.0});
  Tensor B({1, 2}, {1.0, 1.0});
  std::vector<Region> Regions;
  Regions.push_back(makeSegmentRegion(A, B)); // 2 nodes
  Regions.push_back(makeBoxRegion(A, B, 0.5)); // 2 nodes
  Regions.push_back(makeQuadraticRegion(A, B, A)); // 3 nodes
  EXPECT_EQ(totalNodes(Regions), 7);
}

} // namespace
} // namespace genprove
