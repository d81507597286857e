//===- tests/fused_test.cpp - W^T Linear vs the dot form --------*- C++ -*-===//
///
/// \file
/// The fused-kernel contract (docs/PERFORMANCE.md): Linear runs its
/// verifier interface on W^T, with one three-plane fusedBoxAffineRows
/// stream for the sound box map. Every analysis path (engine, box,
/// zonotope, deepzono, hybrid) must return bounds bit-identical to the
/// unfused dot form (a test-local dot-product loop over W and |W|, one
/// plane at a time) — at any thread count, in both rounding modes.
/// EXPECT_EQ on doubles, not a tolerance: the W^T kernels keep the exact
/// per-element ascending-k accumulation order of the dot form.
///
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/box_domain.h"
#include "src/domains/hybrid_zonotope.h"
#include "src/domains/zonotope.h"
#include "src/nn/activations.h"
#include "src/nn/architectures.h"
#include "src/nn/linear.h"
#include "src/parallel/thread_pool.h"
#include "src/util/fp.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <tuple>
#include <vector>

namespace genprove {
namespace {

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims,
                         double Scale = 0.8) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, Scale);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.4);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

/// The unfused reference for Linear: a test-local dot-product loop over W
/// and an elementwise |W| (the [Out, In] layout), a separate bias pass, one
/// plane at a time, and the bias image from zero rows through that loop.
/// It overrides the row forms every entry point and the engine run on. It
/// keeps Linear's kind and weights, so the engine and every domain run the
/// same code on both; only the kernels differ. The fingerprint is salted
/// so the PropagationCache never hands one net's state to the other.
class DotFormLinear : public Linear {
public:
  explicit DotFormLinear(const Linear &Src)
      : Linear(Src.inFeatures(), Src.outFeatures()),
        AbsWeight(Src.weight().shape()) {
    weight() = Src.weight();
    bias() = Src.bias();
    for (int64_t I = 0; I < AbsWeight.numel(); ++I)
      AbsWeight[I] = std::fabs(Src.weight()[I]);
  }

  void applyAffineRows(const Shape &, const double *const *In,
                       double *const *Out, int64_t Rows,
                       bool WithBias) const override {
    dot(In, Rows, weight(), Out);
    if (WithBias)
      for (int64_t I = 0; I < Rows; ++I)
        for (int64_t J = 0; J < outFeatures(); ++J)
          Out[I][J] += bias()[J];
  }
  void applyToBoxRows(const Shape &InShape, const double *const *Center,
                      const double *const *Radius, const double *const *Mag,
                      double *const *OutCenter, double *const *OutRadius,
                      double *const *OutMag, double *const *OutBiasImage,
                      int64_t Rows) const override {
    applyAffineRows(InShape, Center, OutCenter, Rows, /*WithBias=*/true);
    dot(Radius, Rows, AbsWeight, OutRadius);
    if (Mag)
      dot(Mag, Rows, AbsWeight, OutMag);
    if (OutBiasImage)
      zeroInputImageRows(InShape, OutBiasImage, Rows);
  }
  uint64_t fingerprint() const override {
    return hashing::hashU64(Linear::fingerprint(), 0xD07F0A11ULL);
  }

private:
  /// Out[i][j] = sum over ascending k of In[i][k] * M[j][k], from +0.0.
  void dot(const double *const *In, int64_t Rows, const Tensor &M,
           double *const *Out) const {
    for (int64_t I = 0; I < Rows; ++I)
      for (int64_t J = 0; J < outFeatures(); ++J) {
        double S = 0.0;
        for (int64_t K = 0; K < inFeatures(); ++K)
          S += In[I][K] * M.at(J, K);
        Out[I][J] = S;
      }
  }

  Tensor AbsWeight; // |W| [Out, In]
};

/// A layer view with every Linear swapped for its DotFormLinear twin; the
/// other layers are shared with the source view.
struct DotFormTwin {
  explicit DotFormTwin(const std::vector<const Layer *> &Source) {
    for (const Layer *L : Source) {
      if (L->kind() == Layer::Kind::Linear) {
        Owned.push_back(
            std::make_unique<DotFormLinear>(static_cast<const Linear &>(*L)));
        Layers.push_back(Owned.back().get());
      } else {
        Layers.push_back(L);
      }
    }
  }
  std::vector<std::unique_ptr<DotFormLinear>> Owned;
  std::vector<const Layer *> Layers;
};

/// Index of the first element where two tensors differ in bit pattern, or
/// -1 when they are bit-identical (0 on a size mismatch).
int64_t firstDifference(const Tensor &A, const Tensor &B) {
  if (A.numel() != B.numel())
    return 0;
  for (int64_t I = 0; I < A.numel(); ++I) {
    const double X = A[I], Y = B[I];
    if (std::memcmp(&X, &Y, sizeof(double)) != 0)
      return I;
  }
  return -1;
}

/// Every region of two propagated states, bit for bit.
void expectSameRegions(const PropagatedState &A, const PropagatedState &B,
                       const char *Name) {
  ASSERT_EQ(A.Regions.size(), B.Regions.size()) << Name;
  for (size_t I = 0; I < A.Regions.size(); ++I) {
    const Region &X = A.Regions[I];
    const Region &Y = B.Regions[I];
    ASSERT_EQ(X.Kind, Y.Kind) << Name << " region " << I;
    EXPECT_EQ(X.Weight, Y.Weight) << Name << " region " << I;
    EXPECT_EQ(X.T0, Y.T0) << Name << " region " << I;
    EXPECT_EQ(X.T1, Y.T1) << Name << " region " << I;
    EXPECT_EQ(firstDifference(X.Coeffs, Y.Coeffs), -1)
        << Name << " region " << I << " coeffs";
    EXPECT_EQ(firstDifference(X.Center, Y.Center), -1)
        << Name << " region " << I << " center";
    EXPECT_EQ(firstDifference(X.Radius, Y.Radius), -1)
        << Name << " region " << I << " radius";
  }
}

/// Pin the global pool for the test body, restore on scope exit.
struct PoolScope {
  explicit PoolScope(int64_t Threads) {
    ThreadPool::global().setThreads(Threads);
  }
  ~PoolScope() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

// ---------------------------------------------------------------------------
// Fused (W^T) == unfused (dot form), bit for bit.
// ---------------------------------------------------------------------------

/// (threads, sound rounding) grid shared by the bit-identity tests.
class FusedBitIdentity
    : public ::testing::TestWithParam<std::tuple<int64_t, bool>> {};

TEST_P(FusedBitIdentity, EngineBoundsMatchUnfused) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(61);
  Sequential Mlp = makeRandomMlp(R, {4, 14, 10, 3});
  // Relaxation boxes pieces right before convolutional layers only, so the
  // box rows that reach ConvSmall's Linear head need a conv pipeline.
  Sequential Decoder = makeDecoderSmall(4, 1, 8);
  Sequential Head = makeConvSmall(1, 8, 3);
  for (Sequential *Part : {&Decoder, &Head})
    for (const Param &P : Part->params())
      for (int64_t I = 0; I < P.Value->numel(); ++I)
        (*P.Value)[I] = R.uniform(-0.3, 0.3);
  std::vector<const Layer *> ConvNet = Decoder.view();
  for (const Layer *L : Head.view())
    ConvNet.push_back(L);

  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const std::vector<OutputSpec> Specs = {OutputSpec::argmaxWins(0, 3),
                                         OutputSpec::argmaxWins(2, 3)};

  GenProveConfig Exact;
  GenProveConfig Relaxed;
  Relaxed.RelaxPercent = 0.5;
  Relaxed.NodeThreshold = 1;
  struct Case {
    const char *Name;
    std::vector<const Layer *> Layers;
    GenProveConfig Config;
  };
  const std::vector<Case> Cases = {{"mlp exact", Mlp.view(), Exact},
                                   {"conv relaxed", ConvNet, Relaxed}};
  for (const Case &C : Cases) {
    const DotFormTwin Twin(C.Layers);
    const GenProve Analyzer(C.Config);
    const PropagatedState SA =
        Analyzer.propagateSegment(C.Layers, Shape({1, 4}), Start, End);
    const PropagatedState SB =
        Analyzer.propagateSegment(Twin.Layers, Shape({1, 4}), Start, End);
    ASSERT_FALSE(SA.OutOfMemory) << C.Name;
    ASSERT_FALSE(SB.OutOfMemory) << C.Name;
    const auto CountBoxes = [](const PropagatedState &S) {
      return std::count_if(
          S.Regions.begin(), S.Regions.end(),
          [](const Region &Rg) { return Rg.Kind == RegionKind::Box; });
    };
    if (C.Config.RelaxPercent > 0.0) {
      EXPECT_GT(CountBoxes(SA), 0) << C.Name;
    }
    expectSameRegions(SA, SB, C.Name);
    EXPECT_EQ(SA.Stats.MaxNodes, SB.Stats.MaxNodes) << C.Name;
    for (const OutputSpec &Spec : Specs) {
      const ProbBounds PA = Analyzer.boundsFor(SA, Spec);
      const ProbBounds PB = Analyzer.boundsFor(SB, Spec);
      EXPECT_EQ(PA.Lower, PB.Lower) << C.Name;
      EXPECT_EQ(PA.Upper, PB.Upper) << C.Name;
    }
  }
}

TEST_P(FusedBitIdentity, ConvexDomainsMatchUnfused) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(71);
  Sequential Net = makeRandomMlp(R, {3, 12, 8, 2});
  const DotFormTwin Twin(Net.view());
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const std::vector<OutputSpec> Specs = {OutputSpec::argmaxWins(0, 2),
                                         OutputSpec::argmaxWins(1, 2)};
  const Shape In({1, 3});
  DeviceMemoryModel Unlimited(0);

  struct Domain {
    const char *Name;
    std::function<std::vector<ConvexResult>(
        const std::vector<const Layer *> &)>
        Run;
  };
  const std::vector<Domain> Domains = {
      {"box",
       [&](const std::vector<const Layer *> &N) {
         return analyzeBoxMulti(N, In, Start, End, Specs, Unlimited);
       }},
      {"zonotope",
       [&](const std::vector<const Layer *> &N) {
         return analyzeZonotopeMulti(N, In, Start, End, Specs,
                                     ZonotopeKind::Zonotope, Unlimited);
       }},
      {"deepzono",
       [&](const std::vector<const Layer *> &N) {
         return analyzeZonotopeMulti(N, In, Start, End, Specs,
                                     ZonotopeKind::DeepZono, Unlimited);
       }},
      {"hybrid",
       [&](const std::vector<const Layer *> &N) {
         return analyzeHybridZonotopeMulti(N, In, Start, End, Specs,
                                           Unlimited);
       }},
  };

  for (const Domain &D : Domains) {
    const auto Fused = D.Run(Net.view());
    const auto Plain = D.Run(Twin.Layers);
    ASSERT_EQ(Plain.size(), Fused.size()) << D.Name;
    for (size_t J = 0; J < Plain.size(); ++J) {
      EXPECT_EQ(Plain[J].Bounds.Lower, Fused[J].Bounds.Lower)
          << D.Name << " spec " << J;
      EXPECT_EQ(Plain[J].Bounds.Upper, Fused[J].Bounds.Upper)
          << D.Name << " spec " << J;
      EXPECT_EQ(Plain[J].Bounds.OutOfMemory, Fused[J].Bounds.OutOfMemory)
          << D.Name;
    }
  }

  // The interval hulls behind those lifted bounds, bit for bit.
  const auto ExpectSameHull = [](const ZonotopeOutputBounds &A,
                                 const ZonotopeOutputBounds &B,
                                 const char *Name) {
    ASSERT_FALSE(A.OutOfMemory) << Name;
    ASSERT_FALSE(B.OutOfMemory) << Name;
    ASSERT_EQ(A.Lo.numel(), B.Lo.numel()) << Name;
    for (int64_t I = 0; I < A.Lo.numel(); ++I) {
      EXPECT_EQ(A.Lo[I], B.Lo[I]) << Name << " dim " << I;
      EXPECT_EQ(A.Hi[I], B.Hi[I]) << Name << " dim " << I;
    }
  };
  ExpectSameHull(
      zonotopeOutputBounds(Net.view(), In, Start, End, ZonotopeKind::Zonotope,
                           Unlimited),
      zonotopeOutputBounds(Twin.Layers, In, Start, End,
                           ZonotopeKind::Zonotope, Unlimited),
      "zonotope hull");
  ExpectSameHull(
      zonotopeOutputBounds(Net.view(), In, Start, End,
                           ZonotopeKind::HybridZono, Unlimited),
      zonotopeOutputBounds(Twin.Layers, In, Start, End,
                           ZonotopeKind::HybridZono, Unlimited),
      "hybrid hull");
}

/// Telemetry identity under a binding budget: the memory model charges
/// layer boundaries, not kernels, so the OOM point (and the reported
/// peak) cannot move with the kernel choice.
TEST_P(FusedBitIdentity, ZonotopeOomPointMatchesUnfused) {
  const int64_t Threads = std::get<0>(GetParam());
  const bool Sound = std::get<1>(GetParam());
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);

  Rng R(73);
  Sequential Net = makeRandomMlp(R, {3, 24, 24, 2});
  const DotFormTwin Twin(Net.view());
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  const Shape In({1, 3});

  // Probe the unlimited peak, then pin the budget just under it so the
  // propagation fails partway through the chain.
  DeviceMemoryModel Probe(0);
  const ConvexResult Full =
      analyzeZonotopeMulti(Net.view(), In, Start, End, {Spec},
                           ZonotopeKind::Zonotope, Probe)
          .front();
  ASSERT_FALSE(Full.Bounds.OutOfMemory);
  ASSERT_GT(Full.PeakBytes, 0u);

  DeviceMemoryModel TightA(Full.PeakBytes - 1);
  DeviceMemoryModel TightB(Full.PeakBytes - 1);
  const ConvexResult Plain =
      analyzeZonotopeMulti(Twin.Layers, In, Start, End, {Spec},
                           ZonotopeKind::Zonotope, TightA)
          .front();
  const ConvexResult Fused =
      analyzeZonotopeMulti(Net.view(), In, Start, End, {Spec},
                           ZonotopeKind::Zonotope, TightB)
          .front();
  EXPECT_TRUE(Fused.Bounds.OutOfMemory);
  EXPECT_EQ(Plain.Bounds.OutOfMemory, Fused.Bounds.OutOfMemory);
  EXPECT_EQ(Plain.PeakBytes, Fused.PeakBytes);
  EXPECT_EQ(Plain.Bounds.Lower, Fused.Bounds.Lower);
  EXPECT_EQ(Plain.Bounds.Upper, Fused.Bounds.Upper);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndRounding, FusedBitIdentity,
                         ::testing::Combine(::testing::Values<int64_t>(1, 4),
                                            ::testing::Bool()));

} // namespace
} // namespace genprove
