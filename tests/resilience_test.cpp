//===- tests/resilience_test.cpp - degradation ladder & fault injection -===//
///
/// Covers the resilience layer end to end: saturating device accounting,
/// lowest-mass boxing, checkpointed rollback under injected OOM at every
/// layer, the interval fallback, deadline expiry on an injected clock,
/// non-finite quarantine, and the Appendix C refinement schedules.
///
/// The soundness oracle throughout: a degraded probabilistic interval must
/// contain the interval the unlimited-budget exact analysis produces.

#include "src/core/genprove.h"
#include "src/domains/fault_injection.h"
#include "src/domains/propagate.h"
#include "src/domains/relaxation.h"
#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/nn/linear.h"
#include "src/nn/reshape.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

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

/// [Lower, Upper] of \p Outer contains \p Inner (up to float slack).
void expectContains(const ProbBounds &Outer, const ProbBounds &Inner) {
  EXPECT_LE(Outer.Lower, Inner.Lower + 1e-9);
  EXPECT_GE(Outer.Upper, Inner.Upper - 1e-9);
}

// ---------------------------------------------------------------------------
// Satellite: saturating device-memory accounting.
// ---------------------------------------------------------------------------

TEST(MemoryModel, StateBytesSaturatesInsteadOfWrapping) {
  constexpr size_t Saturated = std::numeric_limits<size_t>::max();
  // Honest sizes are exact.
  EXPECT_EQ(stateBytes(3, 4), 3u * 4u * sizeof(double));
  EXPECT_EQ(stateBytes(0, 1000), 0u);
  // Corrupt (negative) bookkeeping saturates: any finite budget rejects it.
  EXPECT_EQ(stateBytes(-1, 4), Saturated);
  EXPECT_EQ(stateBytes(4, -1), Saturated);
  EXPECT_EQ(stateBytes(std::numeric_limits<int64_t>::min(), 8), Saturated);
  // Products that overflow 64 bits saturate instead of wrapping to a small
  // number that would silently pass the budget check.
  const int64_t Big = int64_t(1) << 40;
  EXPECT_EQ(stateBytes(Big, Big), Saturated);
  // sizeof(double) multiply can overflow on its own.
  EXPECT_EQ(stateBytes(int64_t(1) << 31, int64_t(1) << 31), Saturated);

  DeviceMemoryModel Memory(1 << 20);
  EXPECT_FALSE(Memory.chargeState(Big, Big));
  EXPECT_TRUE(Memory.exhausted());
  DeviceMemoryModel Fresh(1 << 20);
  EXPECT_FALSE(Fresh.chargeState(-1, 16));
}

TEST(MemoryModel, TryChargeLeavesModelUntouchedOnFailure) {
  DeviceMemoryModel Memory(1024);
  EXPECT_TRUE(Memory.tryChargeState(16, 4)); // 512 bytes
  EXPECT_EQ(Memory.peakBytes(), 512u);
  // A failing tryCharge must not poison the peak — rollback depends on it.
  EXPECT_FALSE(Memory.tryChargeState(64, 4)); // 2048 bytes > budget
  EXPECT_EQ(Memory.peakBytes(), 512u);
  EXPECT_FALSE(Memory.exhausted());
  EXPECT_TRUE(Memory.tryChargeState(24, 4)); // 768 bytes still fits
  EXPECT_EQ(Memory.peakBytes(), 768u);
  // The legacy charge() records the failed peak (paper semantics).
  EXPECT_FALSE(Memory.chargeState(64, 4));
  EXPECT_TRUE(Memory.exhausted());
}

TEST(MemoryModel, InterceptorForcesChargeFailure) {
  DeviceMemoryModel Memory; // unlimited budget
  FaultInjector Injector({/*OomAtLayer=*/2, /*OomFireCount=*/1});
  Injector.arm(Memory);
  Injector.beginLayer(2, /*FallbackCheap=*/false);
  EXPECT_FALSE(Memory.tryChargeState(1, 1)); // first charge at layer 2 fails
  EXPECT_TRUE(Memory.tryChargeState(1, 1));  // shot spent
  EXPECT_EQ(Injector.injectedOoms(), 1);
}

// ---------------------------------------------------------------------------
// Lowest-mass boxing (the LocalBox rung's coarsening primitive).
// ---------------------------------------------------------------------------

TEST(Relaxation, BoxLowestMassRegionsKeepsHeavyCurvesAndMass) {
  Rng R(5);
  std::vector<Region> Regions;
  const double Weights[] = {0.05, 0.10, 0.15, 0.30, 0.40};
  for (double W : Weights) {
    Tensor A = Tensor::randn({1, 6}, R);
    Tensor B = Tensor::randn({1, 6}, R);
    Regions.push_back(makeSegmentRegion(A, B, W));
  }
  ASSERT_EQ(totalNodes(Regions), 10);

  std::vector<Region> Before = Regions;
  EXPECT_TRUE(boxLowestMassRegions(Regions, /*TargetNodes=*/6));
  EXPECT_LE(totalNodes(Regions), 6);

  // Mass is preserved exactly.
  double Total = 0.0;
  for (const Region &Piece : Regions)
    Total += Piece.Weight;
  EXPECT_NEAR(Total, 1.0, 1e-12);

  // The heaviest curves survive untouched; the light ones were merged into
  // a single box that covers them (spot-check the endpoints).
  int64_t Curves = 0, Boxes = 0;
  for (const Region &Piece : Regions) {
    if (Piece.Kind == RegionKind::Curve) {
      ++Curves;
      EXPECT_GE(Piece.Weight, 0.30 - 1e-12);
    } else {
      ++Boxes;
      for (const Region &Old : Before) {
        if (Old.Weight > 0.15 + 1e-12)
          continue; // survived as a curve
        for (double T : {Old.T0, Old.T1}) {
          const Tensor P = evalCurve(Old, T);
          for (int64_t J = 0; J < P.numel(); ++J) {
            EXPECT_LE(P[J], Piece.Center[J] + Piece.Radius[J] + 1e-9);
            EXPECT_GE(P[J], Piece.Center[J] - Piece.Radius[J] - 1e-9);
          }
        }
      }
    }
  }
  EXPECT_EQ(Curves, 2);
  EXPECT_EQ(Boxes, 1);

  // Already under target: nothing happens.
  EXPECT_FALSE(boxLowestMassRegions(Regions, 1000));
}

// ---------------------------------------------------------------------------
// Injected OOM: checkpointed rollback and the interval fallback.
// ---------------------------------------------------------------------------

/// Fixture holding the genprove_mknet pipeline (Linear, ReLU, Linear,
/// ReLU, Linear) and its unlimited-budget exact bounds as the oracle.
class InjectedOom : public ::testing::Test {
protected:
  void SetUp() override {
    Rng R(321);
    Net = makeRandomMlp(R, {4, 16, 16, 3});
    Start = Tensor::randn({1, 4}, R);
    End = Tensor::randn({1, 4}, R);
    Spec = OutputSpec::argmaxWins(0, 3);
    const GenProve Exact(GenProveConfig{});
    ExactResult =
        Exact.analyzeSegment(Net.view(), Shape({1, 4}), Start, End, Spec);
    ASSERT_FALSE(ExactResult.OutOfMemory);
    ASSERT_FALSE(ExactResult.Degraded);
  }

  AnalysisResult runWithFaults(const FaultPlan &Plan,
                               double DeadlineSeconds = 0.0) {
    FaultInjector Injector(Plan);
    GenProveConfig Config;
    Config.Resilience.Enabled = true;
    Config.Resilience.Faults = &Injector;
    Config.Resilience.DeadlineSeconds = DeadlineSeconds;
    if (Plan.ClockSkewSecondsPerLayer > 0.0)
      Config.Resilience.Clock = Injector.clock();
    const GenProve Analyzer(Config);
    AnalysisResult Result =
        Analyzer.analyzeSegment(Net.view(), Shape({1, 4}), Start, End, Spec);
    FinalClockSeconds = Injector.nowSeconds();
    return Result;
  }

  Sequential Net;
  Tensor Start, End;
  OutputSpec Spec;
  AnalysisResult ExactResult;
  double FinalClockSeconds = 0.0;
};

TEST_F(InjectedOom, EveryLayerYieldsSoundDegradedBounds) {
  const int64_t NumLayers = static_cast<int64_t>(Net.view().size());
  ASSERT_EQ(NumLayers, 5);
  for (int64_t L = 0; L < NumLayers; ++L) {
    SCOPED_TRACE("oom injected at layer " + std::to_string(L));
    FaultPlan Plan;
    Plan.OomAtLayer = L;
    const AnalysisResult Result = runWithFaults(Plan);
    EXPECT_FALSE(Result.OutOfMemory);
    EXPECT_TRUE(Result.Degraded);
    EXPECT_TRUE(Result.Bounds.Degraded);
    EXPECT_GE(Result.Rollbacks + Result.FallbackBoxLayers, 1);
    expectContains(Result.Bounds, ExactResult.Bounds);
    // The timeline shows every layer executed exactly once.
    ASSERT_EQ(static_cast<int64_t>(Result.Layers.size()), NumLayers);
    for (int64_t I = 0; I < NumLayers; ++I)
      EXPECT_EQ(Result.Layers[I].Index, I);
  }
}

TEST_F(InjectedOom, MidPipelineOomDoesNotReexecuteEarlierLayers) {
  FaultPlan Plan;
  Plan.OomAtLayer = 3; // the second ReLU, where the state is widest
  const AnalysisResult Result = runWithFaults(Plan);
  EXPECT_FALSE(Result.OutOfMemory);
  EXPECT_TRUE(Result.Degraded);
  ASSERT_EQ(Result.Layers.size(), 5u);
  // Rollbacks are confined to the failing layer: layers before the
  // checkpoint keep a clean record (they were never re-run) and the
  // failing layer records the retry.
  for (const LayerRecord &Rec : Result.Layers) {
    if (Rec.Index < 3) {
      EXPECT_EQ(Rec.Rollbacks, 0) << "layer " << Rec.Index;
      EXPECT_EQ(Rec.Rung, DegradeRung::None) << "layer " << Rec.Index;
    }
  }
  EXPECT_GE(Result.Layers[3].Rollbacks, 1);
  EXPECT_NE(Result.Layers[3].Rung, DegradeRung::None);
  expectContains(Result.Bounds, ExactResult.Bounds);
}

TEST_F(InjectedOom, ExhaustedRetriesFallBackToIntervalBox) {
  FaultPlan Plan;
  Plan.OomAtLayer = 1;
  Plan.OomFireCount = 1000; // outlast MaxLayerRetries: local boxing is hopeless
  const AnalysisResult Result = runWithFaults(Plan);
  EXPECT_FALSE(Result.OutOfMemory);
  EXPECT_TRUE(Result.Degraded);
  EXPECT_EQ(Result.Rung, DegradeRung::FullBox);
  EXPECT_GE(Result.FallbackBoxLayers, 4); // layers 1..4 run under fallback
  expectContains(Result.Bounds, ExactResult.Bounds);
}

TEST_F(InjectedOom, DegradedRunsBumpMetricsCounters) {
  static Counter &DegradedCtr =
      MetricsRegistry::global().counter("propagate.degraded");
  static Counter &FallbackCtr =
      MetricsRegistry::global().counter("propagate.fallback_box");
  static Counter &RollbackCtr =
      MetricsRegistry::global().counter("propagate.rollbacks");
  setMetricsEnabled(true);
  const int64_t Degraded0 = DegradedCtr.value();
  const int64_t Fallback0 = FallbackCtr.value();
  const int64_t Rollback0 = RollbackCtr.value();
  FaultPlan Plan;
  Plan.OomAtLayer = 1;
  Plan.OomFireCount = 1000;
  runWithFaults(Plan);
  setMetricsEnabled(false);
  EXPECT_GT(DegradedCtr.value(), Degraded0);
  EXPECT_GT(FallbackCtr.value(), Fallback0);
  EXPECT_GT(RollbackCtr.value(), Rollback0);
}

// ---------------------------------------------------------------------------
// Deadlines on the injected clock.
// ---------------------------------------------------------------------------

TEST_F(InjectedOom, DeadlineExpiryLiftsToFallbackWithinOneLayerSlack) {
  FaultPlan Plan;
  Plan.ClockSkewSecondsPerLayer = 0.005; // 5 ms per layer
  const double Deadline = 0.001;         // 1 ms: expires at the first layer
  const AnalysisResult Result = runWithFaults(Plan, Deadline);
  EXPECT_FALSE(Result.OutOfMemory);
  EXPECT_TRUE(Result.Degraded);
  EXPECT_TRUE(Result.DeadlineHit);
  EXPECT_EQ(Result.Rung, DegradeRung::FullBox);
  EXPECT_EQ(Result.FallbackBoxLayers, 5);
  // Termination within deadline + one layer's slack: once expiry is
  // detected the remaining layers run at the (free) fallback rung, so the
  // injected clock never advances past the layer that noticed.
  EXPECT_LE(FinalClockSeconds, Deadline + Plan.ClockSkewSecondsPerLayer);
  expectContains(Result.Bounds, ExactResult.Bounds);
}

TEST_F(InjectedOom, GenerousDeadlineDoesNotDegrade) {
  FaultPlan Plan;
  Plan.ClockSkewSecondsPerLayer = 0.005;
  const AnalysisResult Result = runWithFaults(Plan, /*Deadline=*/10.0);
  EXPECT_FALSE(Result.Degraded);
  EXPECT_FALSE(Result.DeadlineHit);
  EXPECT_NEAR(Result.Bounds.Lower, ExactResult.Bounds.Lower, 1e-12);
  EXPECT_NEAR(Result.Bounds.Upper, ExactResult.Bounds.Upper, 1e-12);
}

// ---------------------------------------------------------------------------
// Non-finite quarantine.
// ---------------------------------------------------------------------------

TEST_F(InjectedOom, NanPoisoningIsQuarantinedAndWidensSoundly) {
  FaultPlan Plan;
  Plan.NanAtLayer = 2;
  const AnalysisResult Result = runWithFaults(Plan);
  EXPECT_FALSE(Result.OutOfMemory);
  EXPECT_TRUE(Result.Degraded);
  EXPECT_GT(Result.QuarantinedMass, 0.0);
  EXPECT_TRUE(std::isfinite(Result.QuarantinedMass));
  // Quarantined mass is unaccounted-for probability: the upper bound must
  // absorb it, and the interval must stay sound and NaN-free.
  expectContains(Result.Bounds, ExactResult.Bounds);
  EXPECT_TRUE(std::isfinite(Result.Bounds.Lower));
  EXPECT_TRUE(std::isfinite(Result.Bounds.Upper));
  EXPECT_GE(Result.Bounds.Lower, 0.0);
  EXPECT_LE(Result.Bounds.Upper, 1.0);
}

TEST(FaultInjection, RegionIsFiniteDetectsPoison) {
  Rng R(9);
  std::vector<Region> Regions;
  Regions.push_back(
      makeSegmentRegion(Tensor::randn({1, 3}, R), Tensor::randn({1, 3}, R)));
  Regions.push_back(makeBoxRegion(Tensor({1, 2}, {0.0, 1.0}),
                                  Tensor({1, 2}, {0.5, 0.5}), 1.0));
  for (const Region &Piece : Regions)
    EXPECT_TRUE(regionIsFinite(Piece));
  FaultInjector Injector;
  Injector.poisonRegions(Regions);
  for (const Region &Piece : Regions)
    EXPECT_FALSE(regionIsFinite(Piece));
}

// ---------------------------------------------------------------------------
// Satellite: the Appendix C retry path (legacy full-restart schedules).
// ---------------------------------------------------------------------------

TEST(RefinementSchedule, TightBudgetRetriesEscalateAndStaySound) {
  Rng R(11);
  // Relaxation fires before conv layers, so the escalation needs a conv
  // pipeline to have any effect.
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
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);

  // Calibrate a budget between the exact peak and the heavily-relaxed
  // peak, so the exact first attempt OOMs and an escalated retry fits.
  GenProveConfig ExactConfig;
  const AnalysisResult Exact = GenProve(ExactConfig)
                                   .analyzeSegment(Layers, Shape({1, 3}),
                                                   Start, End, Spec);
  ASSERT_FALSE(Exact.OutOfMemory);
  GenProveConfig RelaxedConfig;
  RelaxedConfig.RelaxPercent = 1.0;
  RelaxedConfig.ClusterK = 5.0;
  RelaxedConfig.NodeThreshold = 2;
  const AnalysisResult Relaxed = GenProve(RelaxedConfig)
                                     .analyzeSegment(Layers, Shape({1, 3}),
                                                     Start, End, Spec);
  ASSERT_FALSE(Relaxed.OutOfMemory);
  ASSERT_LT(Relaxed.PeakBytes, Exact.PeakBytes)
      << "relaxation must shrink the device peak for this test to bite";
  const size_t Budget = (Relaxed.PeakBytes + Exact.PeakBytes) / 2;

  static Counter &RetriesCtr =
      MetricsRegistry::global().counter("refine.retries");
  for (RefinementSchedule Schedule :
       {RefinementSchedule::A, RefinementSchedule::B}) {
    SCOPED_TRACE(Schedule == RefinementSchedule::A ? "schedule A"
                                                   : "schedule B");
    GenProveConfig Config;
    Config.MemoryBudgetBytes = Budget;
    Config.Schedule = Schedule;
    Config.ClusterK = 100.0;
    Config.NodeThreshold = 2;
    Config.MaxRetries = 50;
    setMetricsEnabled(true);
    const int64_t Retries0 = RetriesCtr.value();
    const AnalysisResult Result = GenProve(Config).analyzeSegment(
        Layers, Shape({1, 3}), Start, End, Spec);
    setMetricsEnabled(false);
    EXPECT_FALSE(Result.OutOfMemory);
    EXPECT_GT(Result.Retries, 0);
    EXPECT_EQ(RetriesCtr.value() - Retries0, Result.Retries);
    // Escalation left a trace: p grew from the configured 0.
    EXPECT_GT(Result.UsedRelaxPercent, 0.0);
    EXPECT_LE(Result.UsedClusterK, 100.0);
    // The coarsened analysis stays sound w.r.t. the exact bounds.
    expectContains(Result.Bounds, Exact.Bounds);
  }
}

} // namespace
} // namespace genprove
