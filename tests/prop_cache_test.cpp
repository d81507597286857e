//===- tests/prop_cache_test.cpp - propagation cache ------------*- C++ -*-===//
///
/// \file
/// The PropagationCache contract (docs/PERFORMANCE.md): warm starts must
/// never change bounds (only skip work), plain and resilient runs share
/// entries while the resilient run is clean, entries must stay within the
/// byte budget with final states outliving intermediate ones, and a
/// weight mutation through any mutable accessor must invalidate the keys
/// (the AbsWeightCache generation regression).
///
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/fault_injection.h"
#include "src/domains/prop_cache.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/util/fp.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
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

/// Scoped cache budget: configures the process-wide cache and always
/// returns it to the disabled default so tests cannot leak state.
struct CacheScope {
  explicit CacheScope(size_t BudgetBytes) {
    PropagationCache::global().configure(BudgetBytes);
  }
  ~CacheScope() { PropagationCache::global().configure(0); }
};

// ---------------------------------------------------------------------------
// PropagationCache.
// ---------------------------------------------------------------------------

TEST(PropagationCacheTest, WarmStartIsHitAndBitIdentical) {
  CacheScope Cache(32u << 20);
  Rng R(11);
  Sequential Net = makeRandomMlp(R, {4, 12, 8, 3});
  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(1, 3);
  const GenProve Analyzer(GenProveConfig{});

  const auto Before = PropagationCache::global().snapshot();
  const PropagatedState Cold =
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End);
  const auto AfterCold = PropagationCache::global().snapshot();
  EXPECT_EQ(AfterCold.Misses, Before.Misses + 1);
  EXPECT_GT(AfterCold.Insertions, Before.Insertions);

  const PropagatedState Warm =
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End);
  const auto AfterWarm = PropagationCache::global().snapshot();
  EXPECT_EQ(AfterWarm.Hits, AfterCold.Hits + 1);

  const ProbBounds A = Analyzer.boundsFor(Cold, Spec);
  const ProbBounds B = Analyzer.boundsFor(Warm, Spec);
  EXPECT_EQ(A.Lower, B.Lower);
  EXPECT_EQ(A.Upper, B.Upper);
}

TEST(PropagationCacheTest, WarmEqualsColdUnderSoundRounding) {
  SoundRoundingScope Sound(true);
  Rng R(13);
  Sequential Net = makeRandomMlp(R, {4, 12, 8, 3});
  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 3);
  const GenProve Analyzer(GenProveConfig{});

  // Reference bounds with the cache off.
  const ProbBounds Reference = Analyzer.boundsFor(
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End), Spec);

  CacheScope Cache(32u << 20);
  const ProbBounds Cold = Analyzer.boundsFor(
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End), Spec);
  const ProbBounds Warm = Analyzer.boundsFor(
      Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End), Spec);
  EXPECT_EQ(Reference.Lower, Cold.Lower);
  EXPECT_EQ(Reference.Upper, Cold.Upper);
  EXPECT_EQ(Reference.Lower, Warm.Lower);
  EXPECT_EQ(Reference.Upper, Warm.Upper);
}

/// Two pipelines sharing a prefix (same decoder, different heads): the
/// second propagation must warm-start mid-network off the shared-prefix
/// boundary state, and still match its own cold bounds exactly.
TEST(PropagationCacheTest, PrefixSharedPipelinesWarmStartMidNetwork) {
  Rng R(17);
  Sequential Shared = makeRandomMlp(R, {4, 12, 8});
  auto HeadA = std::make_unique<Linear>(8, 3);
  HeadA->weight() = Tensor::randn({3, 8}, R, 0.8);
  HeadA->bias() = Tensor::randn({3}, R, 0.4);
  auto HeadB = std::make_unique<Linear>(8, 3);
  HeadB->weight() = Tensor::randn({3, 8}, R, 0.8);
  HeadB->bias() = Tensor::randn({3}, R, 0.4);

  std::vector<const Layer *> PipeA = Shared.view();
  PipeA.push_back(HeadA.get());
  std::vector<const Layer *> PipeB = Shared.view();
  PipeB.push_back(HeadB.get());

  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(2, 3);
  const GenProve Analyzer(GenProveConfig{});

  // Cold reference for pipeline B, cache off.
  const ProbBounds ColdB = Analyzer.boundsFor(
      Analyzer.propagateSegment(PipeB, Shape({1, 4}), Start, End), Spec);

  CacheScope Cache(32u << 20);
  (void)Analyzer.propagateSegment(PipeA, Shape({1, 4}), Start, End);
  const auto AfterA = PropagationCache::global().snapshot();
  const ProbBounds WarmB = Analyzer.boundsFor(
      Analyzer.propagateSegment(PipeB, Shape({1, 4}), Start, End), Spec);
  const auto AfterB = PropagationCache::global().snapshot();

  // B shares A's prefix boundary states: the probe finds one (a hit, not
  // a full-depth one), and the bounds still match B's own cold run.
  EXPECT_EQ(AfterB.Hits, AfterA.Hits + 1);
  EXPECT_EQ(WarmB.Lower, ColdB.Lower);
  EXPECT_EQ(WarmB.Upper, ColdB.Upper);
}

/// The AbsWeightCache generation regression: mutating a weight through a
/// mutable accessor must advance the generation, change the layer
/// fingerprint, and therefore miss the propagation cache instead of
/// serving bounds for the stale parameters.
TEST(PropagationCacheTest, WeightMutationInvalidatesCachedStates) {
  Rng R(19);
  auto L = std::make_unique<Linear>(3, 2);
  L->weight() = Tensor::randn({2, 3}, R, 0.8);
  L->bias() = Tensor::randn({2}, R, 0.4);
  Linear *Raw = L.get();
  Sequential Net;
  Net.add(std::move(L));

  const uint64_t FpBefore = Raw->fingerprint();
  const Tensor Start = Tensor::randn({1, 3}, R);
  const Tensor End = Tensor::randn({1, 3}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 2);
  const GenProve Analyzer(GenProveConfig{});

  CacheScope Cache(32u << 20);
  (void)Analyzer.propagateSegment(Net.view(), Shape({1, 3}), Start, End);

  // Mutate through the mutable accessor: generation and fingerprint move.
  Raw->weight()[0] += 0.25;
  const uint64_t FpAfter = Raw->fingerprint();
  EXPECT_NE(FpBefore, FpAfter);

  const auto BeforeRerun = PropagationCache::global().snapshot();
  const PropagatedState Fresh =
      Analyzer.propagateSegment(Net.view(), Shape({1, 3}), Start, End);
  const auto AfterRerun = PropagationCache::global().snapshot();
  EXPECT_EQ(AfterRerun.Misses, BeforeRerun.Misses + 1)
      << "stale entry served after weight mutation";

  // And the bounds match a cache-off propagation of the mutated net.
  PropagationCache::global().clear();
  PropagationCache::global().configure(0);
  const PropagatedState Reference =
      Analyzer.propagateSegment(Net.view(), Shape({1, 3}), Start, End);
  EXPECT_EQ(Analyzer.boundsFor(Fresh, Spec).Lower,
            Analyzer.boundsFor(Reference, Spec).Lower);
  EXPECT_EQ(Analyzer.boundsFor(Fresh, Spec).Upper,
            Analyzer.boundsFor(Reference, Spec).Upper);
}

TEST(PropagationCacheTest, EvictionKeepsBytesWithinBudget) {
  Rng R(23);
  Sequential Net = makeRandomMlp(R, {4, 16, 12, 3});
  const GenProve Analyzer(GenProveConfig{});

  // A budget far too small for every distinct query's boundary states.
  CacheScope Cache(16u << 10);
  const size_t Budget = PropagationCache::global().budgetBytes();
  for (int I = 0; I < 12; ++I) {
    const Tensor Start = Tensor::randn({1, 4}, R);
    const Tensor End = Tensor::randn({1, 4}, R);
    (void)Analyzer.propagateSegment(Net.view(), Shape({1, 4}), Start, End);
    EXPECT_LE(PropagationCache::global().bytes(), Budget);
  }
  const auto S = PropagationCache::global().snapshot();
  EXPECT_GT(S.Evictions, 0) << "budget never exerted pressure";
  EXPECT_LE(S.Bytes, S.BudgetBytes);
}

void expectSameBounds(const ProbBounds &Want, const ProbBounds &Got,
                      const char *What) {
  EXPECT_EQ(Want.Lower, Got.Lower) << What;
  EXPECT_EQ(Want.Upper, Got.Upper) << What;
}

/// Resilient runs are cache-eligible: a cold/warm pair is a full-depth hit
/// whose bounds equal a cache-off cold run bit for bit, in both rounding
/// modes, and entries cross between plain and resilient runs both ways.
TEST(PropagationCacheTest, ResilientRunsWarmStartBitIdenticallyToPlainRuns) {
  Rng R(31);
  Sequential Net = makeRandomMlp(R, {4, 12, 8, 3});
  const std::vector<const Layer *> Layers = Net.view();
  const auto Depth = static_cast<int64_t>(Layers.size());
  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  const OutputSpec Spec = OutputSpec::argmaxWins(1, 3);
  GenProveConfig ResilientConfig;
  ResilientConfig.Resilience.Enabled = true;
  const GenProve Plain(GenProveConfig{});
  const GenProve Resilient(ResilientConfig);
  const auto Run = [&](const GenProve &Analyzer) {
    return Analyzer.propagateSegment(Layers, Shape({1, 4}), Start, End);
  };
  PropagationCache &Cache = PropagationCache::global();

  for (const bool Sound : {false, true}) {
    SoundRoundingScope Rounding(Sound);
    const ProbBounds Reference = Plain.boundsFor(Run(Plain), Spec);

    CacheScope Scope(32u << 20);
    const auto Before = Cache.snapshot();
    const PropagatedState Cold = Run(Resilient);
    const auto AfterCold = Cache.snapshot();
    EXPECT_EQ(AfterCold.Misses, Before.Misses + 1);
    EXPECT_EQ(AfterCold.Insertions, Before.Insertions + Depth);
    const PropagatedState Warm = Run(Resilient);
    EXPECT_EQ(Cache.snapshot().Hits, AfterCold.Hits + 1);
    EXPECT_EQ(Warm.Stats.CacheWarmLayers, Depth);
    EXPECT_FALSE(Warm.Degraded);
    expectSameBounds(Reference, Resilient.boundsFor(Cold, Spec), "cold");
    expectSameBounds(Reference, Resilient.boundsFor(Warm, Spec), "warm");

    Cache.clear();
    (void)Run(Plain);
    const PropagatedState FromPlain = Run(Resilient);
    EXPECT_EQ(FromPlain.Stats.CacheWarmLayers, Depth);
    expectSameBounds(Reference, Resilient.boundsFor(FromPlain, Spec),
                     "resilient run warm from a plain run's entry");

    Cache.clear();
    (void)Run(Resilient);
    const PropagatedState FromResilient = Run(Plain);
    EXPECT_EQ(FromResilient.Stats.CacheWarmLayers, Depth);
    expectSameBounds(Reference, Plain.boundsFor(FromResilient, Spec),
                     "plain run warm from a resilient run's entry");
  }
}

/// A pipeline and segment whose plain propagation peaks at one layer, and
/// a device budget that holds every charge before that layer but not the
/// layer's own state: a resilient run under it rolls back there.
struct PeakLayerCase {
  Sequential Net;
  Tensor Start, End;
  int64_t PeakLayer = -1;
  size_t Budget = 0;
};

PeakLayerCase makePeakLayerCase() {
  PeakLayerCase C;
  Rng R(41);
  C.Net = makeRandomMlp(R, {4, 24, 24, 24, 3});
  C.Start = Tensor::randn({1, 4}, R);
  C.End = Tensor::randn({1, 4}, R);
  const PropagatedState Plain = GenProve(GenProveConfig{}).propagateSegment(
      C.Net.view(), Shape({1, 4}), C.Start, C.End);
  const std::vector<LayerRecord> &Layers = Plain.Stats.Layers;
  size_t Peak = 0;
  for (const LayerRecord &L : Layers)
    Peak = std::max(Peak, L.ChargedBytes);
  size_t Before = stateBytes(2, 4); // the input segment's two nodes
  for (const LayerRecord &L : Layers) {
    if (L.ChargedBytes == Peak) {
      C.PeakLayer = L.Index;
      break;
    }
    Before = std::max(Before, L.ChargedBytes);
  }
  C.Budget = Before;
  return C;
}

/// A resilient run stores boundaries only while it is clean: the budget
/// forces LocalBox at layer k, so nothing deeper than boundary k (the
/// state entering layer k) reaches the cache.
TEST(PropagationCacheTest, ResilientRunStoresNoBoundaryPastItsFirstRung) {
  const PeakLayerCase C = makePeakLayerCase();
  const std::vector<const Layer *> Layers = C.Net.view();
  GenProveConfig ResilientConfig;
  ResilientConfig.Resilience.Enabled = true;
  ResilientConfig.MemoryBudgetBytes = C.Budget;
  const GenProve Resilient(ResilientConfig);
  const GenProve Plain(GenProveConfig{});

  CacheScope Cache(32u << 20);
  const auto Before = PropagationCache::global().snapshot();
  const PropagatedState Degraded =
      Resilient.propagateSegment(Layers, Shape({1, 4}), C.Start, C.End);
  const auto After = PropagationCache::global().snapshot();
  ASSERT_GT(C.PeakLayer, 0);
  ASSERT_LT(static_cast<size_t>(C.PeakLayer), Degraded.Stats.Layers.size());
  const LayerRecord &Rung =
      Degraded.Stats.Layers[static_cast<size_t>(C.PeakLayer)];
  ASSERT_EQ(Rung.Rung, DegradeRung::LocalBox);
  for (int64_t I = 0; I < C.PeakLayer; ++I)
    ASSERT_EQ(Degraded.Stats.Layers[static_cast<size_t>(I)].Rung,
              DegradeRung::None);

  EXPECT_EQ(After.Insertions, Before.Insertions + C.PeakLayer);
  // The deepest resident boundary is k: an unlimited plain run resumes
  // there.
  const PropagatedState Resumed =
      Plain.propagateSegment(Layers, Shape({1, 4}), C.Start, C.End);
  EXPECT_EQ(Resumed.Stats.CacheWarmLayers, C.PeakLayer);
  EXPECT_FALSE(Resumed.Degraded);
}

/// A resilient run whose budget cannot hold a cached prefix's peak ignores
/// the entry, counts a miss, and answers exactly as its cold run does.
TEST(PropagationCacheTest, ResilientRunIgnoresAPrefixItsBudgetCannotHold) {
  const PeakLayerCase C = makePeakLayerCase();
  const std::vector<const Layer *> Layers = C.Net.view();
  const OutputSpec Spec = OutputSpec::argmaxWins(0, 3);
  GenProveConfig ResilientConfig;
  ResilientConfig.Resilience.Enabled = true;
  ResilientConfig.MemoryBudgetBytes = C.Budget;
  const GenProve Resilient(ResilientConfig);
  const auto Run = [&](const GenProve &Analyzer) {
    return Analyzer.propagateSegment(Layers, Shape({1, 4}), C.Start, C.End);
  };
  const PropagatedState Reference = Run(Resilient);
  ASSERT_NE(Reference.Stats.Rung, DegradeRung::None);

  CacheScope Cache(32u << 20);
  (void)Run(GenProve(GenProveConfig{}));
  const auto Before = PropagationCache::global().snapshot();
  const PropagatedState Got = Run(Resilient);
  const auto After = PropagationCache::global().snapshot();
  EXPECT_EQ(After.Hits, Before.Hits);
  EXPECT_EQ(After.Misses, Before.Misses + 1);
  EXPECT_EQ(Got.Stats.CacheWarmLayers, 0);
  EXPECT_EQ(Got.Stats.Rung, Reference.Stats.Rung);
  EXPECT_EQ(Got.Stats.Rollbacks, Reference.Stats.Rollbacks);
  expectSameBounds(Resilient.boundsFor(Reference, Spec),
                   Resilient.boundsFor(Got, Spec), "ignored prefix");
}

/// Fault-injected runs and full-box starts neither probe nor fill the
/// cache, even when it holds their exact chain.
TEST(PropagationCacheTest, FaultedAndFullBoxStartRunsLeaveTheCacheAlone) {
  Rng R(43);
  Sequential Net = makeRandomMlp(R, {4, 12, 8, 3});
  const Tensor Start = Tensor::randn({1, 4}, R);
  const Tensor End = Tensor::randn({1, 4}, R);
  CacheScope Cache(32u << 20);
  (void)GenProve(GenProveConfig{})
      .propagateSegment(Net.view(), Shape({1, 4}), Start, End);

  FaultPlan Plan;
  Plan.OomAtLayer = 1;
  FaultInjector Faults(Plan);
  GenProveConfig Faulted;
  Faulted.Resilience.Enabled = true;
  Faulted.Resilience.Faults = &Faults;
  GenProveConfig FullBox;
  FullBox.Resilience.Enabled = true;
  FullBox.Resilience.StartAtFullBox = true;

  for (const GenProveConfig &Config : {Faulted, FullBox}) {
    const auto Before = PropagationCache::global().snapshot();
    const PropagatedState S = GenProve(Config).propagateSegment(
        Net.view(), Shape({1, 4}), Start, End);
    const auto After = PropagationCache::global().snapshot();
    EXPECT_TRUE(S.Degraded);
    EXPECT_EQ(S.Stats.CacheWarmLayers, 0);
    EXPECT_EQ(After.Hits, Before.Hits);
    EXPECT_EQ(After.Misses, Before.Misses);
    EXPECT_EQ(After.Insertions, Before.Insertions);
  }
}

/// Intermediate boundaries enter at the cold end: a stream of distinct
/// queries whose intermediate states overflow the budget evicts those
/// states among themselves, and query A's final state is still resident
/// for its repeat. Pure LRU evicts it.
TEST(PropagationCacheTest, FinalStateSurvivesIntermediateEvictionPressure) {
  Rng R(47);
  Sequential Net = makeRandomMlp(R, {4, 48, 48, 3});
  const std::vector<const Layer *> Layers = Net.view();
  const OutputSpec Spec = OutputSpec::argmaxWins(2, 3);
  const GenProve Analyzer(GenProveConfig{});
  std::vector<std::pair<Tensor, Tensor>> Queries;
  for (int I = 0; I < 9; ++I)
    Queries.emplace_back(Tensor::randn({1, 4}, R), Tensor::randn({1, 4}, R));
  const auto Run = [&](const std::pair<Tensor, Tensor> &Q) {
    return Analyzer.propagateSegment(Layers, Shape({1, 4}), Q.first,
                                     Q.second);
  };

  // Cache off: A's reference bounds, and every query's boundary sizes.
  // The budget holds any single state twice over, but not the
  // intermediate states of all the queries.
  const ProbBounds Reference = Analyzer.boundsFor(Run(Queries[0]), Spec);
  size_t Largest = 0, Total = 0;
  for (const auto &Q : Queries)
    for (const LayerRecord &L : Run(Q).Stats.Layers) {
      Largest = std::max(Largest, L.ChargedBytes);
      Total += L.ChargedBytes;
    }
  ASSERT_GT(Total, 4 * Largest);

  CacheScope Cache(2 * Largest);
  for (const auto &Q : Queries)
    (void)Run(Q);
  EXPECT_GT(PropagationCache::global().snapshot().Evictions, 0);

  const auto Before = PropagationCache::global().snapshot();
  const PropagatedState Again = Run(Queries[0]);
  EXPECT_EQ(PropagationCache::global().snapshot().Hits, Before.Hits + 1);
  EXPECT_EQ(Again.Stats.CacheWarmLayers, static_cast<int64_t>(Layers.size()))
      << "query A's final state was evicted";
  expectSameBounds(Reference, Analyzer.boundsFor(Again, Spec), "repeat");
}

TEST(PropagationCacheTest, ConfigureZeroDisablesAndDrops) {
  Rng R(29);
  Sequential Net = makeRandomMlp(R, {3, 8, 2});
  const GenProve Analyzer(GenProveConfig{});
  {
    CacheScope Cache(8u << 20);
    (void)Analyzer.propagateSegment(Net.view(), Shape({1, 3}),
                                    Tensor::randn({1, 3}, R),
                                    Tensor::randn({1, 3}, R));
    EXPECT_GT(PropagationCache::global().bytes(), 0u);
  }
  EXPECT_FALSE(PropagationCache::global().enabled());
  EXPECT_EQ(PropagationCache::global().bytes(), 0u);
}

/// Overwriting a resident cache key must release the old entry's bytes
/// (and LRU node) before charging the replacement: repeated stores of one
/// key cannot drift CurBytes past the budget or strand stale accounting.
TEST(PropCacheOverwriteTest, RepeatedStoreOfSameKeyKeepsBytesFlat) {
  PropagationCache &C = PropagationCache::global();
  C.configure(1u << 20);
  Rng R(103);

  std::vector<Region> Small;
  Small.push_back(makeSegmentRegion(Tensor::randn({1, 4}, R),
                                    Tensor::randn({1, 4}, R)));
  std::vector<Region> Big;
  Big.push_back(makeSegmentRegion(Tensor::randn({1, 64}, R),
                                  Tensor::randn({1, 64}, R)));

  C.store(0xfeedu, Small, Shape({1, 4}), 0);
  const size_t AfterSmall = C.bytes();
  ASSERT_GT(AfterSmall, 0u);
  for (int I = 0; I < 10; ++I)
    C.store(0xfeedu, Small, Shape({1, 4}), 0);
  EXPECT_EQ(C.bytes(), AfterSmall) << "overwrite leaked accounting";

  // Grow then shrink the same key: bytes must track the resident entry.
  C.store(0xfeedu, Big, Shape({1, 64}), 0);
  const size_t AfterBig = C.bytes();
  EXPECT_GT(AfterBig, AfterSmall);
  C.store(0xfeedu, Small, Shape({1, 4}), 0);
  EXPECT_EQ(C.bytes(), AfterSmall);

  EXPECT_LE(C.bytes(), C.budgetBytes());
  C.configure(0);
}

} // namespace
} // namespace genprove
