//===- tests/prop_cache_test.cpp - propagation cache ------------*- C++ -*-===//
///
/// \file
/// The PropagationCache contract (docs/PERFORMANCE.md): warm starts must
/// never change bounds (only skip work), entries must stay within the
/// byte budget via LRU eviction, and a weight mutation through any
/// mutable accessor must invalidate the keys (the AbsWeightCache
/// generation regression).
///
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/prop_cache.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/util/fp.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

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

} // namespace
} // namespace genprove
