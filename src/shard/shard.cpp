//===- shard/shard.cpp ----------------------------------------*- C++ -*-===//

#include "src/shard/shard.h"

#include "src/shard/supervisor.h"
#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

std::vector<ShardRange> planShards(int64_t NumShards) {
  const int64_t N = std::max<int64_t>(NumShards, 1);
  std::vector<ShardRange> Plan;
  Plan.reserve(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I) {
    ShardRange R;
    R.Index = I;
    // Shared boundaries are computed once per cut point (k/N evaluated
    // identically for shard k-1's T1 and shard k's T0), so the partition
    // is exactly disjoint and covering in floating point.
    R.T0 = static_cast<double>(I) / static_cast<double>(N);
    R.T1 = I + 1 == N ? 1.0 : static_cast<double>(I + 1) / static_cast<double>(N);
    Plan.push_back(R);
  }
  return Plan;
}

MergedCertificate mergeShardResults(const std::vector<ShardResult> &Results,
                                    int64_t NumSpecs) {
  MergedCertificate Merged;
  Merged.Specs.resize(static_cast<size_t>(std::max<int64_t>(NumSpecs, 0)));

  // One column of partial masses per spec. Under --sound the columns are
  // summed with the directed Neumaier accumulators — the lower bound can
  // only round down, the upper only up, so the merge cannot flip an
  // inequality. Otherwise a plain compensated sum, matching
  // computeProbBounds' own gating: the directed variant pads by a ULP
  // even on exact sums, which would break verdict equality with the
  // single-process path (an exact upper of 0.0 must stay 0.0).
  const bool Sound = soundRoundingEnabled();
  const auto PlainSum = [](const std::vector<double> &Values) {
    double S = 0.0, C = 0.0;
    for (double V : Values) {
      const double T = S + V;
      C += std::fabs(S) >= std::fabs(V) ? (S - T) + V : (V - T) + S;
      S = T;
    }
    return S + C;
  };
  std::vector<double> Lowers, Uppers;
  Lowers.reserve(Results.size());
  Uppers.reserve(Results.size());
  for (int64_t S = 0; S < NumSpecs; ++S) {
    Lowers.clear();
    Uppers.clear();
    bool SpecDegraded = false;
    for (const ShardResult &R : Results) {
      if (S < static_cast<int64_t>(R.Specs.size())) {
        const ShardSpecBounds &B = R.Specs[static_cast<size_t>(S)];
        Lowers.push_back(B.Lower);
        Uppers.push_back(B.Upper);
        SpecDegraded = SpecDegraded || B.Degraded;
      } else {
        // A validated-but-truncated result: this shard's mass is unknown
        // for the spec. Contribute nothing below and everything above —
        // the conservative extreme, same as quarantined mass.
        Uppers.push_back(1.0);
        SpecDegraded = true;
      }
    }
    ProbBounds &Out = Merged.Specs[static_cast<size_t>(S)];
    Out.Lower =
        std::clamp(Sound ? fp::sumDown(Lowers) : PlainSum(Lowers), 0.0, 1.0);
    Out.Upper =
        std::clamp(Sound ? fp::sumUp(Uppers) : PlainSum(Uppers), 0.0, 1.0);
    Out.Degraded = SpecDegraded;
    Merged.Degraded = Merged.Degraded || SpecDegraded;
  }

  for (const ShardResult &R : Results) {
    Merged.Seconds = std::max(Merged.Seconds, R.Seconds);
    Merged.TotalShardSeconds += R.Seconds;
    Merged.PeakBytes += static_cast<size_t>(std::max<int64_t>(R.PeakBytes, 0));
    Merged.MaxRegions += R.MaxRegions;
    Merged.MaxNodes += R.MaxNodes;
    Merged.Retries = std::max(Merged.Retries, R.Retries);
    Merged.Rollbacks += R.Rollbacks;
    Merged.FallbackBoxLayers += R.FallbackBoxLayers;
    Merged.QuarantinedMass += R.QuarantinedMass;
    Merged.DeadlineHit = Merged.DeadlineHit || R.DeadlineHit;
    Merged.Degraded = Merged.Degraded || R.Degraded;
    if (R.FromFallback)
      ++Merged.FallbackShards;
    // Map the supervision rung onto the in-process ladder for display: a
    // shard that ran (or fell back) at the interval-box rung reached
    // FullBox; a resilient retry reached at least LocalBox only if its
    // own stats say so, which R.Rung does not imply.
    if (shardRungFromInt(R.Rung) == ShardRung::IntervalBox || R.FromFallback)
      Merged.Rung = DegradeRung::FullBox;
  }
  // Fold in the worst in-process rung reported by any shard.
  for (const ShardResult &R : Results) {
    if (R.FallbackBoxLayers > 0 &&
        static_cast<uint8_t>(Merged.Rung) <
            static_cast<uint8_t>(DegradeRung::FullBox))
      Merged.Rung = DegradeRung::FullBox;
    else if (R.Rollbacks > 0 && Merged.Rung == DegradeRung::None)
      Merged.Rung = DegradeRung::LocalBox;
  }
  if (Merged.Degraded)
    for (ProbBounds &B : Merged.Specs)
      B.Degraded = true;
  return Merged;
}

} // namespace genprove
