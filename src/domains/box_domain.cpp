//===- domains/box_domain.cpp ---------------------------------*- C++ -*-===//

#include "src/domains/box_domain.h"

#include "src/domains/propagate.h"
#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

Region segmentBox(const Tensor &Start, const Tensor &End) {
  // s + t*(e-s) computed in doubles can overshoot the endpoint hull by a
  // few ULPs; the sound pad covers that.
  const int64_t N = Start.numel();
  Tensor Center({1, N}), Radius({1, N});
  const bool Sound = soundRoundingEnabled();
  for (int64_t J = 0; J < N; ++J) {
    if (Sound) {
      const Interval Hull{std::min(Start[J], End[J]),
                          std::max(Start[J], End[J])};
      Hull.toCenterRadius(Center[J], Radius[J]);
      const double Pad = fp::mulUp(
          8.0 * DBL_EPSILON,
          fp::addUp(std::fabs(Start[J]), std::fabs(End[J])));
      Radius[J] = fp::addUp(Radius[J], Pad);
    } else {
      Center[J] = 0.5 * (Start[J] + End[J]);
      Radius[J] = 0.5 * std::fabs(End[J] - Start[J]);
    }
  }
  return makeBoxRegion(Center, Radius, 1.0);
}

std::vector<ConvexResult>
analyzeBoxMulti(const std::vector<const Layer *> &Layers,
                const Shape &InputShape, const Tensor &Start,
                const Tensor &End, const std::vector<OutputSpec> &Specs,
                DeviceMemoryModel &Memory) {
  std::vector<Region> Init;
  Init.push_back(segmentBox(Start, End));

  PropagateConfig Config;
  Config.EnableRelax = false;
  PropagateStats Stats;
  const std::vector<Region> Final =
      propagateRegions(Layers, InputShape, std::move(Init), Config, Memory,
                       Stats);

  ConvexResult Result;
  Result.PeakBytes = Memory.peakBytes();
  Result.MaxGenerators = 0;
  std::vector<ConvexResult> Results;
  Results.reserve(Specs.size());
  for (const OutputSpec &Spec : Specs) {
    ConvexResult PerSpec = Result;
    if (Stats.OutOfMemory) {
      PerSpec.Bounds = {0.0, 1.0, true};
    } else {
      // Lifted convex semantics: only certain containment / disjointness.
      PerSpec.Bounds = computeProbBounds(Final, Spec).deterministic();
    }
    Results.push_back(std::move(PerSpec));
  }
  return Results;
}

} // namespace genprove
