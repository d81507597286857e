//===- core/genprove.cpp --------------------------------------*- C++ -*-===//

#include "src/core/genprove.h"

#include "src/domains/prop_cache.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"
#include "src/util/fp.h"
#include "src/util/hash.h"
#include "src/util/timer.h"

#include <algorithm>

namespace genprove {

PropagatedState GenProve::propagateWithSchedule(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const std::vector<Region> &Initial) const {
  GENPROVE_SPAN("propagate_with_schedule");
  static Counter &RetriesCtr =
      MetricsRegistry::global().counter("refine.retries");
  Timer Clock;
  double P = Config.RelaxPercent;
  double K = Config.ClusterK;

  PropagatedState State;
  for (int64_t Attempt = 0;; ++Attempt) {
    GENPROVE_SPAN("attempt");
    DeviceMemoryModel Memory(Config.MemoryBudgetBytes);
    PropagateConfig PropConfig;
    PropConfig.Relax.RelaxPercent = P;
    PropConfig.Relax.ClusterK = K;
    PropConfig.Relax.NodeThreshold = Config.NodeThreshold;
    PropConfig.Cdf = makeCdf(Config.Distribution);
    PropConfig.Resilience = Config.Resilience;
    // Every run consults the process-wide PropagationCache, which does
    // nothing until PropagationCache::global().configure() gives it a
    // byte budget. Caller tag: the abstract-domain identity plus the
    // distribution behind the (unhashable) Cdf closure.
    PropConfig.Cache = &PropagationCache::global();
    uint64_t Tag = hashing::hashString(hashing::FnvOffset, "genprove.union");
    Tag = hashing::hashU64(Tag, static_cast<uint64_t>(Config.Distribution));
    PropConfig.CacheSalt = cacheSaltForConfig(PropConfig, Tag);

    PropagateStats Stats;
    std::vector<Region> Final = propagateRegions(
        Layers, InputShape, Initial, PropConfig, Memory, Stats);

    State.Stats = Stats;
    State.PeakBytes = std::max(State.PeakBytes, Memory.peakBytes());
    State.OutOfMemory = Stats.OutOfMemory;
    State.Degraded = Stats.Degraded;
    State.Retries = Attempt;
    State.UsedRelaxPercent = P;
    State.UsedClusterK = K;
    State.Cdf = PropConfig.Cdf;
    if (!Stats.OutOfMemory) {
      State.Regions = std::move(Final);
      break;
    }
    if (Config.Schedule == RefinementSchedule::None ||
        Attempt >= Config.MaxRetries)
      break;
    // Appendix C: try a less precise approximation.
    const double Factor = Config.Schedule == RefinementSchedule::A ? 1.5 : 3.0;
    P = P <= 0.0 ? 0.005 : std::min(Factor * P, 1.0);
    K = std::max(0.95 * K, 5.0);
  }
  RetriesCtr.add(State.Retries);
  State.Seconds = Clock.seconds();
  return State;
}

PropagatedState
GenProve::propagateSegment(const std::vector<const Layer *> &Layers,
                           const Shape &InputShape, const Tensor &Start,
                           const Tensor &End) const {
  const Tensor A = Start.reshaped({1, Start.numel()});
  const Tensor B = End.reshaped({1, End.numel()});
  const int64_t Splits = std::max<int64_t>(Config.InputSplits, 1);
  if (Splits == 1) {
    std::vector<Region> Initial;
    Initial.push_back(makeSegmentRegion(A, B));
    return propagateWithSchedule(Layers, InputShape, Initial);
  }

  // Section 5.2: verify parameter sub-ranges sequentially and merge. The
  // peak memory of the merged analysis is the max over the parts (each
  // part releases its working set before the next starts); the runtime is
  // the sum.
  PropagatedState Merged;
  const ParamCdf Cdf = makeCdf(Config.Distribution);
  Merged.Cdf = Cdf;
  for (int64_t I = 0; I < Splits; ++I) {
    std::vector<Region> Initial;
    Initial.push_back(segmentPiece(A, B, I, Splits, Cdf));
    PropagatedState Part = propagateWithSchedule(Layers, InputShape, Initial);
    Merged.Seconds += Part.Seconds;
    Merged.PeakBytes = std::max(Merged.PeakBytes, Part.PeakBytes);
    Merged.Retries = std::max(Merged.Retries, Part.Retries);
    Merged.Stats.MaxRegions =
        std::max(Merged.Stats.MaxRegions, Part.Stats.MaxRegions);
    Merged.Stats.MaxNodes =
        std::max(Merged.Stats.MaxNodes, Part.Stats.MaxNodes);
    Merged.Stats.NumSplits += Part.Stats.NumSplits;
    Merged.Stats.NumBoxed += Part.Stats.NumBoxed;
    // Degradation of any part degrades (but does not fail) the merge.
    Merged.Degraded |= Part.Degraded;
    Merged.Stats.Degraded |= Part.Stats.Degraded;
    Merged.Stats.DeadlineHit |= Part.Stats.DeadlineHit;
    if (static_cast<uint8_t>(Part.Stats.Rung) >
        static_cast<uint8_t>(Merged.Stats.Rung))
      Merged.Stats.Rung = Part.Stats.Rung;
    Merged.Stats.Rollbacks += Part.Stats.Rollbacks;
    Merged.Stats.FallbackBoxLayers += Part.Stats.FallbackBoxLayers;
    Merged.Stats.QuarantinedRegions += Part.Stats.QuarantinedRegions;
    Merged.Stats.QuarantinedMass += Part.Stats.QuarantinedMass;
    // Merge the per-layer timelines: the parts run the same pipeline, so
    // add the flows, sum the times, and keep the per-layer charge maxima
    // (each part releases its state before the next starts).
    if (Merged.Stats.Layers.empty()) {
      Merged.Stats.Layers = Part.Stats.Layers;
    } else {
      const size_t Common =
          std::min(Merged.Stats.Layers.size(), Part.Stats.Layers.size());
      for (size_t L = 0; L < Common; ++L) {
        LayerRecord &Into = Merged.Stats.Layers[L];
        const LayerRecord &From = Part.Stats.Layers[L];
        Into.RegionsIn += From.RegionsIn;
        Into.RegionsOut += From.RegionsOut;
        Into.NodesIn += From.NodesIn;
        Into.NodesOut += From.NodesOut;
        Into.Splits += From.Splits;
        Into.Boxed += From.Boxed;
        Into.ChargedBytes = std::max(Into.ChargedBytes, From.ChargedBytes);
        Into.Seconds += From.Seconds;
      }
    }
    if (Part.Stats.OomLayer >= 0)
      Merged.Stats.OomLayer = Part.Stats.OomLayer;
    Merged.UsedRelaxPercent = Part.UsedRelaxPercent;
    Merged.UsedClusterK = Part.UsedClusterK;
    if (Part.OutOfMemory) {
      Merged.OutOfMemory = true;
      Merged.Regions.clear();
      return Merged;
    }
    for (auto &R : Part.Regions)
      Merged.Regions.push_back(std::move(R));
  }
  return Merged;
}

Region segmentPiece(const Tensor &Start, const Tensor &End, int64_t Index,
                    int64_t Pieces, const ParamCdf &Cdf) {
  const double N = static_cast<double>(Pieces);
  const double T0 = static_cast<double>(Index) / N;
  const double T1 =
      Index + 1 == Pieces ? 1.0 : static_cast<double>(Index + 1) / N;
  const int64_t Latent = Start.numel();
  Tensor PartStart({1, Latent});
  Tensor PartEnd({1, Latent});
  for (int64_t J = 0; J < Latent; ++J) {
    PartStart[J] = Start[J] + T0 * (End[J] - Start[J]);
    PartEnd[J] = Start[J] + T1 * (End[J] - Start[J]);
  }
  return makeSegmentRegion(PartStart, PartEnd, Cdf(T1) - Cdf(T0), T0, T1);
}

PropagatedState
GenProve::propagateChain(const std::vector<const Layer *> &Layers,
                         const Shape &InputShape,
                         const std::vector<Tensor> &Waypoints) const {
  check(Waypoints.size() >= 2, "a chain needs at least two waypoints");
  const ParamCdf Cdf = makeCdf(Config.Distribution);
  const int64_t Legs = static_cast<int64_t>(Waypoints.size()) - 1;
  std::vector<Region> Initial;
  Initial.reserve(static_cast<size_t>(Legs));
  for (int64_t I = 0; I < Legs; ++I) {
    const double T0 = static_cast<double>(I) / static_cast<double>(Legs);
    const double T1 = static_cast<double>(I + 1) / static_cast<double>(Legs);
    const Tensor &A = Waypoints[static_cast<size_t>(I)];
    const Tensor &B = Waypoints[static_cast<size_t>(I + 1)];
    Initial.push_back(makeSegmentRegion(A.reshaped({1, A.numel()}),
                                        B.reshaped({1, B.numel()}),
                                        Cdf(T1) - Cdf(T0), T0, T1));
  }
  return propagateWithSchedule(Layers, InputShape, Initial);
}

PropagatedState
GenProve::propagateQuadratic(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &A0,
                             const Tensor &A1, const Tensor &A2) const {
  std::vector<Region> Initial;
  Initial.push_back(makeQuadraticRegion(A0.reshaped({1, A0.numel()}),
                                        A1.reshaped({1, A1.numel()}),
                                        A2.reshaped({1, A2.numel()})));
  return propagateWithSchedule(Layers, InputShape, Initial);
}

PropagatedState GenProve::propagateRegionsFrom(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    std::vector<Region> Initial) const {
  return propagateWithSchedule(Layers, InputShape, Initial);
}

ProbBounds GenProve::boundsFor(const PropagatedState &State,
                               const OutputSpec &Spec) const {
  if (State.OutOfMemory)
    return {0.0, 1.0, true, State.Degraded};
  ProbBounds Bounds = computeProbBounds(State.Regions, Spec, State.Cdf);
  // Quarantined (non-finite) regions could have landed anywhere, so their
  // mass must be added to the upper bound; the lower bound, computed from
  // the surviving mass only, is already sound.
  if (State.Stats.QuarantinedMass > 0.0) {
    const double Raised =
        soundRoundingEnabled()
            ? fp::addUp(Bounds.Upper, State.Stats.QuarantinedMass)
            : Bounds.Upper + State.Stats.QuarantinedMass;
    Bounds.Upper = std::min(1.0, Raised);
  }
  Bounds.Degraded = State.Degraded;
  if (Config.Mode == AnalysisMode::Deterministic)
    Bounds = Bounds.deterministic();
  return Bounds;
}

namespace {

/// Project a propagated state (minus its regions) onto a result.
AnalysisResult resultFromState(const PropagatedState &State,
                               ProbBounds Bounds) {
  AnalysisResult Result;
  Result.Bounds = Bounds;
  Result.PeakBytes = State.PeakBytes;
  Result.Seconds = State.Seconds;
  Result.OutOfMemory = State.OutOfMemory;
  Result.MaxRegions = State.Stats.MaxRegions;
  Result.MaxNodes = State.Stats.MaxNodes;
  Result.Retries = State.Retries;
  Result.UsedRelaxPercent = State.UsedRelaxPercent;
  Result.UsedClusterK = State.UsedClusterK;
  Result.Degraded = State.Degraded;
  Result.Rung = State.Stats.Rung;
  Result.Rollbacks = State.Stats.Rollbacks;
  Result.FallbackBoxLayers = State.Stats.FallbackBoxLayers;
  Result.DeadlineHit = State.Stats.DeadlineHit;
  Result.QuarantinedMass = State.Stats.QuarantinedMass;
  Result.Layers = State.Stats.Layers;
  return Result;
}

} // namespace

AnalysisResult
GenProve::analyzeSegment(const std::vector<const Layer *> &Layers,
                         const Shape &InputShape, const Tensor &Start,
                         const Tensor &End, const OutputSpec &Spec) const {
  const PropagatedState State =
      propagateSegment(Layers, InputShape, Start, End);
  return resultFromState(State, boundsFor(State, Spec));
}

AnalysisResult
GenProve::analyzeQuadratic(const std::vector<const Layer *> &Layers,
                           const Shape &InputShape, const Tensor &A0,
                           const Tensor &A1, const Tensor &A2,
                           const OutputSpec &Spec) const {
  const PropagatedState State =
      propagateQuadratic(Layers, InputShape, A0, A1, A2);
  return resultFromState(State, boundsFor(State, Spec));
}

Tensor forwardConcretePoints(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &Points) {
  Tensor Acts = rowsToActivations(Points, InputShape);
  for (const Layer *L : Layers) {
    if (L->isAffine()) {
      Acts = L->applyAffine(std::move(Acts));
    } else {
      Acts = relu(Acts);
    }
  }
  return activationsToRows(std::move(Acts));
}

std::string pipelineShapeError(const std::vector<const Layer *> &Layers,
                               const Shape &InputShape,
                               const std::vector<OutputSpec> &Specs) {
  if (InputShape.rank() < 2 || InputShape.dim(0) != 1)
    return "input shape " + InputShape.toString() +
           " is not one sample (1xN or 1xCxHxW)";
  Shape Cur = InputShape;
  for (size_t I = 0; I < Layers.size(); ++I) {
    if (!Layers[I]->acceptsInputShape(Cur))
      return "layer " + std::to_string(I) + " (" + Layers[I]->describe() +
             ") does not accept input shape " + Cur.toString();
    Cur = Layers[I]->outputShape(Cur);
  }
  for (size_t I = 0; I < Specs.size(); ++I)
    if (Specs[I].dim() != Cur.numel())
      return "spec " + std::to_string(I) + " reads " +
             std::to_string(Specs[I].dim()) + " outputs, the pipeline has " +
             std::to_string(Cur.numel());
  return "";
}

} // namespace genprove
