//===- core/genprove.h - The GenProve verifier -----------------*- C++ -*-===//
///
/// \file
/// GenProve: sound deterministic and probabilistic certification of
/// neural-network properties under generative-model transformations
/// (Mirman et al., PLDI 2021).
///
/// The analyzer propagates a latent line segment (or quadratic curve)
/// through a layer pipeline — typically decoder followed by classifier —
/// using the union / convex-combination domain of weighted curve pieces
/// and boxes, then evaluates probabilistic bounds against an OutputSpec.
///
/// Config maps onto the paper's notation: GenProve^p_k with relaxation
/// percentage p (0 = exact, reproducing Sotoudeh & Thakur's BASELINE when
/// combined with deterministic mode) and clustering parameter k. On
/// simulated-device OOM, the Appendix C refinement schedules retry with
/// p <- min(1.5p, 1) (A) or p <- min(3p, 1) (B) and k <- max(0.95k, 5).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_CORE_GENPROVE_H
#define GENPROVE_CORE_GENPROVE_H

#include "src/core/distribution.h"
#include "src/core/spec.h"
#include "src/domains/propagate.h"

namespace genprove {

/// Deterministic analyses collapse bounds to {[0,0],[1,1],[0,1]}.
enum class AnalysisMode : uint8_t { Deterministic, Probabilistic };

/// Appendix C refinement schedules.
enum class RefinementSchedule : uint8_t { None, A, B };

/// Analyzer configuration (GenProve^p_k).
struct GenProveConfig {
  AnalysisMode Mode = AnalysisMode::Probabilistic;
  double RelaxPercent = 0.0; ///< p; 0 disables relaxation (exact analysis).
  double ClusterK = 100.0;   ///< k; per-step endpoint budget is t/k.
  int64_t NodeThreshold = 1000;
  ParamDistribution Distribution = ParamDistribution::Uniform;
  size_t MemoryBudgetBytes = 0; ///< simulated device budget; 0 = unlimited.
  RefinementSchedule Schedule = RefinementSchedule::None;
  int64_t MaxRetries = 10;
  /// Section 5.2's memory/runtime tradeoff: partition the input parameter
  /// range into this many pieces that are verified sequentially and
  /// merged. Each piece gets the full memory budget to itself.
  int64_t InputSplits = 1;
  /// Checkpointed degradation, deadlines and the interval fallback; when
  /// Resilience.Enabled every propagation terminates with a sound
  /// (possibly widened) state instead of OOM + empty regions, and the
  /// Appendix C schedule above becomes a dead letter (coarsening happens
  /// locally at the failing layer, not by restarting from layer 0).
  ResilienceConfig Resilience;
  /// Consult the process-wide PropagationCache (domains/prop_cache.h) for
  /// mid-network warm starts. A no-op until the cache is given a byte
  /// budget via PropagationCache::global().configure(), and never active
  /// on fault-injected or full-box-start runs. A resilient run warm-starts
  /// only when its budget holds the cached prefix's peak, and stores
  /// states only until its first rung or quarantine; warm-started bounds
  /// are bit-identical to cold ones.
  bool UseCache = true;
};

/// The final abstract state plus telemetry; bounds for any number of
/// OutputSpecs can be computed from one propagation.
struct PropagatedState {
  std::vector<Region> Regions;
  PropagateStats Stats;
  size_t PeakBytes = 0;
  double Seconds = 0.0;
  bool OutOfMemory = false;
  int64_t Retries = 0;
  double UsedRelaxPercent = 0.0;
  double UsedClusterK = 0.0;
  ParamCdf Cdf;

  /// Sound-but-widened marker (any resilience rung, deadline or
  /// quarantine); projection of Stats.Degraded kept stable across merges.
  bool Degraded = false;
};

/// A single-spec analysis outcome. Layers is the per-layer telemetry
/// timeline of the final propagation attempt (see LayerRecord).
struct AnalysisResult {
  ProbBounds Bounds;
  size_t PeakBytes = 0;
  double Seconds = 0.0;
  bool OutOfMemory = false;
  int64_t MaxRegions = 0;
  int64_t MaxNodes = 0;
  int64_t Retries = 0;
  double UsedRelaxPercent = 0.0;
  double UsedClusterK = 0.0;
  // Resilience telemetry (see PropagateStats).
  bool Degraded = false;
  DegradeRung Rung = DegradeRung::None;
  int64_t Rollbacks = 0;
  int64_t FallbackBoxLayers = 0;
  bool DeadlineHit = false;
  double QuarantinedMass = 0.0;
  std::vector<LayerRecord> Layers;
};

/// The verifier.
class GenProve {
public:
  explicit GenProve(GenProveConfig Config) : Config(Config) {}

  const GenProveConfig &config() const { return Config; }

  /// Propagate the line segment between flat latent points Start and End
  /// ([1, Latent]) through \p Layers (input shape \p InputShape, batch 1).
  PropagatedState propagateSegment(const std::vector<const Layer *> &Layers,
                                   const Shape &InputShape,
                                   const Tensor &Start,
                                   const Tensor &End) const;

  /// Propagate a polygonal chain through the given waypoints (the input
  /// shape of Figure 2): waypoint i sits at parameter i/(n-1), and each
  /// leg is a segment region weighted by the input CDF. Useful for
  /// multi-waypoint latent edits (e.g. add a hat, then smile).
  PropagatedState propagateChain(const std::vector<const Layer *> &Layers,
                                 const Shape &InputShape,
                                 const std::vector<Tensor> &Waypoints) const;

  /// Propagate the quadratic curve gamma(t) = A0 + A1 t + A2 t^2
  /// (GenProveCurve, Section 4.2).
  PropagatedState propagateQuadratic(const std::vector<const Layer *> &Layers,
                                     const Shape &InputShape, const Tensor &A0,
                                     const Tensor &A1, const Tensor &A2) const;

  /// Propagate arbitrary initial regions (used by the toy examples and by
  /// the adversarial-tube specification).
  PropagatedState propagateRegionsFrom(
      const std::vector<const Layer *> &Layers, const Shape &InputShape,
      std::vector<Region> Initial) const;

  /// Bounds of a propagated state against one specification; respects the
  /// configured analysis mode (deterministic collapse or probabilistic).
  ProbBounds boundsFor(const PropagatedState &State,
                       const OutputSpec &Spec) const;

  /// One-shot convenience: propagate a segment and bound one spec.
  AnalysisResult analyzeSegment(const std::vector<const Layer *> &Layers,
                                const Shape &InputShape, const Tensor &Start,
                                const Tensor &End,
                                const OutputSpec &Spec) const;

  /// One-shot convenience for quadratic curves.
  AnalysisResult analyzeQuadratic(const std::vector<const Layer *> &Layers,
                                  const Shape &InputShape, const Tensor &A0,
                                  const Tensor &A1, const Tensor &A2,
                                  const OutputSpec &Spec) const;

private:
  PropagatedState
  propagateWithSchedule(const std::vector<const Layer *> &Layers,
                        const Shape &InputShape,
                        const std::vector<Region> &Initial) const;

  GenProveConfig Config;
};

/// Concrete forward pass through a layer view (affine layers via
/// applyAffine, ReLU elementwise); used by the sampling baseline and the
/// consistency ground-truth checks.
Tensor forwardConcretePoints(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &Points);

} // namespace genprove

#endif // GENPROVE_CORE_GENPROVE_H
