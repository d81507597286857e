//===- domains/propagate.h - GenProve propagation engine -------*- C++ -*-===//
///
/// \file
/// The propagation engine behind both deterministic and probabilistic
/// GenProve (the paper's Algorithm 1, generalized from line segments to
/// degree-<=2 parametric curves):
///
///  * affine layers map curve coefficients exactly (bias to the constant
///    row, linear part to the others) and boxes by interval arithmetic;
///  * ReLU layers split every curve at the component zero crossings inside
///    its parameter interval and apply the per-piece sign mask, which is
///    exact; boxes go through interval ReLU;
///  * before each convolutional layer, the Section 3.1 relaxation heuristic
///    may replace runs of short pieces with weighted bounding boxes;
///  * after every layer the abstract state is charged to the simulated
///    device memory model; exceeding the budget aborts with OOM, exactly
///    the failure mode the paper's Tables 3 and 8 report.
///
/// Weights of curve pieces are recomputed from the input-parameter CDF
/// (uniform by default, arcsine for the Table 7 specification), which keeps
/// probabilistic splitting exact; boxes freeze the mass of whatever they
/// replaced.
///
/// With ResilienceConfig::Enabled the engine never aborts: the abstract
/// state is checkpointed at every layer boundary, an OOM (real or
/// fault-injected) rolls back to the checkpoint and boxes the lowest-mass
/// pieces until the charge fits (the Appendix C p/k escalation applied
/// *locally*), a wall-clock deadline lifts the remaining pipeline to
/// interval/box propagation, and non-finite regions are quarantined with
/// their mass tracked — so every propagation ends in a sound, possibly
/// widened state flagged Degraded. docs/ROBUSTNESS.md gives the ladder and
/// the soundness argument for each rung.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_PROPAGATE_H
#define GENPROVE_DOMAINS_PROPAGATE_H

#include "src/domains/memory_model.h"
#include "src/domains/region.h"
#include "src/domains/relaxation.h"
#include "src/nn/sequential.h"

#include <functional>

namespace genprove {

class FaultInjector;
class PropagationCache;

/// Cumulative distribution function of the input parameter on [0, 1].
using ParamCdf = std::function<double(double)>;

/// How far down the degradation ladder a propagation had to go. Ordered:
/// higher rungs are coarser (and therefore always cheaper but wider).
enum class DegradeRung : uint8_t {
  None = 0,     ///< exact / configured relaxation only
  LocalBox = 1, ///< checkpoint rollback + lowest-mass boxing at one layer
  FullBox = 2,  ///< remaining pipeline lifted to a single interval box
};

/// Display name of a rung ("-", "local", "box").
const char *degradeRungName(DegradeRung R);

/// The resilience layer around the engine: checkpointed in-place
/// degradation, deadlines and the interval fallback. Disabled by default,
/// in which case the engine keeps the paper's abort-on-OOM behaviour.
/// Enabled, it also quarantines regions containing NaN/Inf (their mass
/// widens the final bounds, see PropagateStats) and allows a fixed number
/// of checkpoint rollbacks per layer (MaxLayerRetries in propagate.cpp)
/// before lifting the state to the FullBox rung.
struct ResilienceConfig {
  bool Enabled = false;
  /// Wall-clock budget for one propagation, in seconds; 0 = none. When it
  /// expires (checked at layer boundaries) the remaining pipeline runs at
  /// the FullBox rung, so the run finishes within the deadline plus one
  /// layer's slack.
  double DeadlineSeconds = 0.0;
  /// Clock used for deadline checks; empty = steady wall clock. Tests
  /// install FaultInjector::clock() for deterministic skew.
  std::function<double()> Clock;
  /// Lift the initial state straight to the FullBox rung before layer 0.
  /// The whole pipeline then runs budget-exempt interval arithmetic — the
  /// cheapest sound analysis available. The shard supervisor sets this on
  /// last-resort retries so a repeatedly-crashing worker converges to a
  /// run that cannot exhaust memory.
  bool StartAtFullBox = false;
  /// Deterministic fault injection (tests and the CI smoke job); null in
  /// production.
  FaultInjector *Faults = nullptr;
};

/// Engine configuration.
struct PropagateConfig {
  /// Relaxation before each convolutional layer; p = 0 (the default)
  /// turns it off.
  RelaxConfig Relax;
  ParamCdf Cdf;             ///< empty = uniform (identity CDF).
  ResilienceConfig Resilience;
  /// Optional memoizing abstract-state cache (domains/prop_cache.h),
  /// consulted by every run without fault injection or a full-box start.
  /// A warm start replays the prefix's peak device charge and is
  /// bit-identical to a cold run; states are stored only while the run is
  /// clean (no rung fired, nothing quarantined).
  PropagationCache *Cache = nullptr;
  /// Caller-provided salt folded into the cache key chain. Must separate
  /// every knob the transformers depend on that PropagateConfig itself
  /// cannot hash (the input-distribution identity behind Cdf, the
  /// caller's domain tag, ...); see cacheSaltForConfig().
  uint64_t CacheSalt = 0;
};

/// Fold the hashable engine knobs (relaxation config, sound rounding
/// mode) into a cache salt, together with \p CallerTag — the
/// caller's hash of everything the engine cannot see: the identity of the
/// input distribution behind Cdf and the abstract-domain tag.
uint64_t cacheSaltForConfig(const PropagateConfig &Config,
                            uint64_t CallerTag);

/// Display name of a layer kind for telemetry ("Linear", "ReLU", ...).
const char *layerKindName(Layer::Kind K);

/// One row of the per-layer telemetry timeline: what the abstract state
/// looked like entering and leaving each layer, and what the layer cost.
/// ChargedBytes is the simulated-device charge for the layer's output
/// state (nodes x activation-dim x sizeof(double)); its maximum over the
/// timeline is the propagation's device peak whenever the input charge
/// does not dominate.
struct LayerRecord {
  int64_t Index = 0;
  const char *Kind = ""; ///< static string from layerKindName()
  int64_t RegionsIn = 0;
  int64_t RegionsOut = 0;
  int64_t NodesIn = 0;
  int64_t NodesOut = 0;
  int64_t Splits = 0; ///< ReLU splits performed inside this layer
  int64_t Boxed = 0;  ///< regions boxed by relaxation before this layer
  size_t ChargedBytes = 0;
  double Seconds = 0.0;
  /// Degradation rung the layer finally executed at; None for clean runs.
  DegradeRung Rung = DegradeRung::None;
  /// Checkpoint rollbacks spent on this layer (each rollback re-executes
  /// only this layer, never its predecessors).
  int64_t Rollbacks = 0;
};

/// Engine telemetry for the scalability tables. The aggregate fields are
/// projections of the Layers timeline: MaxRegions/MaxNodes are the maxima
/// of the per-layer outputs, NumSplits/NumBoxed their sums.
struct PropagateStats {
  int64_t MaxRegions = 0;
  int64_t MaxNodes = 0;
  int64_t NumSplits = 0;
  int64_t NumBoxed = 0;
  bool OutOfMemory = false;
  /// Index of the layer whose charge blew the budget; -1 when no OOM or
  /// when already the initial input state did not fit.
  int64_t OomLayer = -1;
  // --- Resilience telemetry (all zero/false on non-degraded runs) ---
  /// The result is sound but wider than the configured analysis would have
  /// produced: some rung above None fired, a deadline expired, or regions
  /// were quarantined.
  bool Degraded = false;
  DegradeRung Rung = DegradeRung::None; ///< highest rung reached
  int64_t Rollbacks = 0;          ///< checkpoint rollbacks performed
  int64_t FallbackBoxLayers = 0;  ///< layers executed at the FullBox rung
  bool DeadlineHit = false;
  int64_t QuarantinedRegions = 0; ///< non-finite regions dropped
  /// Probability mass of quarantined regions. Sound bound computations
  /// must widen the upper bound by this mass (the quarantined image could
  /// lie anywhere).
  double QuarantinedMass = 0.0;
  /// Layers skipped by a propagation-cache warm start. Skipped layers
  /// produce no LayerRecord and contribute no splits — the bounds are
  /// still bit-identical to a cold run's.
  int64_t CacheWarmLayers = 0;
  std::vector<LayerRecord> Layers;
};

/// Push \p Regions through \p Layers. \p InputShape is the single-sample
/// activation shape of the first layer (e.g. {1, Latent}). \p Stats is
/// reset on entry and describes this call alone. On OOM the result is
/// empty and Stats.OutOfMemory is set — unless
/// Config.Resilience.Enabled, in which case the engine degrades in place
/// and always returns a sound (possibly boxed) state.
std::vector<Region> propagateRegions(const std::vector<const Layer *> &Layers,
                                     const Shape &InputShape,
                                     std::vector<Region> Regions,
                                     const PropagateConfig &Config,
                                     DeviceMemoryModel &Memory,
                                     PropagateStats &Stats);

} // namespace genprove

#endif // GENPROVE_DOMAINS_PROPAGATE_H
