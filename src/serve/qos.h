//===- serve/qos.h - Deadline-to-rung QoS mapping --------------*- C++ -*-===//
///
/// \file
/// Per-request quality-of-service for the verification daemon: each
/// request carries an optional deadline, and the remaining time when the
/// request is finally admitted decides which supervision rung its
/// propagation starts at. The ladder reuses the shard supervisor's rungs
/// (shard/supervisor.h) — the same coarsening order that makes retries
/// converge makes late requests cheap:
///
///   remaining > ResilientFloor   Configured  — the user's full domain,
///                                under a deadline equal to the remaining
///                                time so the PR-3 ladder bounds the tail;
///   BoxFloor < remaining <= RF   Resilient   — degradation ladder armed
///                                from layer 0 (local boxing bites early);
///   remaining <= BoxFloor        IntervalBox — StartAtFullBox: the whole
///                                pipeline runs budget-exempt interval
///                                arithmetic. This includes remaining <= 0:
///                                an already-late request still gets a
///                                *sound* [l, u] — wider, never wrong, and
///                                never a silent timeout.
///
/// Resilience is unconditionally enabled server-side — an admitted
/// request must terminate with a sound bound no matter what the engine
/// hits — so the response status is CERTIFIED when the engine stayed
/// clean and DEGRADED (still sound) when any rung fired.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SERVE_QOS_H
#define GENPROVE_SERVE_QOS_H

#include "src/domains/propagate.h"
#include "src/shard/supervisor.h"

namespace genprove {

/// Tuning knobs for the deadline→rung mapping.
struct QosPolicy {
  /// Below this much remaining time, skip straight past the full domain
  /// to the Resilient rung.
  double ResilientFloorSeconds = 0.25;
  /// Below this much remaining time (including zero and negative), only
  /// the interval-box analysis can finish meaningfully.
  double BoxFloorSeconds = 0.05;
  /// Engine deadline applied to requests that carry none, so a pathological
  /// propagation cannot hold a server slot forever.
  double DefaultRunSeconds = 30.0;
};

/// The rung and engine resilience configuration chosen for one request.
struct QosDecision {
  ShardRung Rung = ShardRung::Configured;
  ResilienceConfig Resilience; ///< Enabled, with the QoS deadline applied
};

/// Map remaining wall-clock time onto the rung ladder. \p HasDeadline is
/// false for requests that carry no deadline (always Configured, bounded
/// by DefaultRunSeconds). Boundary values land on the coarser rung: a
/// request with exactly ResilientFloor remaining runs Resilient, one with
/// exactly BoxFloor remaining runs IntervalBox.
QosDecision qosDecisionFor(double RemainingSeconds, bool HasDeadline,
                           const QosPolicy &Policy);

} // namespace genprove

#endif // GENPROVE_SERVE_QOS_H
