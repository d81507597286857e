//===- serve/qos.cpp ------------------------------------------*- C++ -*-===//

#include "src/serve/qos.h"

#include <algorithm>

namespace genprove {

QosDecision qosDecisionFor(double RemainingSeconds, bool HasDeadline,
                           const QosPolicy &Policy) {
  QosDecision D;
  D.Resilience.Enabled = true;
  if (!HasDeadline) {
    D.Rung = ShardRung::Configured;
    D.Resilience.DeadlineSeconds = Policy.DefaultRunSeconds;
    return D;
  }
  if (RemainingSeconds <= Policy.BoxFloorSeconds) {
    // Late or nearly-late: the budget-exempt interval-box analysis is the
    // only rung guaranteed to answer in (almost) zero time, and its
    // answer is still a sound enclosure.
    D.Rung = ShardRung::IntervalBox;
    D.Resilience.StartAtFullBox = true;
    D.Resilience.DeadlineSeconds = std::max(RemainingSeconds, 0.0);
    return D;
  }
  if (RemainingSeconds <= Policy.ResilientFloorSeconds) {
    D.Rung = ShardRung::Resilient;
    D.Resilience.DeadlineSeconds = RemainingSeconds;
    return D;
  }
  D.Rung = ShardRung::Configured;
  D.Resilience.DeadlineSeconds = RemainingSeconds;
  return D;
}

} // namespace genprove
