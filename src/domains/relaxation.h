//===- domains/relaxation.h - The Section 3.1 relaxation heuristic -*- C++ -*-===//
///
/// \file
/// GenProve's adaptive relaxation (Section 3.1): before each convolutional
/// layer, chains of connected curve pieces with more than NodeThreshold
/// nodes are traversed in parameter order; short pieces (length at or below
/// the p-th percentile of chain lengths) are replaced by their bounding
/// boxes, adjacent boxes created in one traversal step are merged, the next
/// piece is skipped, and the traversal restarts — until the chain ends or
/// the per-step endpoint budget t/k is exhausted.
///
/// Setting RelaxPercent = 0 disables all boxing (every length is strictly
/// above the 0-th percentile), which reduces the analysis to the exact
/// method of Sotoudeh & Thakur; relaxing the initial segment entirely
/// reduces it to interval arithmetic. Weights are preserved: a box carries
/// the total mass of the pieces it replaced (Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_RELAXATION_H
#define GENPROVE_DOMAINS_RELAXATION_H

#include "src/domains/region.h"

namespace genprove {

/// Heuristic parameters: GenProve^p_k in the paper's notation.
struct RelaxConfig {
  double RelaxPercent = 0.0;   ///< p: percentile of chain lengths to box.
  double ClusterK = 100.0;     ///< k: per-step endpoint budget is t/k.
  int64_t NodeThreshold = 1000; ///< chains at or below this are left exact.
};

/// Apply the relaxation heuristic in place. The curve regions form one
/// connected chain processed in parameter order. Existing boxes are left
/// untouched (they are already relaxed).
void relaxRegions(std::vector<Region> &Regions, const RelaxConfig &Config);

/// Total node count of a region list (the memory model's unit).
int64_t totalNodes(const std::vector<Region> &Regions);

/// Emergency coarsening for the resilience layer: replace the lowest-mass
/// curve pieces with bounding boxes, merging all boxes created by one call
/// into a single box, until the total node count is at most TargetNodes.
/// If boxing every curve is not enough, pre-existing boxes are merged in
/// as well (the state then collapses toward one interval box). Section 4.1
/// weights are preserved exactly: a box carries the total mass of what it
/// replaced. Returns true when the state changed.
bool boxLowestMassRegions(std::vector<Region> &Regions, int64_t TargetNodes);

} // namespace genprove

#endif // GENPROVE_DOMAINS_RELAXATION_H
