//===- core/consistency.h - Consistency metric evaluation ------*- C++ -*-===//
///
/// \file
/// The paper's evaluation metric (Section 5): *consistency* — for a point
/// picked from the segment between the encodings of two ground-truth
/// inputs, the probability that its decoding keeps the same attribute /
/// class prediction. This module selects matched pairs, builds their
/// specifications, certifies them with one method over
/// decoder-then-classifier, and aggregates the average-consistency bound
/// widths of Tables 1, 2, 4 and 8: every grid cell is one
/// evaluateConsistency call.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_CORE_CONSISTENCY_H
#define GENPROVE_CORE_CONSISTENCY_H

#include "src/core/genprove.h"
#include "src/data/dataset.h"

namespace genprove {

/// A matched pair of dataset indices (same class, or identical attribute
/// vector).
struct SpecPair {
  int64_t First = 0;
  int64_t Second = 0;
};

/// Pairs with the same class label.
std::vector<SpecPair> sameClassPairs(const Dataset &Set, int64_t NumPairs,
                                     Rng &Generator);

/// Pairs whose full attribute vectors agree (the paper's CelebA setting:
/// "sign a_i = sign b_i for every attribute").
std::vector<SpecPair> sameAttributePairs(const Dataset &Set, int64_t NumPairs,
                                         Rng &Generator);

/// Pairs of an image with its own horizontal flip (the head-orientation
/// specification of Table 5a).
std::vector<SpecPair> flipPairs(int64_t NumImages, int64_t NumPairs,
                                Rng &Generator);

/// The verification methods the paper's tables compare.
enum class Method : int {
  Box = 0,
  HybridZono,
  Zonotope,
  DeepZono,
  Baseline,       ///< exact deterministic (Sotoudeh & Thakur, GPU version)
  GenProveDet,    ///< relaxed deterministic
  GenProveExact,  ///< GenProve^0 (exact probabilistic)
  GenProveRelax,  ///< GenProve^p_k (relaxed probabilistic)
  Sampling,       ///< Clopper-Pearson at 99.999%
  NumMethods,
};

const char *methodName(Method M);

/// The knobs a consistency cell's values depend on.
struct ConsistencyConfig {
  int64_t SamplesPerPair = 4000;
  double SamplingAlpha = 1e-5; ///< 99.999% confidence.
  double RelaxPercent = 0.02;
  double ClusterK = 100.0;
  int64_t NodeThreshold = 250; ///< paper: 1000 at 4x our scale.
  size_t MemoryBudgetBytes = 240ull << 20; ///< 24 GB scaled 1:100.
};

/// The specifications a pair must keep: one sign spec per attribute of
/// image \p First when \p Set carries attributes (the CelebA setting),
/// else the argmax of its class.
std::vector<OutputSpec> consistencySpecs(const Dataset &Set, int64_t First,
                                         int64_t NumOutputs);

/// One pair of a cell: the encoded endpoints and the specs between them.
struct ConsistencyPair {
  Tensor Start;
  Tensor End;
  std::vector<OutputSpec> Specs;
};

/// Aggregated evaluation of one method over a set of pairs.
struct ConsistencyReport {
  double MeanWidth = 1.0;          ///< average of (u - l) over all bounds.
  double MeanLower = 0.0;
  double MeanUpper = 1.0;
  double FractionNonTrivial = 0.0; ///< Table 1's metric.
  double FractionOom = 0.0;
  double MeanSeconds = 0.0;        ///< wall clock per pair.
  size_t PeakBytes = 0;            ///< max over pairs.
  int64_t NumBounds = 0;
  /// Engine telemetry, max over pairs (GenProve-family methods only).
  int64_t MaxRegions = 0;
  int64_t MaxNodes = 0;
  int64_t Retries = 0;
};

/// One cell of the experiment grid: certify every pair between its
/// endpoints through \p Pipeline (decoder then classifier) with
/// \p Which's production call, and aggregate the bounds pair-major,
/// spec-minor. The GenProve family runs propagateSegment + boundsFor, the
/// convex domains analyzeBoxMulti / analyzeZonotopeMulti with a fresh
/// device memory model per pair, and Sampling runs sampleSegmentBounds on
/// one seeded sample stream for the whole cell.
ConsistencyReport evaluateConsistency(
    const std::vector<const Layer *> &Pipeline, const Shape &LatentShape,
    const std::vector<ConsistencyPair> &Pairs, Method Which,
    const ConsistencyConfig &Config);

} // namespace genprove

#endif // GENPROVE_CORE_CONSISTENCY_H
