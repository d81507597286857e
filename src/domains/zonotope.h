//===- domains/zonotope.h - Zonotope / DeepZono baselines ------*- C++ -*-===//
///
/// \file
/// The convex baseline domains of the paper's Tables 2 and 8: affine forms
/// c + sum_g eps_g * G_g with eps in [-1, 1]^G. Two ReLU transformers are
/// provided:
///
///  * Zonotope [Gehr et al. 2018, AI2]: a crossing neuron is replaced by
///    the interval [0, hi] introduced as a fresh error term (looser, the
///    historical formulation);
///  * DeepZono [Singh et al. 2018]: the minimal-area parallelogram
///    y = lambda*x + mu +- mu with lambda = hi/(hi-lo), mu = -lambda*lo/2.
///
/// Both add one error term per crossing neuron, so the generator matrix
/// grows without bound — this is exactly why the paper reports 100% OOM
/// for these domains on every network (Table 8). The initial line segment
/// is represented exactly (center = midpoint, one generator = half
/// difference), so no precision is lost at the input.
///
/// Lifted probabilistically (Section 4, "Lifting"), a convex domain can
/// only ever certify l = 1 (fully contained) or u = 0 (fully disjoint);
/// anything else yields the trivial [0, 1].
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_ZONOTOPE_H
#define GENPROVE_DOMAINS_ZONOTOPE_H

#include "src/core/spec.h"
#include "src/domains/memory_model.h"
#include "src/nn/sequential.h"

namespace genprove {

/// Which ReLU transformer the zonotope analysis uses.
enum class ZonotopeKind : uint8_t { Zonotope, DeepZono };

/// Result of a convex-domain analysis, lifted probabilistically.
struct ConvexResult {
  ProbBounds Bounds;       ///< {1,1}, {0,0} or {0,1} (plus OOM flag).
  size_t PeakBytes = 0;    ///< simulated device memory peak.
  int64_t MaxGenerators = 0;
};

/// Analyze the segment e1->e2 (flat [1, N] endpoints) through the layers
/// against the spec.
ConvexResult analyzeZonotope(const std::vector<const Layer *> &Layers,
                             const Shape &InputShape, const Tensor &Start,
                             const Tensor &End, const OutputSpec &Spec,
                             ZonotopeKind Kind, DeviceMemoryModel &Memory);

/// Propagation is specification-independent: analyze once and evaluate
/// every spec on the final zonotope. Returns one ConvexResult per spec
/// (all sharing the same memory/telemetry).
std::vector<ConvexResult>
analyzeZonotopeMulti(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, const std::vector<OutputSpec> &Specs,
                     ZonotopeKind Kind, DeviceMemoryModel &Memory);

/// Per-dimension interval hull of the final zonotope, rounded outward.
/// Used by the soundness audit (src/audit) to check containment of
/// concrete forward passes.
struct ZonotopeOutputBounds {
  Tensor Lo, Hi; ///< [1, N] each; empty when OutOfMemory.
  bool OutOfMemory = false;
};

ZonotopeOutputBounds
zonotopeOutputBounds(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, ZonotopeKind Kind,
                     DeviceMemoryModel &Memory);

} // namespace genprove

#endif // GENPROVE_DOMAINS_ZONOTOPE_H
