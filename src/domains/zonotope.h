//===- domains/zonotope.h - Affine-form baselines --------------*- C++ -*-===//
///
/// \file
/// The affine-form baseline domains of the paper's Tables 2 and 8: a
/// center plus generators, c + sum_g eps_g * G_g with eps in [-1, 1]^G,
/// plus a per-dimension interval slack. The three kinds share the state,
/// the initial segment, the affine transformer, the lifted spec test and
/// the output hull, and differ only in their ReLU transformer:
///
///  * Zonotope [Gehr et al. 2018, AI2]: a crossing neuron is replaced by
///    the interval [0, hi] introduced as a fresh error term (looser, the
///    historical formulation);
///  * DeepZono [Singh et al. 2018]: the minimal-area parallelogram
///    y = lambda*x + mu +- mu with lambda = hi/(hi-lo), mu = -lambda*lo/2,
///    whose mu becomes a fresh error term;
///  * HybridZono [Mirman et al. 2018, DiffAI]: the same parallelogram, but
///    mu is folded into the slack instead of a fresh generator, so the
///    generator count stays fixed (Table 8 shows 0% OOM) at the cost of
///    precision (widths near 1 on generative specifications).
///
/// Zonotope and DeepZono add one error term per crossing neuron, so the
/// generator matrix grows without bound — this is exactly why the paper
/// reports 100% OOM for these domains on every network (Table 8). The
/// initial line segment is represented exactly (center = midpoint, one
/// generator = half difference), so no precision is lost at the input.
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

/// Which ReLU transformer the affine-form analysis uses.
enum class ZonotopeKind : uint8_t { Zonotope, DeepZono, HybridZono };

/// Result of a convex-domain analysis, lifted probabilistically.
struct ConvexResult {
  ProbBounds Bounds;       ///< {1,1}, {0,0} or {0,1} (plus OOM flag).
  size_t PeakBytes = 0;    ///< simulated device memory peak.
  int64_t MaxGenerators = 0;
};

/// Analyze the segment e1->e2 (flat [1, N] endpoints) through the layers.
/// Propagation is specification-independent: analyze once and evaluate
/// every spec on the final state. Returns one ConvexResult per spec (all
/// sharing the same memory/telemetry).
std::vector<ConvexResult>
analyzeZonotopeMulti(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, const std::vector<OutputSpec> &Specs,
                     ZonotopeKind Kind, DeviceMemoryModel &Memory);

/// Per-dimension interval hull of the final state, rounded outward.
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
