//===- domains/hybrid_zonotope.h - HybridZono baseline ---------*- C++ -*-===//
///
/// \file
/// HybridZono (Mirman et al. 2018, DiffAI): a zonotope with a fixed set of
/// generators plus a per-dimension box slack. ReLU relaxation error is
/// folded into the box term instead of fresh generators, so memory stays
/// constant (the domain scales — Table 8 shows 0% OOM) at the cost of
/// precision (widths near 1 on generative specifications).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_HYBRID_ZONOTOPE_H
#define GENPROVE_DOMAINS_HYBRID_ZONOTOPE_H

#include "src/domains/zonotope.h"

namespace genprove {

/// Analyze the segment e1->e2 with the hybrid zonotope domain.
ConvexResult analyzeHybridZonotope(const std::vector<const Layer *> &Layers,
                                   const Shape &InputShape,
                                   const Tensor &Start, const Tensor &End,
                                   const OutputSpec &Spec,
                                   DeviceMemoryModel &Memory);

/// One propagation, many specs (see analyzeZonotopeMulti).
std::vector<ConvexResult> analyzeHybridZonotopeMulti(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const Tensor &Start, const Tensor &End,
    const std::vector<OutputSpec> &Specs, DeviceMemoryModel &Memory);

/// Per-dimension interval hull of the final hybrid state, rounded outward
/// (see zonotopeOutputBounds). Used by the soundness audit (src/audit).
ZonotopeOutputBounds
hybridZonotopeOutputBounds(const std::vector<const Layer *> &Layers,
                           const Shape &InputShape, const Tensor &Start,
                           const Tensor &End, DeviceMemoryModel &Memory);

} // namespace genprove

#endif // GENPROVE_DOMAINS_HYBRID_ZONOTOPE_H
