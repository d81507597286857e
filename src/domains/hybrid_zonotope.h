//===- domains/hybrid_zonotope.h - HybridZono entry point ------*- C++ -*-===//
///
/// \file
/// HybridZono (Mirman et al. 2018, DiffAI) runs on the affine-form engine
/// of zonotope.h as ZonotopeKind::HybridZono; analyzeHybridZonotopeMulti
/// is its named entry point.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_HYBRID_ZONOTOPE_H
#define GENPROVE_DOMAINS_HYBRID_ZONOTOPE_H

#include "src/domains/zonotope.h"

namespace genprove {

/// analyzeZonotopeMulti with ZonotopeKind::HybridZono.
inline std::vector<ConvexResult> analyzeHybridZonotopeMulti(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const Tensor &Start, const Tensor &End,
    const std::vector<OutputSpec> &Specs, DeviceMemoryModel &Memory) {
  return analyzeZonotopeMulti(Layers, InputShape, Start, End, Specs,
                              ZonotopeKind::HybridZono, Memory);
}

} // namespace genprove

#endif // GENPROVE_DOMAINS_HYBRID_ZONOTOPE_H
