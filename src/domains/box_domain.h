//===- domains/box_domain.h - Interval/Box baseline ------------*- C++ -*-===//
///
/// \file
/// The Box domain (plain interval arithmetic), the cheapest and least
/// precise baseline in Tables 2 and 8. The initial segment is relaxed to
/// its bounding box — the only domain for which the input representation
/// itself loses precision.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_BOX_DOMAIN_H
#define GENPROVE_DOMAINS_BOX_DOMAIN_H

#include "src/domains/zonotope.h"

namespace genprove {

/// Analyze the segment e1->e2 with pure interval arithmetic.
ConvexResult analyzeBox(const std::vector<const Layer *> &Layers,
                        const Shape &InputShape, const Tensor &Start,
                        const Tensor &End, const OutputSpec &Spec,
                        DeviceMemoryModel &Memory);

/// One propagation, many specs (see analyzeZonotopeMulti).
std::vector<ConvexResult>
analyzeBoxMulti(const std::vector<const Layer *> &Layers,
                const Shape &InputShape, const Tensor &Start,
                const Tensor &End, const std::vector<OutputSpec> &Specs,
                DeviceMemoryModel &Memory);

} // namespace genprove

#endif // GENPROVE_DOMAINS_BOX_DOMAIN_H
