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

#include "src/domains/region.h"
#include "src/domains/zonotope.h"

namespace genprove {

/// The Box domain's initial set: the bounding box of the segment
/// e1->e2 (flat [1, N] endpoints) as a box region of weight 1. Under
/// sound rounding it is padded so it also covers any round-to-nearest
/// evaluation of a point on the segment.
Region segmentBox(const Tensor &Start, const Tensor &End);

/// Analyze the segment e1->e2 with pure interval arithmetic: one
/// propagation, many specs (see analyzeZonotopeMulti).
std::vector<ConvexResult>
analyzeBoxMulti(const std::vector<const Layer *> &Layers,
                const Shape &InputShape, const Tensor &Start,
                const Tensor &End, const std::vector<OutputSpec> &Specs,
                DeviceMemoryModel &Memory);

} // namespace genprove

#endif // GENPROVE_DOMAINS_BOX_DOMAIN_H
