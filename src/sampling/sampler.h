//===- sampling/sampler.h - The sampling baseline ---------------*- C++ -*-===//
///
/// \file
/// The statistical baseline of Table 4: draw parameters from the input
/// distribution, push the concrete points through the pipeline, and report
/// a Clopper-Pearson interval for Pr[y in D] at the requested confidence
/// (the paper uses 99.999%). Unlike GenProve's bounds, these are only
/// correct with the stated probability.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SAMPLING_SAMPLER_H
#define GENPROVE_SAMPLING_SAMPLER_H

#include "src/core/distribution.h"
#include "src/core/genprove.h"

namespace genprove {

/// Result of a sampling run for one spec.
struct SamplingResult {
  double Lower = 0.0;
  double Upper = 1.0;
  int64_t Satisfied = 0;
  int64_t NumSamples = 0;

  double width() const { return Upper - Lower; }
};

/// Sample the segment Start->End under \p Dist and bound Pr[spec] for
/// every spec of \p Specs with a Clopper-Pearson interval at confidence
/// (1 - Alpha). Every spec is scored on the same NumSamples points, so
/// one result per spec comes from one sample stream.
std::vector<SamplingResult>
sampleSegmentBounds(const std::vector<const Layer *> &Layers,
                    const Shape &InputShape, const Tensor &Start,
                    const Tensor &End, const std::vector<OutputSpec> &Specs,
                    ParamDistribution Dist, int64_t NumSamples, double Alpha,
                    Rng &Generator);

/// Same for a quadratic curve gamma(t) = A0 + A1 t + A2 t^2.
std::vector<SamplingResult>
sampleQuadraticBounds(const std::vector<const Layer *> &Layers,
                      const Shape &InputShape, const Tensor &A0,
                      const Tensor &A1, const Tensor &A2,
                      const std::vector<OutputSpec> &Specs,
                      ParamDistribution Dist, int64_t NumSamples, double Alpha,
                      Rng &Generator);

} // namespace genprove

#endif // GENPROVE_SAMPLING_SAMPLER_H
