//===- sampling/sampler.cpp -----------------------------------*- C++ -*-===//

#include "src/sampling/sampler.h"

#include "src/util/stats.h"

#include <algorithm>

namespace genprove {

namespace {

std::vector<SamplingResult>
sampleCurveBounds(const std::vector<const Layer *> &Layers,
                  const Shape &InputShape, const Region &Curve,
                  const std::vector<OutputSpec> &Specs, ParamDistribution Dist,
                  int64_t NumSamples, double Alpha, Rng &Generator) {
  const int64_t N = Curve.dim();
  const int64_t Chunk = 256;
  std::vector<int64_t> Satisfied(Specs.size(), 0);
  int64_t Done = 0;
  while (Done < NumSamples) {
    const int64_t B = std::min(Chunk, NumSamples - Done);
    Tensor Points({B, N});
    for (int64_t I = 0; I < B; ++I) {
      const double T = sampleParam(Dist, Generator);
      const Tensor P = evalCurve(Curve, T);
      std::copy(P.data(), P.data() + N, Points.data() + I * N);
    }
    const Tensor Out = forwardConcretePoints(Layers, InputShape, Points);
    const int64_t OutDim = Out.dim(1);
    for (int64_t I = 0; I < B; ++I) {
      Tensor Row({1, OutDim});
      std::copy(Out.data() + I * OutDim, Out.data() + (I + 1) * OutDim,
                Row.data());
      for (size_t S = 0; S < Specs.size(); ++S)
        if (Specs[S].satisfied(Row))
          ++Satisfied[S];
    }
    Done += B;
  }

  std::vector<SamplingResult> Results(Specs.size());
  for (size_t S = 0; S < Specs.size(); ++S) {
    SamplingResult &Result = Results[S];
    Result.Satisfied = Satisfied[S];
    Result.NumSamples = NumSamples;
    const auto [Lo, Hi] =
        clopperPearson(static_cast<size_t>(Satisfied[S]),
                       static_cast<size_t>(NumSamples), Alpha);
    Result.Lower = Lo;
    Result.Upper = Hi;
  }
  return Results;
}

} // namespace

std::vector<SamplingResult>
sampleSegmentBounds(const std::vector<const Layer *> &Layers,
                    const Shape &InputShape, const Tensor &Start,
                    const Tensor &End, const std::vector<OutputSpec> &Specs,
                    ParamDistribution Dist, int64_t NumSamples, double Alpha,
                    Rng &Generator) {
  const Region Curve = makeSegmentRegion(
      Start.reshaped({1, Start.numel()}), End.reshaped({1, End.numel()}));
  return sampleCurveBounds(Layers, InputShape, Curve, Specs, Dist, NumSamples,
                           Alpha, Generator);
}

std::vector<SamplingResult>
sampleQuadraticBounds(const std::vector<const Layer *> &Layers,
                      const Shape &InputShape, const Tensor &A0,
                      const Tensor &A1, const Tensor &A2,
                      const std::vector<OutputSpec> &Specs,
                      ParamDistribution Dist, int64_t NumSamples, double Alpha,
                      Rng &Generator) {
  const Region Curve = makeQuadraticRegion(A0.reshaped({1, A0.numel()}),
                                           A1.reshaped({1, A1.numel()}),
                                           A2.reshaped({1, A2.numel()}));
  return sampleCurveBounds(Layers, InputShape, Curve, Specs, Dist, NumSamples,
                           Alpha, Generator);
}

} // namespace genprove
