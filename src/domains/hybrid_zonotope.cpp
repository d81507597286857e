//===- domains/hybrid_zonotope.cpp ----------------------------*- C++ -*-===//

#include "src/domains/hybrid_zonotope.h"

#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

namespace {

Tensor reshapeRows(const Tensor &Rows, const Shape &SampleShape) {
  std::vector<int64_t> Dims = SampleShape.dims();
  Dims[0] = Rows.dim(0);
  return Rows.reshaped(Shape(Dims));
}

Tensor flattenRows(const Tensor &Acts) {
  const int64_t K = Acts.dim(0);
  return Acts.reshaped({K, Acts.numel() / std::max<int64_t>(K, 1)});
}

struct HybridState {
  Tensor Center; ///< [1, N]
  Tensor Gens;   ///< [G, N] (fixed row count)
  Tensor Slack;  ///< [1, N] per-dimension box error
};

HybridState initHybridState(const Tensor &Start, const Tensor &End) {
  const bool Sound = soundRoundingEnabled();
  const int64_t N = Start.numel();
  HybridState St{Tensor({1, N}), Tensor({1, N}), Tensor({1, N})};
  for (int64_t J = 0; J < N; ++J) {
    St.Center[J] = 0.5 * (Start[J] + End[J]);
    St.Gens.at(0, J) = 0.5 * (End[J] - Start[J]);
    if (Sound)
      // Rounded endpoint representation + double-evaluated segment points.
      St.Slack[J] = fp::mulUp(
          8.0 * DBL_EPSILON,
          fp::addUp(std::fabs(Start[J]), std::fabs(End[J])));
  }
  return St;
}

/// One affine layer on the state: the slack propagates like a box radius
/// next to the center, the generators through the linear part.
void applyAffineToState(const Layer *L, const Shape &CurShape,
                        HybridState &St) {
  Tensor Center = reshapeRows(St.Center, CurShape);
  Tensor Slack = reshapeRows(St.Slack, CurShape);
  if (soundRoundingEnabled()) {
    // Bound |x| <= |c| + slack + sum|g| before the map, so the rounding
    // error of every round-to-nearest kernel can be charged to the slack
    // afterward; the three-plane box map carries the magnitude through
    // |A| and yields the bias image of a zero input.
    const int64_t N = St.Center.numel();
    Tensor Mags({1, N});
    for (int64_t J = 0; J < N; ++J) {
      double Acc = fp::addUp(std::fabs(St.Center[J]), St.Slack[J]);
      for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row)
        Acc = fp::addUp(Acc, std::fabs(St.Gens.at(Row, J)));
      Mags[J] = Acc;
    }
    Tensor Mag = reshapeRows(Mags, CurShape);
    Tensor BiasImage;
    L->applyToBoxPlanes(Center, Slack, Mag, BiasImage);
    const double Gamma = fp::accumulationBound(L->accumulationDepth());
    for (int64_t J = 0; J < Slack.numel(); ++J)
      Slack[J] = fp::addUp(
          Slack[J],
          fp::mulUp(Gamma, fp::addUp(Mag[J], std::fabs(BiasImage[J]))));
  } else {
    L->applyToBox(Center, Slack);
  }
  St.Center = flattenRows(Center);
  St.Slack = flattenRows(Slack);
  St.Gens = flattenRows(L->applyLinear(reshapeRows(St.Gens, CurShape)));
}

/// The hybrid ReLU transformer on one state: the fixed generator rows are
/// rescaled and the relaxation error lands in the box slack.
void applyReluToState(HybridState &St) {
  const bool Sound = soundRoundingEnabled();
  const int64_t Dim = St.Center.numel();
  const int64_t G = St.Gens.dim(0);
  for (int64_t J = 0; J < Dim; ++J) {
    double Spread = St.Slack[J];
    for (int64_t Row = 0; Row < G; ++Row) {
      const double A = std::fabs(St.Gens.at(Row, J));
      Spread = Sound ? fp::addUp(Spread, A) : Spread + A;
    }
    const double Lo = Sound ? fp::subDown(St.Center[J], Spread)
                            : St.Center[J] - Spread;
    const double Hi = Sound ? fp::addUp(St.Center[J], Spread)
                            : St.Center[J] + Spread;
    if (Hi <= 0.0) {
      St.Center[J] = 0.0;
      St.Slack[J] = 0.0;
      for (int64_t Row = 0; Row < G; ++Row)
        St.Gens.at(Row, J) = 0.0;
    } else if (Lo < 0.0) {
      const double Lambda = Hi / (Hi - Lo);
      const double Mu = -Lambda * Lo / 2.0;
      if (Sound) {
        // Same argument as the DeepZono transformer: the relaxation
        // with exact lambda*/mu* of this outward [Lo, Hi] is sound,
        // and the few-ULP deviation of the computed lambda/mu plus
        // the rescaling rounding goes into the slack (which also
        // swallows mu itself — that is the hybrid trade).
        const double M = std::max(std::fabs(Lo), Hi);
        const double SumG = fp::subUp(Spread, St.Slack[J]);
        const double Inner = fp::addUp(
            std::fabs(Mu),
            fp::mulUp(Lambda,
                      fp::addUp(M, fp::addUp(std::fabs(St.Center[J]),
                                             SumG))));
        const double LambdaUp =
            fp::mulUp(Lambda, 1.0 + 8.0 * DBL_EPSILON);
        St.Slack[J] =
            fp::addUp(fp::addUp(fp::mulUp(LambdaUp, St.Slack[J]),
                                fp::up(Mu)),
                      fp::mulUp(16.0 * DBL_EPSILON, Inner));
      } else {
        St.Slack[J] = Lambda * St.Slack[J] + Mu;
      }
      St.Center[J] = Lambda * St.Center[J] + Mu;
      for (int64_t Row = 0; Row < G; ++Row)
        St.Gens.at(Row, J) *= Lambda;
    }
  }
}

/// Propagate one segment; returns false on OOM. Telemetry lands in
/// Result.
bool propagateHybrid(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, DeviceMemoryModel &Memory,
                     HybridState &St, ConvexResult &Result) {
  St = initHybridState(Start, End);
  Shape CurShape = InputShape;
  auto Charge = [&]() {
    Result.MaxGenerators = std::max(Result.MaxGenerators, St.Gens.dim(0));
    const bool Ok = Memory.chargeState(St.Gens.dim(0) + 2, CurShape.numel());
    Result.PeakBytes = Memory.peakBytes();
    return Ok;
  };
  if (!Charge())
    return false;
  for (const Layer *L : Layers) {
    if (L->isAffine()) {
      applyAffineToState(L, CurShape, St);
      CurShape = L->outputShape(CurShape);
    } else {
      applyReluToState(St);
    }
    if (!Charge())
      return false;
  }
  return true;
}

/// Spec test on a final hybrid state, including the box slack.
ProbBounds liftedBounds(const HybridState &St, const OutputSpec &Spec) {
  const bool Sound = soundRoundingEnabled();
  bool Contained = true;
  bool Intersects = true;
  for (const auto &H : Spec.halfspaces()) {
    if (!Sound) {
      double Mid = H.Offset;
      double Spread = 0.0;
      for (int64_t J = 0; J < H.Normal.numel(); ++J) {
        Mid += H.Normal[J] * St.Center[J];
        Spread += std::fabs(H.Normal[J]) * St.Slack[J];
      }
      for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row) {
        double Dot = 0.0;
        for (int64_t J = 0; J < St.Gens.dim(1); ++J)
          Dot += H.Normal[J] * St.Gens.at(Row, J);
        Spread += std::fabs(Dot);
      }
      if (Mid - Spread <= 0.0)
        Contained = false;
      if (Mid + Spread <= 0.0)
        Intersects = false;
      continue;
    }
    double MidLo = H.Offset, MidHi = H.Offset;
    double SpreadUp = 0.0;
    for (int64_t J = 0; J < H.Normal.numel(); ++J) {
      MidLo = fp::addDown(MidLo, fp::mulDown(H.Normal[J], St.Center[J]));
      MidHi = fp::addUp(MidHi, fp::mulUp(H.Normal[J], St.Center[J]));
      SpreadUp = fp::addUp(
          SpreadUp, fp::mulUp(std::fabs(H.Normal[J]), St.Slack[J]));
    }
    for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row) {
      double DotLo = 0.0, DotHi = 0.0;
      for (int64_t J = 0; J < St.Gens.dim(1); ++J) {
        DotLo =
            fp::addDown(DotLo, fp::mulDown(H.Normal[J], St.Gens.at(Row, J)));
        DotHi = fp::addUp(DotHi, fp::mulUp(H.Normal[J], St.Gens.at(Row, J)));
      }
      SpreadUp = fp::addUp(SpreadUp,
                           std::max(std::fabs(DotLo), std::fabs(DotHi)));
    }
    if (fp::subDown(MidLo, SpreadUp) <= 0.0)
      Contained = false;
    if (fp::addUp(MidHi, SpreadUp) <= 0.0)
      Intersects = false;
  }
  if (Contained)
    return {1.0, 1.0, false};
  if (!Intersects)
    return {0.0, 0.0, false};
  return {0.0, 1.0, false};
}

} // namespace

std::vector<ConvexResult> analyzeHybridZonotopeMulti(
    const std::vector<const Layer *> &Layers, const Shape &InputShape,
    const Tensor &Start, const Tensor &End,
    const std::vector<OutputSpec> &Specs, DeviceMemoryModel &Memory) {
  ConvexResult Result;
  HybridState St;
  if (!propagateHybrid(Layers, InputShape, Start, End, Memory, St, Result)) {
    Result.Bounds = {0.0, 1.0, true};
    return std::vector<ConvexResult>(Specs.size(), Result);
  }
  std::vector<ConvexResult> Results;
  Results.reserve(Specs.size());
  for (const OutputSpec &Spec : Specs) {
    ConvexResult PerSpec = Result;
    PerSpec.Bounds = liftedBounds(St, Spec);
    Results.push_back(std::move(PerSpec));
  }
  return Results;
}

ConvexResult analyzeHybridZonotope(const std::vector<const Layer *> &Layers,
                                   const Shape &InputShape,
                                   const Tensor &Start, const Tensor &End,
                                   const OutputSpec &Spec,
                                   DeviceMemoryModel &Memory) {
  return analyzeHybridZonotopeMulti(Layers, InputShape, Start, End, {Spec},
                                    Memory)
      .front();
}

ZonotopeOutputBounds
hybridZonotopeOutputBounds(const std::vector<const Layer *> &Layers,
                           const Shape &InputShape, const Tensor &Start,
                           const Tensor &End, DeviceMemoryModel &Memory) {
  ZonotopeOutputBounds Out;
  ConvexResult Result;
  HybridState St;
  if (!propagateHybrid(Layers, InputShape, Start, End, Memory, St, Result)) {
    Out.OutOfMemory = true;
    return Out;
  }
  const int64_t N = St.Center.numel();
  Out.Lo = Tensor({1, N});
  Out.Hi = Tensor({1, N});
  for (int64_t J = 0; J < N; ++J) {
    double Spread = St.Slack[J];
    for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row)
      Spread = fp::addUp(Spread, std::fabs(St.Gens.at(Row, J)));
    Out.Lo[J] = fp::subDown(St.Center[J], Spread);
    Out.Hi[J] = fp::addUp(St.Center[J], Spread);
  }
  return Out;
}

} // namespace genprove
