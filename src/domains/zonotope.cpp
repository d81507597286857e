//===- domains/zonotope.cpp -----------------------------------*- C++ -*-===//

#include "src/domains/zonotope.h"

#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

namespace {

/// Mutable affine-form state. Slack is a per-dimension interval term.
/// HybridZono folds its ReLU relaxation error into it; for Zonotope and
/// DeepZono it is identically zero in the default round-to-nearest mode.
/// Under sound rounding it also absorbs every rounding error of the
/// affine and ReLU transformers, for all three kinds.
struct ZonoState {
  Tensor Center; ///< [1, N]
  Tensor Gens;   ///< [G, N]
  Tensor Slack;  ///< [1, N]
};

ZonoState initState(const Tensor &Start, const Tensor &End) {
  const int64_t N = Start.numel();
  ZonoState St{Tensor({1, N}), Tensor({1, N}), Tensor({1, N})};
  const bool Sound = soundRoundingEnabled();
  for (int64_t J = 0; J < N; ++J) {
    St.Center[J] = 0.5 * (Start[J] + End[J]);
    St.Gens.at(0, J) = 0.5 * (End[J] - Start[J]);
    if (Sound)
      // Covers the rounding of midpoint/half-difference and the deviation
      // of any double-evaluated point s + t*(e-s) from the exact segment.
      St.Slack[J] = fp::mulUp(
          8.0 * DBL_EPSILON,
          fp::addUp(std::fabs(Start[J]), std::fabs(End[J])));
  }
  return St;
}

/// One affine layer on the state: the slack propagates like a box radius
/// next to the center, the generators through the linear part. In sound
/// mode the slack additionally absorbs a rigorous bound on the rounding
/// errors of every round-to-nearest kernel involved.
void applyAffineToState(const Layer *L, const Shape &CurShape,
                        ZonotopeKind Kind, ZonoState &St) {
  Tensor Center = rowsToActivations(std::move(St.Center), CurShape);
  Tensor Slack = rowsToActivations(std::move(St.Slack), CurShape);
  if (!soundRoundingEnabled() && Kind != ZonotopeKind::HybridZono) {
    // Zonotope and DeepZono keep an all-zero slack in round-to-nearest,
    // and |A|·0 = 0: the affine kernel alone maps the center.
    Center = L->applyAffine(std::move(Center));
    Slack = Tensor({1, Center.numel()});
  } else if (soundRoundingEnabled()) {
    // Magnitude bound on any represented (or concretely forwarded) point:
    // |x| <= |c| + slack + sum_g |g|, summed with directed rounding.
    // HybridZono starts the sum from |c| + slack, the other kinds add it
    // last; each order is its kind's pinned sound result.
    const int64_t N = Center.numel();
    const bool Hybrid = Kind == ZonotopeKind::HybridZono;
    Tensor Mags({1, N});
    for (int64_t J = 0; J < N; ++J) {
      const double Own = fp::addUp(std::fabs(Center[J]), Slack[J]);
      double Acc = Hybrid ? Own : 0.0;
      for (int64_t Row = 0; Row < St.Gens.dim(0); ++Row)
        Acc = fp::addUp(Acc, std::fabs(St.Gens.at(Row, J)));
      Mags[J] = Hybrid ? Acc : fp::addUp(Acc, Own);
    }
    // One box map carries the center through the affine map and the slack
    // and magnitude through |A|, and yields the bias image of a zero input.
    Tensor Mag = rowsToActivations(std::move(Mags), CurShape);
    Tensor BiasImage;
    L->applyToBox(Center, Slack, &Mag, &BiasImage);
    // gamma * (|A| Mag + |b|) bounds, with a wide margin, the sum of the
    // rounding errors of the center map, every generator row, the slack
    // propagation and a concrete forward pass of a represented point. A
    // shape-only layer rounds nothing, but the step still runs on it (on a
    // +0.0 bias image), which is part of every pinned sound result.
    const double Gamma = fp::accumulationBound(L->accumulationDepth());
    for (int64_t J = 0; J < Slack.numel(); ++J)
      Slack[J] = fp::addUp(
          Slack[J],
          fp::mulUp(Gamma, fp::addUp(Mag[J], std::fabs(BiasImage[J]))));
  } else {
    // HybridZono's slack holds its ReLU relaxation error.
    L->applyToBox(Center, Slack);
  }
  St.Center = activationsToRows(std::move(Center));
  St.Slack = activationsToRows(std::move(Slack));
  St.Gens = activationsToRows(
      L->applyLinear(rowsToActivations(std::move(St.Gens), CurShape)));
}

/// ReLU transformer on the state. In sound mode the pre-activation range
/// is rounded outward and the lambda/mu rounding error is folded into the
/// slack.
void applyReluToState(ZonotopeKind Kind, ZonoState &St) {
  const bool Sound = soundRoundingEnabled();
  const int64_t Dim = St.Center.numel();
  const int64_t G = St.Gens.dim(0);
  std::vector<std::pair<int64_t, double>> Fresh; // (dim, coefficient)
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
    } else if (Lo < 0.0 && Kind == ZonotopeKind::Zonotope) {
      // AI2-style: forget the affine form, use [0, Hi]. In sound mode
      // the fresh coefficient rounds up so [c - f, c + f] = [0, 2f]
      // still covers [0, Hi]; the slack is consumed by Hi.
      const double Half = Sound ? fp::mulUp(0.5, Hi) : Hi / 2.0;
      St.Center[J] = Half;
      St.Slack[J] = 0.0;
      for (int64_t Row = 0; Row < G; ++Row)
        St.Gens.at(Row, J) = 0.0;
      Fresh.emplace_back(J, Half);
    } else if (Lo < 0.0) {
      // Minimal-area parallelogram: y = lambda*x + mu +- mu. DeepZono
      // gives the +- mu a fresh generator; HybridZono puts it in the
      // slack, which keeps the generator rows fixed.
      const bool Hybrid = Kind == ZonotopeKind::HybridZono;
      const double Lambda = Hi / (Hi - Lo);
      const double Mu = -Lambda * Lo / 2.0;
      if (Sound) {
        // The parallelogram with the exact lambda*/mu* of this outward
        // [Lo, Hi] is sound; the computed lambda/mu deviate by a few
        // ULPs, as do the rescaled center/generators. All of it lands
        // in the slack.
        const double M = std::max(std::fabs(Lo), Hi);
        const double SumG = fp::subUp(Spread, St.Slack[J]);
        const double Inner = fp::addUp(
            std::fabs(Mu),
            fp::mulUp(Lambda,
                      fp::addUp(M, fp::addUp(std::fabs(St.Center[J]),
                                             SumG))));
        const double LambdaUp =
            fp::mulUp(Lambda, 1.0 + 8.0 * DBL_EPSILON);
        const double Scaled = fp::mulUp(LambdaUp, St.Slack[J]);
        St.Slack[J] =
            fp::addUp(Hybrid ? fp::addUp(Scaled, fp::up(Mu)) : Scaled,
                      fp::mulUp(16.0 * DBL_EPSILON, Inner));
      } else if (Hybrid) {
        St.Slack[J] = Lambda * St.Slack[J] + Mu;
      }
      St.Center[J] = Lambda * St.Center[J] + Mu;
      for (int64_t Row = 0; Row < G; ++Row)
        St.Gens.at(Row, J) *= Lambda;
      if (!Hybrid)
        Fresh.emplace_back(J, Mu);
    }
    // Lo >= 0: identity (exact; slack carries over unchanged).
  }
  if (!Fresh.empty()) {
    Tensor NewGens({G + static_cast<int64_t>(Fresh.size()), Dim});
    std::copy(St.Gens.data(), St.Gens.data() + St.Gens.numel(),
              NewGens.data());
    for (size_t K = 0; K < Fresh.size(); ++K)
      NewGens.at(G + static_cast<int64_t>(K), Fresh[K].first) =
          Fresh[K].second;
    St.Gens = std::move(NewGens);
  }
}

/// Propagate one segment. Returns false on OOM; peak/generator
/// telemetry accumulates into Result.
bool propagateZonotope(const std::vector<const Layer *> &Layers,
                       const Shape &InputShape, const Tensor &Start,
                       const Tensor &End, ZonotopeKind Kind,
                       DeviceMemoryModel &Memory, ZonoState &St,
                       ConvexResult &Result) {
  St = initState(Start, End);
  Shape CurShape = InputShape;
  // HybridZono's box term is part of its domain and is charged as a node
  // next to the center; the other kinds' slack only carries rounding
  // error and is not.
  const int64_t ExtraNodes = Kind == ZonotopeKind::HybridZono ? 2 : 1;
  auto Charge = [&]() {
    Result.MaxGenerators = std::max(Result.MaxGenerators, St.Gens.dim(0));
    const bool Ok =
        Memory.chargeState(St.Gens.dim(0) + ExtraNodes, CurShape.numel());
    Result.PeakBytes = Memory.peakBytes();
    return Ok;
  };
  if (!Charge())
    return false;
  for (const Layer *L : Layers) {
    if (L->isAffine()) {
      applyAffineToState(L, CurShape, Kind, St);
      CurShape = L->outputShape(CurShape);
    } else {
      applyReluToState(Kind, St);
    }
    if (!Charge())
      return false;
  }
  return true;
}

/// Spec tests on a final state: min/max of each halfspace functional over
/// the generators and the slack, with directed rounding when sound
/// rounding is on.
ProbBounds liftedBounds(const ZonoState &St, const OutputSpec &Spec) {
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
    // Directed enclosure [MidLo, MidHi] of the center functional, plus an
    // upper bound on the spread (the slack and per-row dot enclosures).
    double MidLo = H.Offset, MidHi = H.Offset;
    double SpreadUp = 0.0;
    for (int64_t J = 0; J < H.Normal.numel(); ++J) {
      MidLo = fp::addDown(MidLo, fp::mulDown(H.Normal[J], St.Center[J]));
      MidHi = fp::addUp(MidHi, fp::mulUp(H.Normal[J], St.Center[J]));
      SpreadUp = fp::addUp(SpreadUp,
                           fp::mulUp(std::fabs(H.Normal[J]), St.Slack[J]));
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

std::vector<ConvexResult>
analyzeZonotopeMulti(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, const std::vector<OutputSpec> &Specs,
                     ZonotopeKind Kind, DeviceMemoryModel &Memory) {
  ConvexResult Result;
  ZonoState St;
  if (!propagateZonotope(Layers, InputShape, Start, End, Kind, Memory, St,
                         Result)) {
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

ZonotopeOutputBounds
zonotopeOutputBounds(const std::vector<const Layer *> &Layers,
                     const Shape &InputShape, const Tensor &Start,
                     const Tensor &End, ZonotopeKind Kind,
                     DeviceMemoryModel &Memory) {
  ZonotopeOutputBounds Out;
  ConvexResult Result;
  ZonoState St;
  if (!propagateZonotope(Layers, InputShape, Start, End, Kind, Memory, St,
                         Result)) {
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
