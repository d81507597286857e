//===- core/spec.cpp ------------------------------------------*- C++ -*-===//

#include "src/core/spec.h"

#include "src/util/error.h"
#include "src/util/fp.h"
#include "src/util/parse.h"

#include <algorithm>
#include <cmath>

namespace genprove {

OutputSpec OutputSpec::argmaxWins(int64_t Target, int64_t NumClasses) {
  OutputSpec Spec;
  for (int64_t J = 0; J < NumClasses; ++J) {
    if (J == Target)
      continue;
    Tensor Normal({1, NumClasses});
    Normal[Target] = 1.0;
    Normal[J] = -1.0;
    Spec.addHalfspace(std::move(Normal), 0.0);
  }
  return Spec;
}

OutputSpec OutputSpec::attributeSign(int64_t Attr, bool Positive,
                                     int64_t NumOutputs) {
  Tensor Normal({1, NumOutputs});
  Normal[Attr] = Positive ? 1.0 : -1.0;
  return halfspace(std::move(Normal), 0.0);
}

OutputSpec OutputSpec::halfspace(Tensor Normal, double Offset) {
  OutputSpec Spec;
  Spec.addHalfspace(std::move(Normal), Offset);
  return Spec;
}

void OutputSpec::addHalfspace(Tensor Normal, double Offset) {
  check(Constraints.empty() ||
            Constraints.front().Normal.numel() == Normal.numel(),
        "halfspace dimension mismatch");
  Constraints.push_back({Normal.reshaped({1, Normal.numel()}), Offset});
}

bool OutputSpec::satisfied(const Tensor &Y) const {
  for (const auto &H : Constraints) {
    double Value = H.Offset;
    for (int64_t J = 0; J < H.Normal.numel(); ++J)
      Value += H.Normal[J] * Y[J];
    if (Value <= 0.0)
      return false;
  }
  return true;
}

bool OutputSpec::boxContained(const Tensor &Center,
                              const Tensor &Radius) const {
  const bool Sound = soundRoundingEnabled();
  for (const auto &H : Constraints) {
    double Min = H.Offset;
    for (int64_t J = 0; J < H.Normal.numel(); ++J) {
      if (Sound)
        Min = fp::addDown(
            Min, fp::subDown(fp::mulDown(H.Normal[J], Center[J]),
                             fp::mulUp(std::fabs(H.Normal[J]), Radius[J])));
      else
        Min += H.Normal[J] * Center[J] - std::fabs(H.Normal[J]) * Radius[J];
    }
    if (Min <= 0.0)
      return false;
  }
  return true;
}

bool OutputSpec::boxIntersects(const Tensor &Center,
                               const Tensor &Radius) const {
  const bool Sound = soundRoundingEnabled();
  for (const auto &H : Constraints) {
    double Max = H.Offset;
    for (int64_t J = 0; J < H.Normal.numel(); ++J) {
      if (Sound)
        Max = fp::addUp(
            Max, fp::addUp(fp::mulUp(H.Normal[J], Center[J]),
                           fp::mulUp(std::fabs(H.Normal[J]), Radius[J])));
      else
        Max += H.Normal[J] * Center[J] + std::fabs(H.Normal[J]) * Radius[J];
    }
    if (Max <= 0.0)
      return false;
  }
  return true;
}

namespace {

/// Directed enclosure [Lo, Hi] of H(t) = Offset + N . gamma(t) at one
/// parameter value, covering the round-to-nearest evaluation error of the
/// degree <= 2 curve components and the dot product.
void halfspaceEnclosure(const Region &Curve, const OutputSpec::Halfspace &H,
                        double T, double &Lo, double &Hi) {
  const double M =
      std::max({1.0, std::fabs(Curve.T0), std::fabs(Curve.T1)});
  double Value = H.Offset;
  double Mag = std::fabs(H.Offset);
  for (int64_t J = 0; J < H.Normal.numel(); ++J) {
    if (H.Normal[J] == 0.0)
      continue;
    Value += H.Normal[J] * evalCurveComponent(Curve, T, J);
    double CompMag = 0.0;
    double Mp = 1.0;
    for (int64_t D = 0; D <= Curve.degree(); ++D) {
      CompMag =
          fp::addUp(CompMag, fp::mulUp(std::fabs(Curve.Coeffs.at(D, J)), Mp));
      Mp = fp::mulUp(Mp, M);
    }
    Mag = fp::addUp(Mag, fp::mulUp(std::fabs(H.Normal[J]), CompMag));
  }
  const double E = fp::mulUp(
      fp::accumulationBound(4 * (H.Normal.numel() + Curve.degree() + 1)),
      Mag);
  Lo = fp::subDown(Value, E);
  Hi = fp::addUp(Value, E);
}

/// All halfspaces provably strictly positive at T.
bool provablyInside(const Region &Curve, const OutputSpec &Spec, double T) {
  for (const auto &H : Spec.halfspaces()) {
    double Lo, Hi;
    halfspaceEnclosure(Curve, H, T, Lo, Hi);
    if (Lo <= 0.0)
      return false;
  }
  return true;
}

/// Some halfspace provably non-positive at T.
bool provablyOutside(const Region &Curve, const OutputSpec &Spec, double T) {
  for (const auto &H : Spec.halfspaces()) {
    double Lo, Hi;
    halfspaceEnclosure(Curve, H, T, Lo, Hi);
    if (Hi <= 0.0)
      return true;
  }
  return false;
}

} // namespace

void curveMassInsideBounds(const Region &Curve, const OutputSpec &Spec,
                           const std::function<double(double)> &Cdf,
                           double &MassLo, double &MassHi) {
  check(Curve.Kind == RegionKind::Curve, "curveMassInsideBounds on a box");
  // Absolute padding on every CDF evaluation (asin/sqrt based CDFs are
  // accurate to a few ULPs but not directed); the uniform CDF is the
  // identity and needs none.
  const double CdfPad = Cdf ? 4.0 * DBL_EPSILON : 0.0;
  auto Eval = [&](double T) { return Cdf ? Cdf(T) : T; };
  auto EvalLo = [&](double T) { return fp::subDown(Eval(T), CdfPad); };
  auto EvalHi = [&](double T) { return fp::addUp(Eval(T), CdfPad); };

  MassLo = 0.0;
  MassHi = 0.0;
  const double TotalLo =
      std::max(0.0, fp::subDown(EvalLo(Curve.T1), EvalHi(Curve.T0)));
  const double TotalHi =
      std::max(0.0, fp::subUp(EvalHi(Curve.T1), EvalLo(Curve.T0)));
  if (TotalHi <= 0.0)
    return;

  std::vector<double> Cuts{Curve.T0, Curve.T1};
  for (const auto &H : Spec.halfspaces())
    curveFunctionalRoots(Curve, H.Normal, H.Offset, Cuts);
  std::sort(Cuts.begin(), Cuts.end());

  // Shrink each piece by Delta before classifying: the computed cuts sit
  // within a few ULPs of the exact sign-change points, so the shrunk piece
  // lies strictly inside the exact sign-constant span whose membership we
  // certify pointwise below.
  const double Delta = fp::mulUp(
      32.0 * DBL_EPSILON,
      std::max({1.0, std::fabs(Curve.T0), std::fabs(Curve.T1)}));

  double InsideLo = 0.0;
  double OutsideLo = 0.0;
  for (size_t I = 0; I + 1 < Cuts.size(); ++I) {
    const double S0 = fp::addUp(Cuts[I], Delta);
    const double S1 = fp::subDown(Cuts[I + 1], Delta);
    if (S1 <= S0)
      continue;
    const double Mid = 0.5 * (S0 + S1);
    const double PieceLo =
        std::max(0.0, fp::subDown(EvalLo(S1), EvalHi(S0)));
    if (provablyInside(Curve, Spec, S0) &&
        provablyInside(Curve, Spec, Mid) &&
        provablyInside(Curve, Spec, S1))
      InsideLo = fp::addDown(InsideLo, PieceLo);
    else if (provablyOutside(Curve, Spec, S0) &&
             provablyOutside(Curve, Spec, Mid) &&
             provablyOutside(Curve, Spec, S1))
      OutsideLo = fp::addDown(OutsideLo, PieceLo);
  }
  const double InsideHi = std::max(0.0, fp::subUp(TotalHi, OutsideLo));

  const double RatioLo =
      std::clamp(fp::divDown(InsideLo, TotalHi), 0.0, 1.0);
  const double RatioHi =
      TotalLo > 0.0 ? std::clamp(fp::divUp(InsideHi, TotalLo), 0.0, 1.0)
                    : 1.0;
  MassLo = fp::mulDown(Curve.Weight, RatioLo);
  MassHi = fp::mulUp(Curve.Weight, RatioHi);
}

double curveMassInside(const Region &Curve, const OutputSpec &Spec,
                       const std::function<double(double)> &Cdf) {
  check(Curve.Kind == RegionKind::Curve, "curveMassInside on a box");
  auto Eval = [&](double T) { return Cdf ? Cdf(T) : T; };
  const double TotalMass = Eval(Curve.T1) - Eval(Curve.T0);
  if (TotalMass <= 0.0)
    return 0.0;

  // Split at every constraint boundary; between cuts, satisfaction of each
  // halfspace is constant (degree <= 2 polynomials change sign only at
  // their roots).
  std::vector<double> Cuts{Curve.T0, Curve.T1};
  for (const auto &H : Spec.halfspaces())
    curveFunctionalRoots(Curve, H.Normal, H.Offset, Cuts);
  std::sort(Cuts.begin(), Cuts.end());

  double Inside = 0.0;
  for (size_t I = 0; I + 1 < Cuts.size(); ++I) {
    const double T0 = Cuts[I], T1 = Cuts[I + 1];
    if (T1 <= T0)
      continue;
    const Tensor Mid = evalCurve(Curve, 0.5 * (T0 + T1));
    if (Spec.satisfied(Mid))
      Inside += Eval(T1) - Eval(T0);
  }
  return Curve.Weight * Inside / TotalMass;
}

ProbBounds computeProbBounds(const std::vector<Region> &Regions,
                             const OutputSpec &Spec,
                             const std::function<double(double)> &Cdf) {
  ProbBounds Bounds;
  Bounds.Lower = 0.0;
  Bounds.Upper = 0.0;
  if (soundRoundingEnabled()) {
    // Directed per-region terms, aggregated with compensated directed
    // summation so the accumulation itself cannot flip an inequality.
    std::vector<double> LoTerms, HiTerms;
    LoTerms.reserve(Regions.size());
    HiTerms.reserve(Regions.size());
    for (const auto &R : Regions) {
      if (R.Kind == RegionKind::Curve) {
        double MassLo, MassHi;
        curveMassInsideBounds(R, Spec, Cdf, MassLo, MassHi);
        LoTerms.push_back(MassLo);
        HiTerms.push_back(MassHi);
      } else {
        if (Spec.boxContained(R.Center, R.Radius))
          LoTerms.push_back(R.Weight);
        if (Spec.boxIntersects(R.Center, R.Radius))
          HiTerms.push_back(R.Weight);
      }
    }
    Bounds.Lower = std::clamp(fp::sumDown(LoTerms), 0.0, 1.0);
    Bounds.Upper = std::clamp(fp::sumUp(HiTerms), 0.0, 1.0);
    return Bounds;
  }
  for (const auto &R : Regions) {
    if (R.Kind == RegionKind::Curve) {
      const double E = curveMassInside(R, Spec, Cdf);
      Bounds.Lower += E;
      Bounds.Upper += E;
    } else {
      if (Spec.boxContained(R.Center, R.Radius))
        Bounds.Lower += R.Weight;
      if (Spec.boxIntersects(R.Center, R.Radius))
        Bounds.Upper += R.Weight;
    }
  }
  Bounds.Lower = std::clamp(Bounds.Lower, 0.0, 1.0);
  Bounds.Upper = std::clamp(Bounds.Upper, 0.0, 1.0);
  return Bounds;
}

namespace {

bool specError(std::string *Err, const char *Message) {
  if (Err)
    *Err = Message;
  return false;
}

} // namespace

bool parseOutputSpecText(const std::string &Text, OutputSpec &Out,
                         std::string *Err) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (true) {
    const size_t Colon = Text.find(':', Pos);
    if (Colon == std::string::npos) {
      Parts.push_back(Text.substr(Pos));
      break;
    }
    Parts.push_back(Text.substr(Pos, Colon - Pos));
    Pos = Colon + 1;
  }
  const std::string &Kind = Parts[0];
  if (Kind == "argmax") {
    int64_t Target = 0, Classes = 0;
    if (Parts.size() != 3 || !parseNumber(Parts[1], Target) ||
        !parseNumber(Parts[2], Classes))
      return specError(Err, "argmax spec wants argmax:T:N");
    if (Classes < 2 || Target < 0 || Target >= Classes)
      return specError(Err, "argmax spec target out of range");
    Out = OutputSpec::argmaxWins(Target, Classes);
    return true;
  }
  if (Kind == "sign") {
    int64_t Attr = 0, Outputs = 0;
    if (Parts.size() != 4 || !parseNumber(Parts[1], Attr) ||
        (Parts[2] != "+" && Parts[2] != "-") ||
        !parseNumber(Parts[3], Outputs))
      return specError(Err, "sign spec wants sign:I:+|-:N");
    if (Outputs < 1 || Attr < 0 || Attr >= Outputs)
      return specError(Err, "sign spec attribute out of range");
    Out = OutputSpec::attributeSign(Attr, Parts[2] == "+", Outputs);
    return true;
  }
  if (Kind == "halfspace") {
    double Offset = 0.0;
    if (Parts.size() != 3 || !parseNumber(Parts[1], Offset))
      return specError(Err, "halfspace spec wants halfspace:C:g0,g1,...");
    std::vector<double> G;
    size_t P = 0;
    const std::string &Coeffs = Parts[2];
    while (true) {
      const size_t Comma = Coeffs.find(',', P);
      const std::string Token = Comma == std::string::npos
                                    ? Coeffs.substr(P)
                                    : Coeffs.substr(P, Comma - P);
      double V = 0.0;
      if (!parseNumber(Token, V))
        return specError(Err, "halfspace spec has a non-numeric coefficient");
      G.push_back(V);
      if (Comma == std::string::npos)
        break;
      P = Comma + 1;
    }
    // Read the size before the move: argument evaluation order is
    // unspecified, and GCC moves G out first.
    const int64_t Dim = static_cast<int64_t>(G.size());
    Tensor Normal({1, Dim}, std::move(G));
    Out = OutputSpec::halfspace(std::move(Normal), Offset);
    return true;
  }
  return specError(Err, "unknown spec kind (use argmax / sign / halfspace)");
}

} // namespace genprove
