//===- domains/region.cpp -------------------------------------*- C++ -*-===//

#include "src/domains/region.h"

#include "src/util/error.h"
#include "src/util/fp.h"

#include <algorithm>
#include <cmath>

namespace genprove {

Region makeSegmentRegion(const Tensor &Start, const Tensor &End, double Weight,
                         double T0, double T1) {
  check(Start.numel() == End.numel(), "segment endpoint dim mismatch");
  check(T1 > T0, "segment parameter interval must be non-degenerate");
  const int64_t N = Start.numel();
  Region R;
  R.Kind = RegionKind::Curve;
  R.Weight = Weight;
  R.T0 = T0;
  R.T1 = T1;
  // Endpoints parameterized over the global interval:
  // gamma(t) = Start + (End - Start) * (t - T0) / (T1 - T0).
  R.Coeffs = Tensor({2, N});
  const double Inv = 1.0 / (T1 - T0);
  for (int64_t J = 0; J < N; ++J) {
    const double Slope = (End[J] - Start[J]) * Inv;
    R.Coeffs.at(1, J) = Slope;
    R.Coeffs.at(0, J) = Start[J] - Slope * T0;
  }
  return R;
}

Region makeQuadraticRegion(const Tensor &A0, const Tensor &A1,
                           const Tensor &A2, double Weight, double T0,
                           double T1) {
  check(A0.numel() == A1.numel() && A1.numel() == A2.numel(),
        "quadratic coefficient dim mismatch");
  const int64_t N = A0.numel();
  Region R;
  R.Kind = RegionKind::Curve;
  R.Weight = Weight;
  R.T0 = T0;
  R.T1 = T1;
  R.Coeffs = Tensor({3, N});
  for (int64_t J = 0; J < N; ++J) {
    R.Coeffs.at(0, J) = A0[J];
    R.Coeffs.at(1, J) = A1[J];
    R.Coeffs.at(2, J) = A2[J];
  }
  return R;
}

Region makeBoxRegion(const Tensor &Center, const Tensor &Radius,
                     double Weight) {
  check(Center.numel() == Radius.numel(), "box center/radius dim mismatch");
  Region R;
  R.Kind = RegionKind::Box;
  R.Weight = Weight;
  R.Center = Center.reshaped({1, Center.numel()});
  R.Radius = Radius.reshaped({1, Radius.numel()});
  return R;
}

Tensor evalCurve(const Region &Curve, double T) {
  check(Curve.Kind == RegionKind::Curve, "evalCurve on a box");
  const int64_t D = Curve.Coeffs.dim(0);
  const int64_t N = Curve.Coeffs.dim(1);
  Tensor Out({1, N});
  double *__restrict__ P = Out.data();
  double Tp = 1.0;
  for (int64_t I = 0; I < D; ++I) {
    const double *__restrict__ Row = Curve.Coeffs.data() + I * N;
    for (int64_t J = 0; J < N; ++J)
      P[J] += Row[J] * Tp;
    Tp *= T;
  }
  return Out;
}

double evalCurveComponent(const Region &Curve, double T, int64_t J) {
  const int64_t D = Curve.Coeffs.dim(0);
  double Value = 0.0;
  double Tp = 1.0;
  for (int64_t I = 0; I < D; ++I) {
    Value += Curve.Coeffs.at(I, J) * Tp;
    Tp *= T;
  }
  return Value;
}

Interval curveComponentRange(const Region &Curve, int64_t J) {
  const double V0 = evalCurveComponent(Curve, Curve.T0, J);
  const double V1 = evalCurveComponent(Curve, Curve.T1, J);
  Interval Range{std::min(V0, V1), std::max(V0, V1)};
  if (Curve.degree() >= 2) {
    const double A2 = Curve.Coeffs.at(2, J);
    const double A1 = Curve.Coeffs.at(1, J);
    if (A2 != 0.0) {
      const double Vertex = -A1 / (2.0 * A2);
      if (Vertex > Curve.T0 && Vertex < Curve.T1) {
        const double Vv = evalCurveComponent(Curve, Vertex, J);
        Range.Lo = std::min(Range.Lo, Vv);
        Range.Hi = std::max(Range.Hi, Vv);
      }
    }
  }
  if (soundRoundingEnabled()) {
    // Inflate by a bound on the round-to-nearest evaluation error of the
    // degree <= 2 polynomial at the endpoints and the vertex: a handful
    // of operations on terms no larger than sum_d |a_d| * M^d with
    // M = max(1, |T0|, |T1|).
    const double M =
        std::max({1.0, std::fabs(Curve.T0), std::fabs(Curve.T1)});
    double Mag = 0.0;
    double Mp = 1.0;
    for (int64_t D = 0; D <= Curve.degree(); ++D) {
      Mag = fp::addUp(Mag, fp::mulUp(std::fabs(Curve.Coeffs.at(D, J)), Mp));
      Mp = fp::mulUp(Mp, M);
    }
    const double E = fp::mulUp(8.0 * DBL_EPSILON, Mag);
    Range.Lo = fp::subDown(Range.Lo, E);
    Range.Hi = fp::addUp(Range.Hi, E);
  }
  return Range;
}

Region boundingBox(const Region &R) {
  if (R.Kind == RegionKind::Box)
    return R;
  const int64_t N = R.dim();
  Tensor Center({1, N}), Radius({1, N});
  for (int64_t J = 0; J < N; ++J) {
    const Interval Range = curveComponentRange(R, J);
    Range.toCenterRadius(Center[J], Radius[J]);
  }
  return makeBoxRegion(Center, Radius, R.Weight);
}

Region mergeBoxes(const Region &A, const Region &B) {
  check(A.Kind == RegionKind::Box && B.Kind == RegionKind::Box,
        "mergeBoxes requires boxes");
  const int64_t N = A.dim();
  check(B.dim() == N, "mergeBoxes dim mismatch");
  Tensor Center({1, N}), Radius({1, N});
  const bool Sound = soundRoundingEnabled();
  for (int64_t J = 0; J < N; ++J) {
    if (Sound) {
      const Interval Hull{std::min(fp::subDown(A.Center[J], A.Radius[J]),
                                   fp::subDown(B.Center[J], B.Radius[J])),
                          std::max(fp::addUp(A.Center[J], A.Radius[J]),
                                   fp::addUp(B.Center[J], B.Radius[J]))};
      Hull.toCenterRadius(Center[J], Radius[J]);
    } else {
      const double Lo = std::min(A.Center[J] - A.Radius[J],
                                 B.Center[J] - B.Radius[J]);
      const double Hi = std::max(A.Center[J] + A.Radius[J],
                                 B.Center[J] + B.Radius[J]);
      Center[J] = 0.5 * (Lo + Hi);
      Radius[J] = 0.5 * (Hi - Lo);
    }
  }
  const double Weight = Sound ? fp::addUp(A.Weight, B.Weight)
                              : A.Weight + B.Weight;
  return makeBoxRegion(Center, Radius, Weight);
}

double curveChordLength(const Region &Curve) {
  const Tensor P0 = evalCurve(Curve, Curve.T0);
  const Tensor P1 = evalCurve(Curve, Curve.T1);
  double Acc = 0.0;
  for (int64_t J = 0; J < P0.numel(); ++J) {
    const double D = P1[J] - P0[J];
    Acc += D * D;
  }
  return std::sqrt(Acc);
}

void curveComponentRoots(const Region &Curve, int64_t J,
                         std::vector<double> &Out) {
  const double A0 = Curve.Coeffs.at(0, J);
  const double A1 = Curve.degree() >= 1 ? Curve.Coeffs.at(1, J) : 0.0;
  const double A2 = Curve.degree() >= 2 ? Curve.Coeffs.at(2, J) : 0.0;
  polyRoots(A0, A1, A2, Curve.T0, Curve.T1, Out);
}

void curveFunctionalRoots(const Region &Curve, const Tensor &G, double C,
                          std::vector<double> &Out) {
  check(G.numel() == Curve.dim(), "functional dim mismatch");
  double A0 = C, A1 = 0.0, A2 = 0.0;
  for (int64_t J = 0; J < G.numel(); ++J) {
    A0 += G[J] * Curve.Coeffs.at(0, J);
    if (Curve.degree() >= 1)
      A1 += G[J] * Curve.Coeffs.at(1, J);
    if (Curve.degree() >= 2)
      A2 += G[J] * Curve.Coeffs.at(2, J);
  }
  polyRoots(A0, A1, A2, Curve.T0, Curve.T1, Out);
}

} // namespace genprove
