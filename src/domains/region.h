//===- domains/region.h - GenProve's non-convex regions --------*- C++ -*-===//
///
/// \file
/// The abstract elements of the GenProve union / convex-combination domain
/// (Sections 3.1 and 4.1): weighted poly-curves and weighted boxes.
///
/// A curve region represents gamma(t) = sum_i Coeffs[i] * t^i for t in the
/// *global* input-parameter interval [T0, T1] (a sub-interval of the
/// original specification's [0, 1]). Degree 1 curves are the paper's line
/// segments; degree 2 curves are GenProveCurve's quadratics. Every affine
/// layer maps coefficients exactly, and every ReLU piece acts as a diagonal
/// linear mask, so curve pieces stay polynomial of the same degree all the
/// way through the network — this is what makes the analysis exact when no
/// relaxation is applied.
///
/// A box region is an axis-aligned box in (Center, Radius) form. Boxes are
/// created by the relaxation operators and propagated with interval
/// arithmetic.
///
/// Weights: a curve's probability mass is determined by the input CDF,
/// Weight = F(T1) - F(T0), which makes splitting exact even for non-uniform
/// input distributions (the arcsine specification of Table 7). A box
/// freezes the total mass of the regions it replaced.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_REGION_H
#define GENPROVE_DOMAINS_REGION_H

#include "src/interval/interval.h"
#include "src/tensor/tensor.h"

#include <cmath>
#include <vector>

namespace genprove {

/// Which shape a Region holds.
enum class RegionKind : uint8_t { Curve, Box };

/// One abstract element: a weighted curve piece or a weighted box. The
/// activation vectors are stored flat; the propagation engine reshapes to
/// the layer's expected activation shape as needed.
struct Region {
  RegionKind Kind = RegionKind::Curve;
  double Weight = 0.0;

  // --- Curve fields ---
  /// [Degree+1, N] coefficient matrix in the global parameter.
  Tensor Coeffs;
  double T0 = 0.0;
  double T1 = 1.0;

  // --- Box fields ---
  Tensor Center; ///< [1, N]
  Tensor Radius; ///< [1, N]

  /// Number of representation points ("nodes"): Degree+1 for curves, 2 for
  /// boxes. The memory model charges N doubles per node.
  int64_t nodes() const {
    return Kind == RegionKind::Curve ? Coeffs.dim(0) : 2;
  }

  /// Flat activation dimensionality.
  int64_t dim() const {
    return Kind == RegionKind::Curve ? Coeffs.dim(1) : Center.dim(1);
  }

  int64_t degree() const { return Coeffs.dim(0) - 1; }
};

/// Build a degree-1 curve region (a line segment) from flat endpoints
/// [1, N] with the given global parameter interval and weight.
Region makeSegmentRegion(const Tensor &Start, const Tensor &End,
                         double Weight = 1.0, double T0 = 0.0,
                         double T1 = 1.0);

/// Build a quadratic curve region gamma(t) = A0 + A1 t + A2 t^2 from flat
/// coefficient rows [1, N].
Region makeQuadraticRegion(const Tensor &A0, const Tensor &A1,
                           const Tensor &A2, double Weight = 1.0,
                           double T0 = 0.0, double T1 = 1.0);

/// Build a box region from flat center/radius [1, N].
Region makeBoxRegion(const Tensor &Center, const Tensor &Radius,
                     double Weight);

/// Evaluate a curve region at global parameter T; returns a flat [1, N]
/// activation vector.
Tensor evalCurve(const Region &Curve, double T);

/// Component value gamma(t)_j of a curve region.
double evalCurveComponent(const Region &Curve, double T, int64_t J);

/// Per-component range of a curve over its own [T0, T1] (endpoints plus
/// the interior vertex for quadratics). Exact for degree <= 2.
Interval curveComponentRange(const Region &Curve, int64_t J);

/// Tight bounding box of any region, as a new Box region carrying the same
/// weight. (The paper's "bounding box" relaxation operator.)
Region boundingBox(const Region &R);

/// Smallest box covering both boxes; weights are added. (The paper's
/// "merge" relaxation operator.)
Region mergeBoxes(const Region &A, const Region &B);

/// Euclidean distance between the curve's endpoints; the "segment length"
/// used by the relaxation heuristic's percentile test.
double curveChordLength(const Region &Curve);

/// Append the finite roots of A2 t^2 + A1 t + A0 = 0 strictly inside
/// (Lo, Hi): a linear root when A2 == 0, else the numerically stable pair
/// A0/Q, Q/A2, in that order. Inline so the ReLU split can run it over a
/// coefficient row.
inline void polyRoots(double A0, double A1, double A2, double Lo, double Hi,
                      std::vector<double> &Out) {
  const auto PushIfInside = [&](double X) {
    if (X > Lo && X < Hi && std::isfinite(X))
      Out.push_back(X);
  };
  if (A2 == 0.0) {
    if (A1 != 0.0)
      PushIfInside(-A0 / A1);
    return;
  }
  const double Disc = A1 * A1 - 4.0 * A2 * A0;
  if (Disc < 0.0)
    return;
  const double SqrtDisc = std::sqrt(Disc);
  const double Q = -0.5 * (A1 + (A1 >= 0.0 ? SqrtDisc : -SqrtDisc));
  if (Q != 0.0)
    PushIfInside(A0 / Q);
  PushIfInside(Q / A2);
}

/// Roots of gamma(t)_j = 0 strictly inside (T0, T1), in polyRoots' order.
/// Handles degree 1 and 2 (with degenerate cases).
void curveComponentRoots(const Region &Curve, int64_t J,
                         std::vector<double> &Out);

/// Roots of a general linear functional g . gamma(t) + c = 0 strictly
/// inside (T0, T1); g is a flat [1, N] tensor.
void curveFunctionalRoots(const Region &Curve, const Tensor &G, double C,
                          std::vector<double> &Out);

} // namespace genprove

#endif // GENPROVE_DOMAINS_REGION_H
