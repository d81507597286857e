//===- core/spec.h - Output specifications and bounds ----------*- C++ -*-===//
///
/// \file
/// OutputSpec is the set D of desirable outputs, expressed as a conjunction
/// of open halfspaces g . y + c > 0 — enough for every specification in
/// the paper: "class t wins the argmax" (n-1 pairwise constraints),
/// "attribute i has sign s" (one constraint), and "the discriminator says
/// real" (one constraint).
///
/// computeProbBounds turns the final abstract state (weighted curve pieces
/// and boxes) into the paper's probabilistic bounds [l, u] on
/// Pr[y in D] (Section 4.1, "Computing bounds"):
///
///   l = e + sum of weights of boxes contained in D,
///   u = e + sum of weights of boxes intersecting D,
///
/// where e is the exactly-computed mass of curve pieces inside D (pieces
/// are split at the constraint boundaries, which is exact because each
/// g . gamma(t) + c is a polynomial of degree <= 2 in t).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_CORE_SPEC_H
#define GENPROVE_CORE_SPEC_H

#include "src/domains/region.h"

#include <functional>
#include <string>
#include <vector>

namespace genprove {

/// Conjunction of open halfspaces g . y + c > 0 over flat outputs.
class OutputSpec {
public:
  /// One halfspace: Normal . y + Offset > 0.
  struct Halfspace {
    Tensor Normal; ///< [1, N]
    double Offset = 0.0;
  };

  /// D = { y : argmax_i y_i = Target } (pairwise margins).
  static OutputSpec argmaxWins(int64_t Target, int64_t NumClasses);

  /// D = { y : y_Attr > 0 } or { y : y_Attr < 0 }.
  static OutputSpec attributeSign(int64_t Attr, bool Positive,
                                  int64_t NumOutputs);

  /// D = { y : Normal . y + Offset > 0 } for a custom functional.
  static OutputSpec halfspace(Tensor Normal, double Offset);

  /// Add one more conjunct.
  void addHalfspace(Tensor Normal, double Offset);

  const std::vector<Halfspace> &halfspaces() const { return Constraints; }
  int64_t dim() const {
    return Constraints.empty() ? 0 : Constraints.front().Normal.numel();
  }

  /// Concrete membership test for a flat output vector.
  bool satisfied(const Tensor &Y) const;

  /// Does the box (Center, Radius) lie entirely inside D?
  bool boxContained(const Tensor &Center, const Tensor &Radius) const;

  /// Could the box intersect D? (Exact for argmax/sign specs; an
  /// overapproximation — hence sound for upper bounds — in general.)
  bool boxIntersects(const Tensor &Center, const Tensor &Radius) const;

private:
  std::vector<Halfspace> Constraints;
};

/// A probabilistic bound [Lower, Upper] plus analysis status.
struct ProbBounds {
  double Lower = 0.0;
  double Upper = 1.0;
  bool OutOfMemory = false;
  /// The interval is sound but was widened by the resilience layer
  /// (checkpointed boxing, interval fallback, deadline expiry or
  /// quarantined mass); see docs/ROBUSTNESS.md.
  bool Degraded = false;

  double width() const { return Upper - Lower; }

  /// Collapse to the deterministic three-way output {[0,0],[1,1],[0,1]}
  /// (what BASELINE and GenProve-Det report in Table 1).
  ProbBounds deterministic() const {
    if (OutOfMemory)
      return {0.0, 1.0, true, Degraded};
    if (Lower >= 1.0)
      return {1.0, 1.0, false, Degraded};
    if (Upper <= 0.0)
      return {0.0, 0.0, false, Degraded};
    return {0.0, 1.0, false, Degraded};
  }

  /// "Non-trivial" in the sense of Table 1: strictly tighter than [0, 1].
  bool nonTrivial() const { return Lower > 0.0 || Upper < 1.0; }
};

/// The verdict the tools print for \p B: "HOLDS", "NEVER HOLDS" or
/// "UNKNOWN" for a deterministic analysis (whose bounds are already
/// collapsed), else "holds with probability in [l, u]" to six places. A
/// degraded bound reads "<verdict> (DEGRADED)" or "DEGRADED; holds ...".
std::string verdictText(const ProbBounds &B, bool Deterministic);

/// The Section 4.1 bound computation over a final abstract state. \p Cdf
/// is the input-parameter CDF (empty = uniform), used to split curve mass
/// exactly at the constraint boundaries.
ProbBounds computeProbBounds(const std::vector<Region> &Regions,
                             const OutputSpec &Spec,
                             const std::function<double(double)> &Cdf = {});

/// The mass e of one curve piece that lies inside D (exact); exposed for
/// tests. Proportional to the piece's weight.
double curveMassInside(const Region &Curve, const OutputSpec &Spec,
                       const std::function<double(double)> &Cdf = {});

/// Directed enclosure [MassLo, MassHi] of the curve mass inside D, used in
/// place of curveMassInside when SoundRounding is enabled: pieces are
/// shrunk by a few ULPs before pointwise sign certification, CDF values
/// are padded outward, and ratios are rounded directionally (see
/// docs/SOUNDNESS.md).
void curveMassInsideBounds(const Region &Curve, const OutputSpec &Spec,
                           const std::function<double(double)> &Cdf,
                           double &MassLo, double &MassHi);

/// Parse the textual spec grammar shared by genprove_cli, genprove_serve
/// and genprove_loadgen:
///
///   argmax:T:N            class T wins the argmax over N classes
///   sign:I:+|-:N          attribute I has the given sign (N outputs)
///   halfspace:C:g0,g1,... custom functional g . y + C > 0
///
/// Returns false (with a human-readable message in \p Err when non-null)
/// on any malformed input — never exits, so a hostile network request
/// cannot take the daemon down through its spec string.
bool parseOutputSpecText(const std::string &Text, OutputSpec &Out,
                         std::string *Err = nullptr);

} // namespace genprove

#endif // GENPROVE_CORE_SPEC_H
