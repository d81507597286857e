//===- interval/interval.h - Scalar interval arithmetic --------*- C++ -*-===//
///
/// \file
/// Closed real intervals with the operations the Box domain needs. Most of
/// the heavy lifting uses the (center, radius) tensor form directly; this
/// scalar type backs the unit tests and the bound computations on output
/// specifications.
///
/// When soundRoundingEnabled() is set, every arithmetic operation rounds
/// the lower endpoint down and the upper endpoint up (see src/util/fp.h),
/// so the result interval always contains the exact real-arithmetic image.
/// With the toggle off the historical round-to-nearest code runs
/// unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_INTERVAL_INTERVAL_H
#define GENPROVE_INTERVAL_INTERVAL_H

#include "src/util/fp.h"

#include <algorithm>

namespace genprove {

/// A closed interval [Lo, Hi].
struct Interval {
  double Lo = 0.0;
  double Hi = 0.0;

  Interval() = default;
  Interval(double Lo, double Hi) : Lo(Lo), Hi(Hi) {}

  static Interval point(double V) { return {V, V}; }

  double width() const { return Hi - Lo; }
  double center() const { return 0.5 * (Lo + Hi); }
  double radius() const { return 0.5 * (Hi - Lo); }
  bool contains(double V) const { return Lo <= V && V <= Hi; }
  bool contains(const Interval &Other) const {
    return Lo <= Other.Lo && Other.Hi <= Hi;
  }

  /// Center/radius pair with [C - R, C + R] guaranteed to contain
  /// [Lo, Hi] regardless of how C rounds: the radius is the directed-up
  /// distance from C to the farther endpoint.
  void toCenterRadius(double &C, double &R) const {
    C = 0.5 * (Lo + Hi);
    if (soundRoundingEnabled())
      R = std::max(fp::subUp(C, Lo), fp::subUp(Hi, C));
    else
      R = 0.5 * (Hi - Lo);
  }

  Interval operator+(const Interval &O) const {
    if (soundRoundingEnabled())
      return {fp::addDown(Lo, O.Lo), fp::addUp(Hi, O.Hi)};
    return {Lo + O.Lo, Hi + O.Hi};
  }
  Interval operator-(const Interval &O) const {
    if (soundRoundingEnabled())
      return {fp::subDown(Lo, O.Hi), fp::subUp(Hi, O.Lo)};
    return {Lo - O.Hi, Hi - O.Lo};
  }
  Interval operator*(double S) const {
    if (soundRoundingEnabled())
      return S >= 0
                 ? Interval{fp::mulDown(Lo, S), fp::mulUp(Hi, S)}
                 : Interval{fp::mulDown(Hi, S), fp::mulUp(Lo, S)};
    return S >= 0 ? Interval{Lo * S, Hi * S} : Interval{Hi * S, Lo * S};
  }
  Interval operator*(const Interval &O) const;

  /// max(0, x) applied to the whole interval (exact in either mode).
  Interval relu() const { return {std::max(Lo, 0.0), std::max(Hi, 0.0)}; }

  /// Smallest interval containing both (exact in either mode).
  Interval hull(const Interval &O) const {
    return {std::min(Lo, O.Lo), std::max(Hi, O.Hi)};
  }
};

} // namespace genprove

#endif // GENPROVE_INTERVAL_INTERVAL_H
