//===- util/fp.h - Directed floating-point rounding ------------*- C++ -*-===//
///
/// \file
/// Outward-rounded arithmetic for sound bound computations. The verifier's
/// guarantees only hold if every lower bound is rounded toward -inf and
/// every upper bound (and probability mass) toward +inf; plain
/// round-to-nearest can under-approximate by ULPs that compound across a
/// deep decoder+classifier pipeline.
///
/// Rather than flipping the FPU rounding mode (thread-unsafe with the
/// shared pool, and silently undone by vectorized code), every operation
/// here computes the round-to-nearest result and nudges it one ULP outward
/// with std::nextafter. Since round-to-nearest is within half an ULP of
/// the exact value, nextafter(RN(a op b), +-inf) always brackets the real
/// result: up(x) >= exact and down(x) <= exact, unconditionally.
///
/// The helpers are unconditional; call sites branch on
/// soundRoundingEnabled() and keep the original round-to-nearest code when
/// the toggle is off, preserving the bit-identity guarantees of the
/// deterministic kernels.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_UTIL_FP_H
#define GENPROVE_UTIL_FP_H

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace genprove {

/// Global toggle for sound outward rounding. Off by default: the default
/// pipeline keeps the historical round-to-nearest semantics (and the PR 4
/// bit-identity contract). Reads are relaxed-atomic in fp.cpp; flip it at
/// configuration time, not mid-propagation.
bool soundRoundingEnabled();
void setSoundRounding(bool On);

/// RAII toggle for tests and the audit harness.
class SoundRoundingScope {
public:
  explicit SoundRoundingScope(bool On) : Previous(soundRoundingEnabled()) {
    setSoundRounding(On);
  }
  ~SoundRoundingScope() { setSoundRounding(Previous); }
  SoundRoundingScope(const SoundRoundingScope &) = delete;
  SoundRoundingScope &operator=(const SoundRoundingScope &) = delete;

private:
  const bool Previous;
};

namespace fp {

/// One ULP toward +inf. NaN propagates; +inf stays +inf.
inline double up(double X) {
  return std::nextafter(X, std::numeric_limits<double>::infinity());
}

/// One ULP toward -inf.
inline double down(double X) {
  return std::nextafter(X, -std::numeric_limits<double>::infinity());
}

inline double addUp(double A, double B) { return up(A + B); }
inline double addDown(double A, double B) { return down(A + B); }
inline double subUp(double A, double B) { return up(A - B); }
inline double subDown(double A, double B) { return down(A - B); }
inline double mulUp(double A, double B) { return up(A * B); }
inline double mulDown(double A, double B) { return down(A * B); }
inline double divUp(double A, double B) { return up(A / B); }
inline double divDown(double A, double B) { return down(A / B); }

/// Upper bound on the relative error of a K-term round-to-nearest
/// accumulation (dot product, convolution window, bias add), valid for any
/// summation order (the tiled/AVX kernels reassociate). The textbook bound
/// is gamma_K = K*u/(1 - K*u) with u = DBL_EPSILON/2; this returns a
/// several-fold cushion so it also covers the round-to-nearest evaluation
/// of the magnitude term it multiplies and the concrete forward pass the
/// audit compares against.
inline double accumulationBound(int64_t Terms) {
  return 4.0 * static_cast<double>(Terms + 4) * DBL_EPSILON;
}

/// Neumaier-compensated sum rounded toward +inf. The compensated sum
/// s + c equals the exact sum up to the (directed-rounded) accumulation of
/// the compensation term itself, so the result is a true upper bound while
/// staying exact to ~1 ULP for thousands of tiny masses.
double sumUp(const double *Values, int64_t Count);
/// Neumaier-compensated sum rounded toward -inf.
double sumDown(const double *Values, int64_t Count);

inline double sumUp(const std::vector<double> &Values) {
  return sumUp(Values.data(), static_cast<int64_t>(Values.size()));
}
inline double sumDown(const std::vector<double> &Values) {
  return sumDown(Values.data(), static_cast<int64_t>(Values.size()));
}

} // namespace fp

} // namespace genprove

#endif // GENPROVE_UTIL_FP_H
