//===- util/stats.cpp -----------------------------------------*- C++ -*-===//

#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace genprove {

double sum(const std::vector<double> &Values) {
  double Total = 0.0;
  for (double V : Values)
    Total += V;
  return Total;
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  return sum(Values) / static_cast<double>(Values.size());
}

double percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  Q = std::clamp(Q, 0.0, 1.0);
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = static_cast<size_t>(std::ceil(Pos));
  const double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] * (1.0 - Frac) + Values[Hi] * Frac;
}

namespace {

/// Log of the gamma function (Lanczos approximation).
double logGamma(double X) {
  static const double Coef[6] = {76.18009172947146,  -86.50532032941677,
                                 24.01409824083091,  -1.231739572450155,
                                 0.1208650973866179e-2, -0.5395239384953e-5};
  double Y = X;
  double Tmp = X + 5.5;
  Tmp -= (X + 0.5) * std::log(Tmp);
  double Ser = 1.000000000190015;
  for (double C : Coef)
    Ser += C / ++Y;
  return -Tmp + std::log(2.5066282746310005 * Ser / X);
}

/// Continued-fraction evaluation for the regularized incomplete beta.
double betaContinuedFraction(double A, double B, double X) {
  const int MaxIter = 300;
  const double Eps = 3e-14;
  const double FpMin = 1e-300;
  const double Qab = A + B;
  const double Qap = A + 1.0;
  const double Qam = A - 1.0;
  double C = 1.0;
  double D = 1.0 - Qab * X / Qap;
  if (std::fabs(D) < FpMin)
    D = FpMin;
  D = 1.0 / D;
  double H = D;
  for (int M = 1; M <= MaxIter; ++M) {
    const int M2 = 2 * M;
    double Aa = M * (B - M) * X / ((Qam + M2) * (A + M2));
    D = 1.0 + Aa * D;
    if (std::fabs(D) < FpMin)
      D = FpMin;
    C = 1.0 + Aa / C;
    if (std::fabs(C) < FpMin)
      C = FpMin;
    D = 1.0 / D;
    H *= D * C;
    Aa = -(A + M) * (Qab + M) * X / ((A + M2) * (Qap + M2));
    D = 1.0 + Aa * D;
    if (std::fabs(D) < FpMin)
      D = FpMin;
    C = 1.0 + Aa / C;
    if (std::fabs(C) < FpMin)
      C = FpMin;
    D = 1.0 / D;
    const double Del = D * C;
    H *= Del;
    if (std::fabs(Del - 1.0) < Eps)
      break;
  }
  return H;
}

} // namespace

double regularizedBeta(double A, double B, double X) {
  if (X <= 0.0)
    return 0.0;
  if (X >= 1.0)
    return 1.0;
  const double LogBt = logGamma(A + B) - logGamma(A) - logGamma(B) +
                       A * std::log(X) + B * std::log(1.0 - X);
  const double Bt = std::exp(LogBt);
  if (X < (A + 1.0) / (A + B + 2.0))
    return Bt * betaContinuedFraction(A, B, X) / A;
  return 1.0 - Bt * betaContinuedFraction(B, A, 1.0 - X) / B;
}

namespace {

/// Inverse of the regularized incomplete beta via bisection; monotone in X.
/// The loop maintains I(Lo) < P <= I(Hi), so the true quantile lies in
/// [Lo, Hi]. Returning the midpoint (as this used to) can land on either
/// side of the quantile, silently un-conservative for confidence bounds;
/// instead the caller picks the endpoint that errs outward: Lo for a lower
/// confidence bound, Hi for an upper one.
double betaQuantile(double P, double A, double B, bool RoundDown) {
  double Lo = 0.0;
  double Hi = 1.0;
  for (int Iter = 0; Iter < 200; ++Iter) {
    const double Mid = 0.5 * (Lo + Hi);
    if (regularizedBeta(A, B, Mid) < P)
      Lo = Mid;
    else
      Hi = Mid;
  }
  return RoundDown ? Lo : Hi;
}

} // namespace

std::pair<double, double> clopperPearson(size_t K, size_t N, double Alpha) {
  if (N == 0)
    return {0.0, 1.0};
  const double Kd = static_cast<double>(K);
  const double Nd = static_cast<double>(N);
  double Lower = 0.0;
  double Upper = 1.0;
  if (K > 0)
    Lower = betaQuantile(Alpha / 2.0, Kd, Nd - Kd + 1.0, /*RoundDown=*/true);
  if (K < N)
    Upper = betaQuantile(1.0 - Alpha / 2.0, Kd + 1.0, Nd - Kd,
                         /*RoundDown=*/false);
  Lower = std::clamp(Lower, 0.0, 1.0);
  Upper = std::clamp(Upper, Lower, 1.0);
  return {Lower, Upper};
}

} // namespace genprove
