//===- util/stats.h - Small statistics helpers ----------------*- C++ -*-===//
///
/// \file
/// Mean / percentile / min / max helpers shared by the relaxation heuristic
/// (which needs segment-length percentiles) and the benchmark reporting.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_UTIL_STATS_H
#define GENPROVE_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace genprove {

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double> &Values);

/// The q-th percentile (q in [0,1]) using linear interpolation between order
/// statistics. Sorts a copy; 0 for an empty range.
double percentile(std::vector<double> Values, double Q);

/// Sum of the values.
double sum(const std::vector<double> &Values);

/// Regularized incomplete beta function I_x(a, b). Exposed so tests can
/// check the conservative-endpoint invariant of clopperPearson.
double regularizedBeta(double A, double B, double X);

/// Clopper-Pearson exact binomial confidence interval for K successes out of
/// N trials at confidence level (1 - Alpha). Returns {lower, upper}, clamped
/// to [0, 1]. The quantile bisection returns the endpoint that errs outward
/// (smaller lower bound, larger upper bound), so the interval is
/// conservative rather than merely approximate.
std::pair<double, double> clopperPearson(size_t K, size_t N, double Alpha);

} // namespace genprove

#endif // GENPROVE_UTIL_STATS_H
