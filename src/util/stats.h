/// \file stats.h
/// Statistics helpers shared by tests and the per-figure benches:
/// distribution distances ("overlap" in the paper's figures), descriptive
/// statistics, chi-square goodness of fit, and log-log slope fits used to
/// verify runtime-scaling shapes.

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "util/bits.h"

namespace bgls {

/// Empirical counts over bitstrings (the output of a sampling run).
using Counts = std::map<Bitstring, std::uint64_t>;

/// Normalized probabilities over bitstrings.
using Distribution = std::map<Bitstring, double>;

/// Converts raw counts into a normalized empirical distribution.
[[nodiscard]] Distribution normalize(const Counts& counts);

/// Fractional overlap sum_b min(p_b, q_b) in [0, 1]; equals 1 iff the
/// distributions coincide. This is the "overlap attained" quantity plotted
/// in Figs. 4 and 5 of the paper (1 - total-variation distance).
[[nodiscard]] double distribution_overlap(const Distribution& p,
                                          const Distribution& q);

/// Total variation distance 0.5 * sum_b |p_b - q_b| in [0, 1].
[[nodiscard]] double total_variation_distance(const Distribution& p,
                                              const Distribution& q);

/// A threshold the total variation distance between `expected` and the
/// empirical distribution of `samples` independent draws from it
/// exceeds with probability at most `false_failure_rate` (δ):
/// ½ Σ_b √(p_b(1−p_b)/N) + √(ln(1/δ)/(2N)). The first term bounds the
/// expected distance (Jensen); one draw moves the distance by at most
/// 1/N, so McDiarmid's inequality bounds the excess by the second.
[[nodiscard]] double tvd_sampling_bound(const Distribution& expected,
                                        std::uint64_t samples,
                                        double false_failure_rate);

/// Classical (Bhattacharyya) fidelity (sum_b sqrt(p_b q_b))^2.
[[nodiscard]] double classical_fidelity(const Distribution& p,
                                        const Distribution& q);

/// Pearson chi-square statistic of observed counts against an expected
/// distribution; entries with expected probability < min_expected/total
/// are pooled. Returns the statistic and the pooled degrees of freedom.
struct ChiSquareResult {
  double statistic = 0.0;
  int degrees_of_freedom = 0;
};
[[nodiscard]] ChiSquareResult chi_square(const Counts& observed,
                                         const Distribution& expected,
                                         double min_expected = 5.0);

/// Arithmetic mean.
[[nodiscard]] double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Median (copies and partially sorts).
[[nodiscard]] double median(std::vector<double> xs);

/// Least-squares slope of log(y) against log(x); used to check power-law
/// runtime scaling (e.g. near-linear MPS scaling in Fig. 7b). Requires
/// strictly positive inputs.
[[nodiscard]] double log_log_slope(std::span<const double> xs,
                                   std::span<const double> ys);

}  // namespace bgls
