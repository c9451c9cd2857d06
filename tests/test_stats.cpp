// Tests for distribution distances and descriptive statistics.

#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.h"

namespace bgls {
namespace {

TEST(Stats, NormalizeCounts) {
  Counts counts{{0, 30}, {1, 70}};
  const auto dist = normalize(counts);
  EXPECT_DOUBLE_EQ(dist.at(0), 0.3);
  EXPECT_DOUBLE_EQ(dist.at(1), 0.7);
}

TEST(Stats, NormalizeRejectsEmpty) {
  Counts counts;
  EXPECT_THROW(normalize(counts), ValueError);
}

TEST(Stats, OverlapOfIdenticalDistributionsIsOne) {
  Distribution p{{0, 0.25}, {1, 0.75}};
  EXPECT_DOUBLE_EQ(distribution_overlap(p, p), 1.0);
}

TEST(Stats, OverlapOfDisjointDistributionsIsZero) {
  Distribution p{{0, 1.0}};
  Distribution q{{1, 1.0}};
  EXPECT_DOUBLE_EQ(distribution_overlap(p, q), 0.0);
}

TEST(Stats, OverlapIsSymmetric) {
  Distribution p{{0, 0.5}, {1, 0.5}};
  Distribution q{{0, 0.9}, {1, 0.1}};
  EXPECT_DOUBLE_EQ(distribution_overlap(p, q), distribution_overlap(q, p));
  EXPECT_DOUBLE_EQ(distribution_overlap(p, q), 0.6);
}

TEST(Stats, OverlapPlusTvIsOne) {
  Distribution p{{0, 0.2}, {1, 0.3}, {2, 0.5}};
  Distribution q{{0, 0.4}, {1, 0.1}, {3, 0.5}};
  EXPECT_NEAR(distribution_overlap(p, q) + total_variation_distance(p, q), 1.0,
              1e-12);
}

TEST(Stats, FidelityBounds) {
  Distribution p{{0, 0.5}, {1, 0.5}};
  Distribution q{{0, 0.5}, {1, 0.5}};
  EXPECT_NEAR(classical_fidelity(p, q), 1.0, 1e-12);
  Distribution r{{2, 1.0}};
  EXPECT_DOUBLE_EQ(classical_fidelity(p, r), 0.0);
}

TEST(Stats, ChiSquareNearZeroForExactCounts) {
  Distribution expected{{0, 0.5}, {1, 0.5}};
  Counts observed{{0, 500}, {1, 500}};
  const auto result = chi_square(observed, expected);
  EXPECT_NEAR(result.statistic, 0.0, 1e-12);
  EXPECT_EQ(result.degrees_of_freedom, 1);
}

TEST(Stats, ChiSquareDetectsMismatch) {
  Distribution expected{{0, 0.5}, {1, 0.5}};
  Counts observed{{0, 900}, {1, 100}};
  const auto result = chi_square(observed, expected);
  EXPECT_GT(result.statistic, 100.0);
}

TEST(Stats, ChiSquarePoolsRareCells) {
  Distribution expected{{0, 0.997}, {1, 0.001}, {2, 0.001}, {3, 0.001}};
  Counts observed{{0, 997}, {1, 1}, {2, 1}, {3, 1}};
  const auto result = chi_square(observed, expected);
  EXPECT_EQ(result.degrees_of_freedom, 1);  // 1 big cell + pooled cell - 1
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944, 1e-6);
}

TEST(Stats, StddevOfSingletonIsZero) {
  const std::vector<double> xs{5.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, LogLogSlopeRecoversPowerLaw) {
  std::vector<double> xs, ys;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x * x);  // slope 3
  }
  EXPECT_NEAR(log_log_slope(xs, ys), 3.0, 1e-9);
}

TEST(Stats, LogLogSlopeRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  const std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW((void)log_log_slope(xs, ys), ValueError);
}

TEST(Stats, TvdSamplingBoundKnownValue) {
  // Uniform over 4 outcomes, N = 100, δ = e^-2:
  // ½·4·√(0.25·0.75/100) + √(2/200).
  const Distribution uniform{{0, 0.25}, {1, 0.25}, {2, 0.25}, {3, 0.25}};
  EXPECT_NEAR(tvd_sampling_bound(uniform, 100, std::exp(-2.0)),
              2.0 * std::sqrt(0.001875) + 0.1, 1e-12);
  // A point mass has no sampling spread; only the deviation term stays.
  EXPECT_NEAR(tvd_sampling_bound({{5, 1.0}}, 50, std::exp(-1.0)), 0.1, 1e-12);
  EXPECT_THROW((void)tvd_sampling_bound(uniform, 0, 0.01), ValueError);
  EXPECT_THROW((void)tvd_sampling_bound(uniform, 10, 0.0), ValueError);
}

}  // namespace
}  // namespace bgls
