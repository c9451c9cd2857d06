// Tests for the xoshiro256++ engine and its exact discrete distributions.

#include "util/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "util/error.h"

namespace bgls {
namespace {

TEST(Rng, SameSeedGivesIdenticalStreams) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(5);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_int(7)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

TEST(Rng, UniformIntRejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(0), ValueError);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(13);
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  std::array<int, 4> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.categorical(weights)]++;
  for (int k = 0; k < 4; ++k) {
    const double expected = n * weights[k] / 10.0;
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected));
  }
}

TEST(Rng, CategoricalHandlesZeroWeights) {
  Rng rng(17);
  const std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng(1);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW(rng.categorical(weights), ValueError);
}

TEST(Rng, CategoricalRejectsNegative) {
  Rng rng(1);
  const std::vector<double> weights{0.5, -0.1};
  EXPECT_THROW(rng.categorical(weights), ValueError);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(1);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(10, 0.0), 0u);
  EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(Rng, BinomialSmallNMatchesMeanAndVariance) {
  Rng rng(23);
  const std::uint64_t n = 20;
  const double p = 0.3;
  const int trials = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double k = static_cast<double>(rng.binomial(n, p));
    sum += k;
    sumsq += k * k;
  }
  const double mean_hat = sum / trials;
  const double var_hat = sumsq / trials - mean_hat * mean_hat;
  EXPECT_NEAR(mean_hat, n * p, 0.05);
  EXPECT_NEAR(var_hat, n * p * (1 - p), 0.1);
}

TEST(Rng, BinomialLargeNUsesBtrsAndMatchesMoments) {
  Rng rng(29);
  const std::uint64_t n = 100000;  // forces the BTRS path
  const double p = 0.4;
  const int trials = 20000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double k = static_cast<double>(rng.binomial(n, p));
    EXPECT_LE(k, static_cast<double>(n));
    sum += k;
    sumsq += k * k;
  }
  const double mean_hat = sum / trials;
  const double var_hat = sumsq / trials - mean_hat * mean_hat;
  EXPECT_NEAR(mean_hat, n * p, 5.0);  // se ≈ sqrt(npq/trials) ≈ 1.1
  EXPECT_NEAR(var_hat / (n * p * (1 - p)), 1.0, 0.05);
}

TEST(Rng, BinomialHighPUsesSymmetry) {
  Rng rng(31);
  const std::uint64_t n = 50;
  const double p = 0.9;
  const int trials = 100000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.binomial(n, p));
  }
  EXPECT_NEAR(sum / trials, n * p, 0.1);
}

TEST(Rng, MultinomialCountsSumToTrials) {
  Rng rng(37);
  const std::vector<double> weights{0.1, 0.5, 0.2, 0.2};
  for (int i = 0; i < 100; ++i) {
    const auto counts = rng.multinomial(1000, weights);
    std::uint64_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, 1000u);
  }
}

TEST(Rng, MultinomialMatchesWeights) {
  Rng rng(41);
  const std::vector<double> weights{2.0, 6.0, 2.0};  // unnormalized
  std::array<double, 3> sums{};
  const int reps = 2000;
  const std::uint64_t trials = 1000;
  for (int i = 0; i < reps; ++i) {
    const auto counts = rng.multinomial(trials, weights);
    for (int k = 0; k < 3; ++k) sums[k] += static_cast<double>(counts[k]);
  }
  EXPECT_NEAR(sums[0] / (reps * trials), 0.2, 0.005);
  EXPECT_NEAR(sums[1] / (reps * trials), 0.6, 0.005);
  EXPECT_NEAR(sums[2] / (reps * trials), 0.2, 0.005);
}

TEST(Rng, MultinomialZeroTrials) {
  Rng rng(43);
  const std::vector<double> weights{1.0, 1.0};
  const auto counts = rng.multinomial(0, weights);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
}

TEST(Rng, MultinomialZeroWeightCategoryGetsNothing) {
  Rng rng(47);
  const std::vector<double> weights{1.0, 0.0, 1.0};
  for (int i = 0; i < 50; ++i) {
    const auto counts = rng.multinomial(100, weights);
    EXPECT_EQ(counts[1], 0u);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(51);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 5);
}

TEST(Rng, JumpIsDeterministic) {
  Rng a(99), b(99);
  a.jump();
  b.jump();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, JumpedStreamDivergesFromOriginal) {
  Rng base(7);
  Rng jumped = base;
  jumped.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (base() == jumped());
  EXPECT_LT(equal, 5);
}

TEST(Rng, IndexedSplitIsPureAndLeavesParentUntouched) {
  Rng parent(123);
  const Rng before = parent;  // snapshot via copy
  const Rng child_a = parent.split(3);
  const Rng child_b = parent.split(3);
  // split(i) is const and repeatable.
  Rng ca = child_a, cb = child_b;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca(), cb());
  // The parent stream was not advanced.
  Rng p = parent, q = before;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p(), q());
}

TEST(Rng, IndexedSplitMatchesIncrementalJumps) {
  Rng parent(321);
  Rng walker = parent;
  for (std::uint64_t index = 0; index < 4; ++index) {
    walker.jump();
    Rng expected = walker;
    Rng actual = parent.split(index);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(actual(), expected());
  }
}

TEST(Rng, DistinctSplitIndicesGiveDistinctStreams) {
  Rng parent(55);
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (s0() == s1());
  EXPECT_LT(equal, 5);
}

TEST(Rng, JumpStreamsAreStatisticallyIndependent) {
  // Uniforms drawn from jump-separated streams should be uncorrelated.
  Rng parent(2024);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  const int n = 20000;
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double var_a = saa / n - (sa / n) * (sa / n);
  const double var_b = sbb / n - (sb / n) * (sb / n);
  const double corr = cov / std::sqrt(var_a * var_b);
  // Null-hypothesis standard error is 1/sqrt(n) ≈ 0.007.
  EXPECT_LT(std::abs(corr), 0.035);
}

TEST(Rng, MixKeySeedsDistinctPositions) {
  // Keyed draws (core/simulator.h) need one seed per position: for a
  // fixed key mix_key is a bijection in the value, and the same inputs
  // always give the same seed.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t r = 0; r < 10000; ++r) seeds.insert(mix_key(7, r));
  EXPECT_EQ(seeds.size(), 10000u);
  EXPECT_EQ(mix_key(7, 3), mix_key(7, 3));
  EXPECT_NE(mix_key(7, 3), mix_key(8, 3));
  // Neighbouring positions seed unrelated streams.
  Rng a(mix_key(7, 0));
  Rng b(mix_key(7, 1));
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace bgls
