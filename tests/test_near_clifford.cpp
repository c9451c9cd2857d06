// Sum-over-Cliffords tests: Clifford-angle exactness, branch statistics,
// and convergence of the sampled distribution toward the exact one.

#include "stabilizer/near_clifford.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "circuit/random.h"
#include "core/simulator.h"
#include "test_helpers.h"
#include "util/error.h"

namespace bgls {
namespace {

using std::numbers::pi;

/// Runs the near-Clifford BGLS sampler. Sample parallelization must be
/// disabled so every repetition re-runs the circuit and explores a fresh
/// stochastic Clifford branch (Sec. 3.2.3 of the paper makes the same
/// point).
Counts sample_near_clifford(const Circuit& circuit, int n, int reps,
                            Rng& rng) {
  Simulator<CHState> sim{
      CHState(n),
      [](const Operation& op, CHState& state, Rng& inner_rng) {
        act_on_near_clifford(op, state, inner_rng);
      },
      [](const CHState& state, Bitstring b) { return state.probability(b); },
      SimulatorOptions{.disable_sample_parallelization = true}};
  return sim.sample(circuit, static_cast<std::uint64_t>(reps), rng);
}

/// Exact expected output of sum-over-Cliffords sampling for circuits
/// whose only non-Clifford gates are T gates: every T is replaced by I
/// or S with probability 1/2 each (|c_I| = |c_S| exactly at θ = π/4), so
/// the sampler's stationary distribution is the uniform mixture of the
/// 2^#T branch-circuit distributions — not the true Born distribution.
/// The gap between the two is exactly the overlap lag of Figs. 4–5.
Distribution exact_branch_mixture(const Circuit& circuit, int n) {
  std::vector<std::pair<std::size_t, std::size_t>> t_positions;
  const auto& moments = circuit.moments();
  for (std::size_t m = 0; m < moments.size(); ++m) {
    for (std::size_t o = 0; o < moments[m].operations().size(); ++o) {
      if (moments[m].operations()[o].gate().kind() == GateKind::kT) {
        t_positions.emplace_back(m, o);
      }
    }
  }
  const std::size_t branches = std::size_t{1} << t_positions.size();
  Distribution mixture;
  for (std::size_t branch = 0; branch < branches; ++branch) {
    Circuit substituted;
    std::size_t t_seen = 0;
    for (std::size_t m = 0; m < moments.size(); ++m) {
      for (const auto& op : moments[m].operations()) {
        if (op.gate().kind() == GateKind::kT) {
          const bool use_s = (branch >> t_seen++) & 1u;
          if (use_s) substituted.append(s(op.qubits()[0]));
          // Identity branch: skip the gate entirely.
        } else {
          substituted.append(op);
        }
      }
    }
    const auto dist = testing::ideal_distribution(substituted, n);
    const double weight = 1.0 / static_cast<double>(branches);
    for (const auto& [bits, p] : dist) mixture[bits] += weight * p;
  }
  return mixture;
}

TEST(NearClifford, CliffordGatesPassThrough) {
  CHState ch(2);
  Rng rng(1);
  act_on_near_clifford(h(0), ch, rng);
  act_on_near_clifford(cnot(0, 1), ch, rng);
  EXPECT_NEAR(ch.probability(from_string("11")), 0.5, 1e-12);
}

TEST(NearClifford, CliffordAnglesAreExact) {
  // Rz at multiples of π/2 must match the statevector exactly,
  // including the global phase.
  for (const double theta : {0.0, pi / 2.0, pi, 3.0 * pi / 2.0, 2.0 * pi,
                             -pi / 2.0}) {
    Circuit circuit{h(0), rz(theta, 0), h(0)};
    CHState ch(1);
    Rng rng(1);
    for (const auto& op : circuit.all_operations()) {
      act_on_near_clifford(op, ch, rng);
    }
    const auto reference = testing::ideal_statevector(circuit, 1);
    for (Bitstring b = 0; b < 2; ++b) {
      EXPECT_NEAR(std::abs(ch.amplitude(b) - reference[b]), 0.0, 1e-9)
          << "theta=" << theta;
    }
  }
}

TEST(NearClifford, PhaseGateCliffordAnglesAreExact) {
  // Phase(π/2) = S exactly.
  Circuit circuit{h(0)};
  circuit.append(Operation(Gate::Phase(pi / 2.0), {0}));
  CHState ch(1);
  Rng rng(1);
  for (const auto& op : circuit.all_operations()) {
    act_on_near_clifford(op, ch, rng);
  }
  const auto reference = testing::ideal_statevector(circuit, 1);
  for (Bitstring b = 0; b < 2; ++b) {
    EXPECT_NEAR(std::abs(ch.amplitude(b) - reference[b]), 0.0, 1e-9);
  }
}

TEST(NearClifford, TGateBranchesBetweenIAndS) {
  NearCliffordStats stats;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    CHState ch(1);
    act_on_near_clifford(t(0), ch, rng, &stats);
  }
  EXPECT_EQ(stats.rotations_decomposed, 2000u);
  EXPECT_EQ(stats.identity_branches + stats.s_branches, 2000u);
  // For θ = π/4: |c_I| = cos - sin ≈ 0.5412 .. |c_S| = √2 sin ≈ 0.5412.
  // Both branches occur with substantial probability.
  EXPECT_GT(stats.identity_branches, 500u);
  EXPECT_GT(stats.s_branches, 500u);
}

TEST(NearClifford, RejectsUnsupportedGates) {
  CHState ch(3);
  Rng rng(1);
  EXPECT_THROW(act_on_near_clifford(ccx(0, 1, 2), ch, rng),
               UnsupportedOperationError);
  EXPECT_THROW(act_on_near_clifford(rx(0.3, 0), ch, rng),
               UnsupportedOperationError);
}

TEST(NearClifford, RejectsSymbolicAngle) {
  CHState ch(1);
  Rng rng(1);
  EXPECT_THROW(act_on_near_clifford(rz(Symbol{"g"}, 0), ch, rng), ValueError);
}

TEST(NearClifford, HasSupportPredicate) {
  EXPECT_TRUE(has_near_clifford_support(h(0)));
  EXPECT_TRUE(has_near_clifford_support(t(0)));
  EXPECT_TRUE(has_near_clifford_support(rz(0.123, 0)));
  EXPECT_FALSE(has_near_clifford_support(rx(0.123, 0)));
  EXPECT_FALSE(has_near_clifford_support(rz(Symbol{"g"}, 0)));
}

TEST(NearClifford, SingleTGateConvergesToBranchMixture) {
  // H T H: the I branch gives P(0) = 1, the S branch (H S H = √X) gives
  // P(0) = 1/2; the sampler converges to their even mixture
  // P(0) = 3/4 — not the exact cos²(π/8) ≈ 0.854. The residual gap is
  // the overlap lag the paper plots in Fig. 4.
  Circuit circuit{h(0), t(0), h(0)};
  Rng rng(7);
  const auto empirical =
      normalize(sample_near_clifford(circuit, 1, 40000, rng));
  EXPECT_NEAR(empirical.at(0), 0.75, 0.01);
  const auto ideal = testing::ideal_distribution(circuit, 1);
  EXPECT_NEAR(distribution_overlap(empirical, ideal), 1.0 - (0.8536 - 0.75),
              0.01);
}

class NearCliffordConvergence : public ::testing::TestWithParam<int> {};

TEST_P(NearCliffordConvergence, ConvergesToExactBranchMixture) {
  // Random Clifford+T circuits with 1-3 T gates: the empirical sampled
  // distribution must converge to the exactly enumerated 2^#T-branch
  // mixture.
  const int seed = GetParam();
  Rng circuit_rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  const int n = 3;
  const Circuit circuit =
      random_clifford_t_circuit(n, 10, 1 + (seed % 3), circuit_rng);
  Rng rng(static_cast<std::uint64_t>(seed) + 100);
  const Counts counts = sample_near_clifford(circuit, n, 30000, rng);
  const auto mixture = exact_branch_mixture(circuit, n);
  EXPECT_LT(total_variation_distance(normalize(counts), mixture), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearCliffordConvergence,
                         ::testing::Range(0, 6));

TEST(NearClifford, TReplacedBySIsExactlyClifford) {
  // The Fig. 4a comparison copy: substituting T→S turns the circuit
  // pure-Clifford, and the BGLS stabilizer sampler becomes exact.
  Rng circuit_rng(11);
  const int n = 3;
  const Circuit clifford_t = random_clifford_t_circuit(n, 12, 4, circuit_rng);
  const Circuit pure = with_t_gates_replaced(clifford_t, Gate::S());
  Rng rng(13);
  const Counts counts = sample_near_clifford(pure, n, 30000, rng);
  const auto ideal = testing::ideal_distribution(pure, n);
  EXPECT_LT(total_variation_distance(normalize(counts), ideal), 0.02);
}

TEST(NearClifford, OverlapDegradesWithTCount) {
  // Fig. 5's qualitative shape at test scale: more T gates → lower
  // attainable overlap. Compared on the *exact* branch mixtures so the
  // assertion is deterministic, plus one empirical consistency check.
  Rng circuit_rng(17);
  const int n = 4;
  const Circuit base = random_clifford_circuit(n, 30, circuit_rng);
  Rng sub_rng(19);
  const Circuit few_t = with_random_t_substitutions(base, 1, sub_rng);
  const Circuit many_t = with_random_t_substitutions(base, 8, sub_rng);

  const double overlap_few =
      distribution_overlap(exact_branch_mixture(few_t, n),
                           testing::ideal_distribution(few_t, n));
  const double overlap_many =
      distribution_overlap(exact_branch_mixture(many_t, n),
                           testing::ideal_distribution(many_t, n));
  EXPECT_GE(overlap_few, overlap_many - 1e-9);
  EXPECT_GT(overlap_few, 0.8);

  Rng rng(23);
  const double empirical_few = distribution_overlap(
      normalize(sample_near_clifford(few_t, n, 20000, rng)),
      testing::ideal_distribution(few_t, n));
  EXPECT_NEAR(empirical_few, overlap_few, 0.02);
}

}  // namespace
}  // namespace bgls
