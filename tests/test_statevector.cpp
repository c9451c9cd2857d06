// Statevector backend tests: every gate kernel against brute-force
// matrix embeddings, projection, channels, sampling.

#include "statevector/state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/random.h"
#include "statevector/kernels.h"
#include "test_helpers.h"
#include "util/error.h"

namespace bgls {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

StateVectorState random_state(int n, Rng& rng) {
  StateVectorState state(n);
  // Scramble with a few layers of random gates.
  RandomCircuitOptions options;
  options.num_moments = 6;
  options.op_density = 0.9;
  const Circuit c = generate_random_circuit(n, options, rng);
  for (const auto& op : c.all_operations()) state.apply(op);
  return state;
}

TEST(StateVector, InitialState) {
  StateVectorState state(3);
  EXPECT_DOUBLE_EQ(state.probability(from_string("000")), 1.0);
  EXPECT_DOUBLE_EQ(state.probability(from_string("100")), 0.0);
  EXPECT_EQ(state.dimension(), 8u);
}

TEST(StateVector, NonZeroInitialState) {
  StateVectorState state(3, from_string("101"));
  EXPECT_DOUBLE_EQ(state.probability(from_string("101")), 1.0);
}

TEST(StateVector, HadamardCreatesSuperposition) {
  StateVectorState state(1);
  state.apply(h(0));
  EXPECT_NEAR(state.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(state.probability(1), 0.5, 1e-12);
  EXPECT_NEAR(state.amplitude(0).real(), kInvSqrt2, 1e-12);
}

TEST(StateVector, GhzState) {
  StateVectorState state(3);
  for (const auto& op : ghz_circuit(3).all_operations()) state.apply(op);
  EXPECT_NEAR(state.probability(from_string("000")), 0.5, 1e-12);
  EXPECT_NEAR(state.probability(from_string("111")), 0.5, 1e-12);
  EXPECT_NEAR(state.probability(from_string("100")), 0.0, 1e-12);
}

// Every gate kind applied at every qubit placement must match the
// brute-force embedded matrix.
class StateVectorGateKernels : public ::testing::TestWithParam<int> {};

TEST_P(StateVectorGateKernels, MatchBruteForceEmbedding) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const int n = 4;

  const std::vector<Operation> ops{
      h(seed % n),
      x((seed + 1) % n),
      y((seed + 2) % n),
      z((seed + 3) % n),
      s(seed % n),
      t((seed + 1) % n),
      Operation(Gate::SqrtX(), {(seed + 2) % n}),
      rx(0.37 * seed + 0.1, seed % n),
      ry(1.1 * seed + 0.2, (seed + 1) % n),
      rz(-0.9 * seed - 0.3, (seed + 2) % n),
      Operation(Gate::Phase(0.77), {(seed + 3) % n}),
      cnot(seed % n, (seed + 1) % n),
      cz((seed + 1) % n, (seed + 3) % n),
      swap(seed % n, (seed + 2) % n),
      Operation(Gate::ISwap(), {(seed + 1) % n, (seed + 2) % n}),
      Operation(Gate::CPhase(0.51), {(seed + 3) % n, seed % n}),
      zz(0.63, seed % n, (seed + 3) % n),
      ccx(seed % n, (seed + 1) % n, (seed + 2) % n),
      Operation(Gate::CCZ(), {(seed + 1) % n, (seed + 2) % n, (seed + 3) % n}),
      Operation(Gate::CSwap(), {seed % n, (seed + 1) % n, (seed + 3) % n}),
  };

  for (const auto& op : ops) {
    StateVectorState state = random_state(n, rng);
    std::vector<Complex> reference(state.amplitudes().begin(),
                                   state.amplitudes().end());
    reference = testing::embed_operation(op, n).apply(reference);
    state.apply(op);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_NEAR(std::abs(state.amplitudes()[i] - reference[i]), 0.0, 1e-10)
          << op.to_string() << " amplitude " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Placements, StateVectorGateKernels,
                         ::testing::Range(0, 8));

class StateVectorRandomCircuits : public ::testing::TestWithParam<int> {};

TEST_P(StateVectorRandomCircuits, MatchesBruteForceEvolution) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 5;
  RandomCircuitOptions options;
  options.num_moments = 12;
  options.op_density = 0.8;
  const Circuit circuit = generate_random_circuit(n, options, rng);

  StateVectorState state(n);
  Rng apply_rng(1);
  evolve(circuit, state, apply_rng);

  const auto reference = testing::ideal_statevector(circuit, n);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(std::abs(state.amplitudes()[i] - reference[i]), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateVectorRandomCircuits,
                         ::testing::Range(0, 10));

TEST(StateVector, ProbabilitiesSumToOne) {
  Rng rng(5);
  const StateVectorState state = random_state(5, rng);
  double total = 0.0;
  for (double p : state.probabilities()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(StateVector, ProjectGhzCollapses) {
  StateVectorState state(2);
  for (const auto& op : ghz_circuit(2).all_operations()) state.apply(op);
  const std::vector<Qubit> q0{0};
  state.project(q0, from_string("00"));
  EXPECT_NEAR(state.probability(from_string("00")), 1.0, 1e-12);
  EXPECT_NEAR(state.probability(from_string("11")), 0.0, 1e-12);
}

TEST(StateVector, ProjectZeroProbabilityThrows) {
  StateVectorState state(1);  // |0⟩
  const std::vector<Qubit> q0{0};
  EXPECT_THROW(state.project(q0, from_string("1")), ValueError);
}

TEST(StateVector, ProjectMultipleQubits) {
  StateVectorState state(3);
  for (const auto& op : ghz_circuit(3).all_operations()) state.apply(op);
  const std::vector<Qubit> qs{0, 2};
  state.project(qs, from_string("111"));
  EXPECT_NEAR(state.probability(from_string("111")), 1.0, 1e-12);
}

TEST(StateVector, MarginalOfGhz) {
  StateVectorState state(4);
  for (const auto& op : ghz_circuit(4).all_operations()) state.apply(op);
  for (Qubit q = 0; q < 4; ++q) {
    EXPECT_NEAR(state.marginal_one(q), 0.5, 1e-12);
  }
}

TEST(StateVector, SampleMatchesDistribution) {
  StateVectorState state(2);
  state.apply(rx(1.0, 0));
  state.apply(ry(0.7, 1));
  Rng rng(7);
  Counts counts;
  const int reps = 50000;
  for (int i = 0; i < reps; ++i) ++counts[state.sample(rng)];
  for (std::size_t b = 0; b < 4; ++b) {
    const double expected = state.probability(b) * reps;
    const auto it = counts.find(b);
    const double observed =
        it == counts.end() ? 0.0 : static_cast<double>(it->second);
    EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected + 1.0));
  }
}

TEST(StateVector, SampleNMatchesSingleDraws) {
  Rng rng(13);
  const StateVectorState state = random_state(4, rng);
  // Same seed → sample_n's batched inverse-CDF draws must equal a
  // sequence of single draws (one uniform consumed per draw).
  Rng rng_batched(21), rng_single(21);
  const auto batched = state.sample_n(500, rng_batched);
  for (const Bitstring expected : batched) {
    EXPECT_EQ(state.sample(rng_single), expected);
  }
}

TEST(StateVector, SampleNMatchesDistribution) {
  StateVectorState state(2);
  state.apply(rx(1.0, 0));
  state.apply(ry(0.7, 1));
  Rng rng(17);
  const std::uint64_t reps = 50000;
  Counts counts;
  for (const Bitstring bits : state.sample_n(reps, rng)) ++counts[bits];
  for (std::size_t b = 0; b < 4; ++b) {
    const double expected =
        state.probability(b) * static_cast<double>(reps);
    const auto it = counts.find(b);
    const double observed =
        it == counts.end() ? 0.0 : static_cast<double>(it->second);
    EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected + 1.0));
  }
}

TEST(StateVector, DeterministicChannelFlips) {
  StateVectorState state(1);
  Rng rng(1);
  apply_op(Operation(Gate::Channel(bit_flip(1.0)), {0}), state, rng);
  EXPECT_NEAR(state.probability(1), 1.0, 1e-12);
}

TEST(StateVector, ChannelTrajectoriesPreserveNorm) {
  Rng rng(3);
  StateVectorState state = random_state(3, rng);
  for (int i = 0; i < 10; ++i) {
    apply_op(Operation(Gate::Channel(depolarize(0.3)), {i % 3}), state, rng);
    EXPECT_NEAR(state.norm_squared(), 1.0, 1e-9);
  }
}

TEST(StateVector, AmplitudeDampingDrivesToZeroState) {
  StateVectorState state(1);
  state.apply(x(0));  // |1⟩
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    apply_op(Operation(Gate::Channel(amplitude_damp(0.5)), {0}), state, rng);
  }
  // After many damping steps the excited population is (almost surely) gone.
  EXPECT_GT(state.probability(0), 0.999);
}

TEST(StateVector, ApplyRejectsMeasurement) {
  StateVectorState state(2);
  EXPECT_THROW(state.apply(measure({0, 1}, "z")), ValueError);
}

TEST(StateVector, ApplyRejectsOutOfRangeQubit) {
  StateVectorState state(2);
  EXPECT_THROW(state.apply(h(5)), ValueError);
}

TEST(StateVector, ApplyMatrixRejectsRepeatedQubit) {
  // A repeated target used to leave the state unchanged: the dense
  // two-qubit loop had no blocks to visit.
  StateVectorState state(2);
  const Matrix hh = Matrix::kron(Gate::H().unitary(), Gate::H().unitary());
  EXPECT_THROW(state.apply_matrix(hh, std::vector<Qubit>{0, 0}), ValueError);
  EXPECT_THROW(state.apply_matrix(Gate::CCX().unitary(),
                                  std::vector<Qubit>{0, 1, 0}),
               ValueError);
}

TEST(StateVector, RejectsHugeRegister) {
  EXPECT_THROW(StateVectorState(31), ValueError);
  EXPECT_THROW(StateVectorState(0), ValueError);
}

TEST(StateVector, EvolveSkipsMeasurements) {
  Circuit c{h(0), measure({0}, "m"), h(0)};
  StateVectorState state(1);
  Rng rng(1);
  evolve(c, state, rng);
  // H then H = identity: back to |0⟩.
  EXPECT_NEAR(state.probability(0), 1.0, 1e-12);
}

/// Pointers to `ops`, the form apply_diagonal_group takes.
std::vector<const Operation*> pointers(const std::vector<Operation>& ops) {
  std::vector<const Operation*> out;
  for (const Operation& op : ops) out.push_back(&op);
  return out;
}

TEST(StateVector, DiagonalGroupMatchesGateByGate) {
  // One pass multiplies the gates' phases together before they meet the
  // amplitudes, so it equals the gates applied one by one to rounding.
  const int n = 14;
  Rng rng(83);
  const StateVectorState initial = random_state(n, rng);
  const std::vector<Operation> ops{
      t(0), s(7), cz(0, 13), zz(0.4, 3, 7), rz(1.3, 13),
      Operation(Gate::CCZ(), {3, 0, 9}), z(9), t(0)};
  StateVectorState gate_by_gate = initial;
  for (const Operation& op : ops) gate_by_gate.apply(op);
  StateVectorState grouped = initial;
  grouped.apply_diagonal_group(pointers(ops));
  EXPECT_LE(grouped.max_abs_diff(gate_by_gate), 1e-12);
  EXPECT_GT(grouped.max_abs_diff(initial), 0.1);
}

TEST(StateVector, DiagonalGroupWidthFollowsTheSizeRule) {
  // Below 2^14 amplitudes the table costs more than the gates it
  // replaces; a forced-generic scope applies gate by gate.
  EXPECT_EQ(StateVectorState(13).diagonal_group_qubits(), 0);
  EXPECT_EQ(StateVectorState(14).diagonal_group_qubits(),
            kernels::kMaxPhaseTableQubits);
  const kernels::ForceGenericScope generic(true);
  EXPECT_EQ(StateVectorState(14).diagonal_group_qubits(), 0);
}

TEST(StateVector, DiagonalGroupRejectsOtherGatesAndWideGroups) {
  StateVectorState state(14);
  EXPECT_THROW(state.apply_diagonal_group(pointers({t(0), h(1)})),
               ValueError);
  EXPECT_THROW(state.apply_diagonal_group(pointers({t(0), t(14)})),
               ValueError);
  std::vector<Operation> wide;
  for (Qubit q = 0; q <= kernels::kMaxPhaseTableQubits; ++q) {
    wide.push_back(t(q));
  }
  EXPECT_THROW(state.apply_diagonal_group(pointers(wide)), ValueError);
}

TEST(StateVector, ComputeProbabilityFreeFunction) {
  StateVectorState state(2);
  state.apply(h(0));
  EXPECT_NEAR(compute_probability(state, from_string("10")), 0.5, 1e-12);
}

}  // namespace
}  // namespace bgls
