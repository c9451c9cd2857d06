// Density-matrix backend tests: agreement with the statevector on pure
// evolution, exact channel application, purity bookkeeping.

#include "densitymatrix/state.h"

#include <gtest/gtest.h>

#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/simulator.h"
#include "statevector/state.h"
#include "test_helpers.h"
#include "util/error.h"

namespace bgls {
namespace {

TEST(DensityMatrix, InitialStateIsPureProjector) {
  DensityMatrixState rho(2, from_string("10"));
  EXPECT_DOUBLE_EQ(rho.probability(from_string("10")), 1.0);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

class DensityMatrixVsStateVector : public ::testing::TestWithParam<int> {};

TEST_P(DensityMatrixVsStateVector, PureEvolutionMatches) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 4;
  RandomCircuitOptions options;
  options.num_moments = 10;
  options.op_density = 0.8;
  const Circuit circuit = generate_random_circuit(n, options, rng);

  DensityMatrixState rho(n);
  evolve_exact(circuit, rho);

  const auto psi = testing::ideal_statevector(circuit, n);
  for (std::size_t r = 0; r < psi.size(); ++r) {
    for (std::size_t c = 0; c < psi.size(); ++c) {
      EXPECT_NEAR(std::abs(rho.entry(r, c) - psi[r] * std::conj(psi[c])), 0.0,
                  1e-9);
    }
  }
  EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityMatrixVsStateVector,
                         ::testing::Range(0, 8));

TEST(DensityMatrix, DepolarizeDiagonalKnownValues) {
  DensityMatrixState rho(1);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(depolarize(0.3), q0);
  // |0⟩⟨0| under depolarize(p): stays |0⟩⟨0| w.p. 1-p + p/3 (Z), flips
  // with 2p/3 (X and Y each p/3).
  EXPECT_NEAR(rho.probability(0), 1.0 - 0.2, 1e-12);
  EXPECT_NEAR(rho.probability(1), 0.2, 1e-12);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_LT(rho.purity(), 1.0);
}

TEST(DensityMatrix, BitFlipMixesState) {
  DensityMatrixState rho(1);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(bit_flip(0.25), q0);
  EXPECT_NEAR(rho.probability(0), 0.75, 1e-12);
  EXPECT_NEAR(rho.probability(1), 0.25, 1e-12);
}

TEST(DensityMatrix, PhaseDampKillsCoherence) {
  DensityMatrixState rho(1);
  rho.apply(h(0));
  EXPECT_NEAR(std::abs(rho.entry(0, 1)), 0.5, 1e-12);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(phase_damp(1.0), q0);
  EXPECT_NEAR(std::abs(rho.entry(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(rho.probability(0), 0.5, 1e-12);
}

TEST(DensityMatrix, AmplitudeDampPumpsToGround) {
  DensityMatrixState rho(1);
  rho.apply(x(0));
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(amplitude_damp(0.4), q0);
  EXPECT_NEAR(rho.probability(1), 0.6, 1e-12);
  EXPECT_NEAR(rho.probability(0), 0.4, 1e-12);
}

TEST(DensityMatrix, ChannelOnEntangledPairActsLocally) {
  DensityMatrixState rho(2);
  rho.apply(h(0));
  rho.apply(cnot(0, 1));
  const std::vector<Qubit> q0{0};
  // p = 3/4 is the replace-with-maximally-mixed point of the
  // (1-p)ρ + (p/3)(XρX + YρY + ZρZ) parameterization.
  rho.apply_channel_sum(depolarize(0.75), q0);
  for (Bitstring b = 0; b < 4; ++b) {
    EXPECT_NEAR(rho.probability(b), 0.25, 1e-12);
  }
}

TEST(DensityMatrix, TrajectoryAverageMatchesChannelSum) {
  // Average many statevector trajectories of a non-unital channel and
  // compare with the exact Kraus-sum evolution.
  const double gamma = 0.35;
  Circuit circuit{h(0), cnot(0, 1)};
  circuit.append(Operation(Gate::Channel(amplitude_damp(gamma)), {0}));

  DensityMatrixState rho(2);
  evolve_exact(circuit, rho);

  Rng rng(42);
  std::vector<double> averaged(4, 0.0);
  const int trajectories = 60000;
  for (int i = 0; i < trajectories; ++i) {
    StateVectorState psi(2);
    evolve(circuit, psi, rng);
    for (std::size_t b = 0; b < 4; ++b) averaged[b] += psi.probability(b);
  }
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(averaged[b] / trajectories, rho.probability(b), 0.01);
  }
}

TEST(DensityMatrix, ProjectCollapses) {
  DensityMatrixState rho(2);
  rho.apply(h(0));
  rho.apply(cnot(0, 1));
  const std::vector<Qubit> q0{0};
  rho.project(q0, from_string("10"));
  EXPECT_NEAR(rho.probability(from_string("11")), 1.0, 1e-12);
}

TEST(DensityMatrix, SampleFollowsDiagonal) {
  DensityMatrixState rho(1);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(bit_flip(0.3), q0);
  Rng rng(9);
  int ones = 0;
  const int reps = 50000;
  for (int i = 0; i < reps; ++i) ones += static_cast<int>(rho.sample(rng));
  EXPECT_NEAR(ones / static_cast<double>(reps), 0.3, 0.01);
}

TEST(DensityMatrix, ApplyMatrixRejectsRepeatedQubit) {
  // A repeated target used to return p(00) = p(01) = 0.25 for H⊗H.
  DensityMatrixState rho(2);
  const Matrix hh = Matrix::kron(Gate::H().unitary(), Gate::H().unitary());
  EXPECT_THROW(rho.apply_matrix(hh, std::vector<Qubit>{0, 0}), ValueError);
}

TEST(DensityMatrix, RejectsOversizedRegister) {
  EXPECT_THROW(DensityMatrixState(13), ValueError);
}

TEST(DensityMatrix, ComputeProbabilityFreeFunction) {
  DensityMatrixState rho(1);
  rho.apply(h(0));
  EXPECT_NEAR(compute_probability(rho, 0), 0.5, 1e-12);
}

TEST(DensityMatrix, RoundingNegativeDiagonalClampsToZero) {
  // A gate can leave ρ_bb a few ulps below zero (about -6.6e-18 in this
  // circuit). probability() used to return it unclamped, and the
  // sampler's categorical draw rejected the negative weight.
  Rng circuit_rng(5192);
  RandomCircuitOptions options;
  options.num_moments = 8;
  options.op_density = 0.8;
  Circuit circuit = with_noise(generate_random_circuit(6, options, circuit_rng),
                               amplitude_damp(0.1));
  circuit.append(measure({0, 1, 2, 3, 4, 5}, "m"));
  Simulator<DensityMatrixState> sim{DensityMatrixState(6)};
  Result result;
  ASSERT_NO_THROW(result = sim.run(circuit, 64, 2));
  EXPECT_EQ(result.repetitions(), 64u);
}

}  // namespace
}  // namespace bgls
