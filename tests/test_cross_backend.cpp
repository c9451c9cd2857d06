// Cross-representation integration tests: the same circuits sampled
// through every backend and every sampler path must agree — the
// strongest end-to-end statement the library makes (the paper's claim
// that BGLS "functions on essentially any arbitrary quantum state
// representation").

#include <gtest/gtest.h>

#include "circuit/random.h"
#include "core/baseline.h"
#include "core/optimize.h"
#include "core/simulator.h"
#include "densitymatrix/state.h"
#include "mps/state.h"
#include "stabilizer/ch_form.h"
#include "statevector/state.h"
#include "engine_test_helpers.h"
#include "test_helpers.h"

namespace bgls {
namespace {

Circuit measured_on_all(Circuit circuit, int num_qubits) {
  return testing::with_terminal_measurement(std::move(circuit), num_qubits,
                                            "m");
}

/// Runs `circuit` through a direct single-threaded Simulator::run and
/// through a 4-thread Simulator::run and returns both
/// normalized histograms — the two execution paths every backend must
/// support interchangeably.
template <typename State>
std::pair<Distribution, Distribution> direct_and_engine_distributions(
    const Circuit& circuit, State initial, std::uint64_t reps,
    std::uint64_t seed) {
  Simulator<State> direct{initial};
  Rng direct_rng(seed);
  const Distribution direct_dist =
      direct.run(circuit, reps, direct_rng).distribution("m");

  SimulatorOptions engine_options;
  engine_options.num_threads = 4;
  Simulator<State> engine{std::move(initial), engine_options};
  const Distribution engine_dist =
      engine.run(circuit, reps, seed + 1).distribution("m");
  return {direct_dist, engine_dist};
}

class CrossBackendClifford : public ::testing::TestWithParam<int> {};

TEST_P(CrossBackendClifford, AllFourBackendsSampleTheSameDistribution) {
  const int seed = GetParam();
  Rng circuit_rng(static_cast<std::uint64_t>(seed) * 271 + 9);
  const int n = 4;
  const Circuit circuit = random_clifford_circuit(n, 15, circuit_rng);
  const auto ideal = testing::ideal_distribution(circuit, n);
  const std::uint64_t reps = 20000;

  Simulator<StateVectorState> sv{StateVectorState(n)};
  Simulator<DensityMatrixState> dm{DensityMatrixState(n)};
  Simulator<CHState> ch{CHState(n)};
  Simulator<MPSState> mps{MPSState(n)};

  Rng r1(1), r2(2), r3(3), r4(4);
  EXPECT_LT(total_variation_distance(normalize(sv.sample(circuit, reps, r1)),
                                     ideal),
            0.025);
  EXPECT_LT(total_variation_distance(normalize(dm.sample(circuit, reps, r2)),
                                     ideal),
            0.025);
  EXPECT_LT(total_variation_distance(normalize(ch.sample(circuit, reps, r3)),
                                     ideal),
            0.025);
  EXPECT_LT(total_variation_distance(normalize(mps.sample(circuit, reps, r4)),
                                     ideal),
            0.025);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendClifford, ::testing::Range(0, 5));

TEST(CrossBackend, AmplitudesAgreeOnCliffordCircuits) {
  // Phase-exact agreement between all amplitude-capable backends.
  Rng circuit_rng(77);
  const int n = 5;
  const Circuit circuit = random_clifford_circuit(n, 25, circuit_rng);

  StateVectorState sv(n);
  Rng rng(0);
  evolve(circuit, sv, rng);
  CHState ch(n);
  MPSState mps(n);
  for (const auto& op : circuit.all_operations()) {
    ch.apply(op);
    mps.apply(op);
  }
  for (Bitstring b = 0; b < (Bitstring{1} << n); ++b) {
    EXPECT_NEAR(std::abs(ch.amplitude(b) - sv.amplitude(b)), 0.0, 1e-9);
    EXPECT_NEAR(std::abs(mps.amplitude(b) - sv.amplitude(b)), 0.0, 1e-9);
  }
}

TEST(CrossBackend, BaselineAndBglsAgree) {
  Rng circuit_rng(81);
  const int n = 4;
  RandomCircuitOptions options;
  options.num_moments = 10;
  const Circuit circuit = generate_random_circuit(n, options, circuit_rng);

  Simulator<StateVectorState> sim{StateVectorState(n)};
  Rng r1(5), r2(6);
  const auto bgls_dist = normalize(sim.sample(circuit, 30000, r1));
  const auto baseline_dist =
      normalize(qubit_by_qubit_sample(circuit, StateVectorState(n), 30000, r2));
  EXPECT_LT(total_variation_distance(bgls_dist, baseline_dist), 0.02);
}

TEST(CrossBackend, OptimizedCircuitSamplesIdenticallyOnEveryBackend) {
  Rng circuit_rng(83);
  const int n = 3;
  RandomCircuitOptions options;
  options.num_moments = 14;
  options.op_density = 0.9;
  options.gate_domain = {Gate::H(), Gate::T(), Gate::S(), Gate::X(),
                         Gate::CX()};
  const Circuit circuit = generate_random_circuit(n, options, circuit_rng);
  const Circuit optimized = optimize_for_bgls(circuit);
  const auto ideal = testing::ideal_distribution(circuit, n);

  Simulator<StateVectorState> sv{StateVectorState(n)};
  Simulator<MPSState> mps{MPSState(n)};
  Rng r1(7), r2(8);
  EXPECT_LT(total_variation_distance(
                normalize(sv.sample(optimized, 30000, r1)), ideal),
            0.02);
  EXPECT_LT(total_variation_distance(
                normalize(mps.sample(optimized, 30000, r2)), ideal),
            0.02);
}

TEST(CrossBackend, ChannelsAgreeBetweenSvAndDmBackends) {
  Circuit circuit{h(0), cnot(0, 1)};
  circuit.append(Operation(Gate::Channel(amplitude_damp(0.45)), {0}));
  circuit.append(Operation(Gate::Channel(phase_flip(0.25)), {1}));
  circuit.append(h(1));

  DensityMatrixState rho(2);
  evolve_exact(circuit, rho);
  Distribution ideal;
  for (Bitstring b = 0; b < 4; ++b) ideal[b] = rho.probability(b);

  Simulator<StateVectorState> sv{StateVectorState(2)};
  Simulator<DensityMatrixState> dm{DensityMatrixState(2)};
  Rng r1(9), r2(10);
  EXPECT_LT(total_variation_distance(normalize(sv.sample(circuit, 40000, r1)),
                                     ideal),
            0.02);
  EXPECT_LT(total_variation_distance(normalize(dm.sample(circuit, 40000, r2)),
                                     ideal),
            0.02);
}

TEST(CrossBackend, MidCircuitMeasurementAgreesAcrossBackends) {
  // GHZ + mid measurement + further gates; the three pure-state
  // backends must produce the same joint records distribution.
  Circuit circuit = ghz_circuit(3);
  circuit.append(measure({0}, "mid"));
  circuit.append(h(1));
  circuit.append(measure({1, 2}, "end"));

  const auto run_joint = [&](auto simulator, std::uint64_t seed) {
    Rng rng(seed);
    const Result result = simulator.run(circuit, 20000, rng);
    // Joint distribution over (mid, end).
    Counts joint;
    for (std::size_t i = 0; i < result.values("mid").size(); ++i) {
      ++joint[(result.values("mid")[i] << 2) | result.values("end")[i]];
    }
    return normalize(joint);
  };

  const auto sv = run_joint(Simulator<StateVectorState>{StateVectorState(3)}, 1);
  const auto ch = run_joint(Simulator<CHState>{CHState(3)}, 2);
  const auto mps = run_joint(Simulator<MPSState>{MPSState(3)}, 3);
  EXPECT_LT(total_variation_distance(sv, ch), 0.025);
  EXPECT_LT(total_variation_distance(sv, mps), 0.025);
}

// Randomized differential suite: seeded random Clifford+T circuits
// sampled through statevector, density-matrix, and MPS backends — each
// both directly (Simulator::run, one thread) and with four threads —
// must all agree with the brute-force ideal distribution
// within sampling tolerance. The stabilizer backend joins on the
// pure-Clifford (T→S) subset, where its simulation is exact.
class CrossBackendDifferential : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kQubits = 4;
  static constexpr std::uint64_t kReps = 20000;
  static constexpr double kTolerance = 0.035;

  [[nodiscard]] Circuit clifford_t_circuit() const {
    Rng circuit_rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    return random_clifford_t_circuit(kQubits, 12, 6, circuit_rng);
  }
};

TEST_P(CrossBackendDifferential, CliffordTAgreesAcrossBackendsAndPaths) {
  const Circuit circuit = measured_on_all(clifford_t_circuit(), kQubits);
  const auto ideal = testing::ideal_distribution(circuit, kQubits);
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 977 + 3;

  const auto [sv_direct, sv_engine] = direct_and_engine_distributions(
      circuit, StateVectorState(kQubits), kReps, seed);
  const auto [dm_direct, dm_engine] = direct_and_engine_distributions(
      circuit, DensityMatrixState(kQubits), kReps, seed + 100);
  const auto [mps_direct, mps_engine] = direct_and_engine_distributions(
      circuit, MPSState(kQubits), kReps, seed + 200);

  for (const auto& [label, dist] :
       std::initializer_list<std::pair<const char*, const Distribution*>>{
           {"sv direct", &sv_direct},   {"sv engine", &sv_engine},
           {"dm direct", &dm_direct},   {"dm engine", &dm_engine},
           {"mps direct", &mps_direct}, {"mps engine", &mps_engine}}) {
    EXPECT_LT(total_variation_distance(*dist, ideal), kTolerance) << label;
  }
}

TEST_P(CrossBackendDifferential, StabilizerExactOnPureCliffordSubset) {
  // Replace every T with S: the circuit becomes pure Clifford, which
  // the CH-form backend simulates exactly — no branch mixture, so its
  // samples must (a) never land outside the ideal support and (b) match
  // the ideal distribution within sampling noise, on both paths.
  const Circuit clifford = measured_on_all(
      with_t_gates_replaced(clifford_t_circuit(), Gate::S()), kQubits);
  const auto ideal = testing::ideal_distribution(clifford, kQubits);
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 577 + 11;

  const auto [direct, engine] = direct_and_engine_distributions(
      clifford, CHState(kQubits), kReps, seed);
  for (const auto& [label, dist] :
       std::initializer_list<std::pair<const char*, const Distribution*>>{
           {"ch direct", &direct}, {"ch engine", &engine}}) {
    EXPECT_LT(total_variation_distance(*dist, ideal), kTolerance) << label;
    for (const auto& [bits, p] : *dist) {
      EXPECT_TRUE(ideal.contains(bits))
          << label << " sampled zero-probability bitstring " << bits;
      (void)p;
    }
  }

  // Exactness also means bit-exact reproducibility through the engine.
  SimulatorOptions engine_options;
  engine_options.num_threads = 4;
  Simulator<CHState> repeat{CHState(kQubits), engine_options};
  EXPECT_EQ(repeat.run(clifford, 2000, seed).histogram("m"),
            repeat.run(clifford, 2000, seed).histogram("m"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendDifferential,
                         ::testing::Range(0, 3));

TEST(CrossBackend, DeterministicSeedsAcrossBackends) {
  // Same seed, same backend => identical counts (regression guard for
  // the deterministic sampling pipeline).
  const Circuit circuit = ghz_circuit(4);
  Simulator<CHState> sim{CHState(4)};
  Rng r1(123), r2(123);
  const Counts a = sim.sample(circuit, 500, r1);
  const Counts b = sim.sample(circuit, 500, r2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bgls
