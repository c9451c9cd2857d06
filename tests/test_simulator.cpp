// Core gate-by-gate sampler tests: correctness of the sampled
// distribution on every code path (parallelized, trajectories, channels,
// mid-circuit measurement, custom hooks).

#include "core/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "circuit/random.h"
#include "core/baseline.h"
#include "densitymatrix/state.h"
#include "mps/state.h"
#include "obs/metrics.h"
#include "stabilizer/ch_form.h"
#include "statevector/kernels.h"
#include "statevector/state.h"
#include "test_helpers.h"

namespace bgls {
namespace {

Circuit with_terminal_measurement(Circuit circuit, int num_qubits,
                                  const std::string& key = "m") {
  std::vector<Qubit> qubits(static_cast<std::size_t>(num_qubits));
  for (int q = 0; q < num_qubits; ++q) qubits[static_cast<std::size_t>(q)] = q;
  circuit.append(measure(qubits, key));
  return circuit;
}

TEST(Simulator, GhzGivesOnlyAllZerosAndAllOnes) {
  const int n = 3;
  const Circuit circuit = with_terminal_measurement(ghz_circuit(n), n, "z");
  Simulator<StateVectorState> sim{StateVectorState(n)};
  Rng rng(2);
  const Result result = sim.run(circuit, 2000, rng);
  const auto counts = result.histogram("z");
  ASSERT_EQ(counts.size(), 2u);
  const double zeros = static_cast<double>(counts.at(from_string("000")));
  const double ones = static_cast<double>(counts.at(from_string("111")));
  EXPECT_NEAR(zeros / 2000.0, 0.5, 0.05);
  EXPECT_NEAR(ones / 2000.0, 0.5, 0.05);
  EXPECT_TRUE(sim.last_run_stats().used_sample_parallelization);
}

class SimulatorRandomCircuits : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorRandomCircuits, SampledDistributionMatchesIdeal) {
  Rng circuit_rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 4;
  RandomCircuitOptions options;
  options.num_moments = 10;
  options.op_density = 0.8;
  const Circuit circuit = generate_random_circuit(n, options, circuit_rng);

  Simulator<StateVectorState> sim{StateVectorState(n)};
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const Counts counts = sim.sample(circuit, 40000, rng);

  const auto ideal = testing::ideal_distribution(circuit, n);
  EXPECT_LT(total_variation_distance(normalize(counts), ideal), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorRandomCircuits,
                         ::testing::Range(0, 10));

TEST(Simulator, TrajectoryPathAgreesWithParallelPath) {
  Rng circuit_rng(7);
  const int n = 3;
  RandomCircuitOptions options;
  options.num_moments = 8;
  const Circuit circuit = generate_random_circuit(n, options, circuit_rng);

  Simulator<StateVectorState> parallel{StateVectorState(n)};
  SimulatorOptions no_batching;
  no_batching.disable_sample_parallelization = true;
  Simulator<StateVectorState> sequential{StateVectorState(n), no_batching};

  Rng rng1(1), rng2(2);
  const auto fast = normalize(parallel.sample(circuit, 30000, rng1));
  const auto slow = normalize(sequential.sample(circuit, 30000, rng2));
  EXPECT_LT(total_variation_distance(fast, slow), 0.02);
  EXPECT_TRUE(parallel.last_run_stats().used_sample_parallelization);
  EXPECT_FALSE(sequential.last_run_stats().used_sample_parallelization);
  EXPECT_EQ(sequential.last_run_stats().trajectories, 30000u);
}

TEST(Simulator, CustomHooksReproduceThePaperTriple) {
  // The paper's constructor: Simulator(initial_state, apply_op,
  // compute_probability).
  const int n = 2;
  const Circuit circuit =
      with_terminal_measurement(ghz_circuit(n), n, "z");
  Simulator<StateVectorState> sim{
      StateVectorState(n),
      [](const Operation& op, StateVectorState& state, Rng& rng) {
        apply_op(op, state, rng);
      },
      [](const StateVectorState& state, Bitstring b) {
        return state.probability(b);
      }};
  Rng rng(5);
  const Result result = sim.run(circuit, 1000, rng);
  const auto counts = result.histogram("z");
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at(from_string("00")) + counts.at(from_string("11")),
            1000u);
}

TEST(Simulator, DictionarySaturatesAtTwoToTheN) {
  const int n = 3;
  Rng circuit_rng(11);
  RandomCircuitOptions options;
  options.num_moments = 20;
  const Circuit circuit = generate_random_circuit(n, options, circuit_rng);
  Simulator<StateVectorState> sim{StateVectorState(n)};
  Rng rng(3);
  sim.sample(circuit, 100000, rng);
  EXPECT_LE(sim.last_run_stats().max_dictionary_size, std::size_t{1} << n);
  EXPECT_GE(sim.last_run_stats().max_dictionary_size, 2u);
  EXPECT_EQ(sim.last_run_stats().trajectories, 1u);
}

TEST(Simulator, RunRequiresMeasurements) {
  Simulator<StateVectorState> sim{StateVectorState(2)};
  Rng rng(1);
  EXPECT_THROW(sim.run(ghz_circuit(2), 10, rng), ValueError);
}

TEST(Simulator, RunRejectsUnresolvedParameters) {
  Circuit circuit{rz(Symbol{"g"}, 0)};
  circuit.append(measure({0}, "m"));
  Simulator<StateVectorState> sim{StateVectorState(1)};
  Rng rng(1);
  EXPECT_THROW(sim.run(circuit, 10, rng), ValueError);
}

TEST(Simulator, DuplicateMeasurementKeyThrows) {
  Circuit circuit{h(0), measure({0}, "k"), measure({1}, "k")};
  Simulator<StateVectorState> sim{StateVectorState(2)};
  Rng rng(1);
  EXPECT_THROW(sim.run(circuit, 10, rng), ValueError);
}

TEST(Simulator, PartialMeasurementGivesMarginal) {
  // Measure only qubit 1 of a 3-qubit random circuit.
  Rng circuit_rng(13);
  RandomCircuitOptions options;
  options.num_moments = 8;
  Circuit circuit = generate_random_circuit(3, options, circuit_rng);
  const auto ideal =
      testing::ideal_marginal_distribution(circuit, 3, std::vector<Qubit>{1});
  circuit.append(measure({1}, "q1"));

  Simulator<StateVectorState> sim{StateVectorState(3)};
  Rng rng(17);
  const Result result = sim.run(circuit, 30000, rng);
  EXPECT_LT(total_variation_distance(result.distribution("q1"), ideal), 0.02);
}

TEST(Simulator, MultipleKeysAreJointlyConsistent) {
  // GHZ: measuring qubit 0 under one key and qubits 1,2 under another
  // must give perfectly correlated records.
  Circuit circuit = ghz_circuit(3);
  circuit.append(measure({0}, "first"));
  circuit.append(measure({1, 2}, "rest"));
  Simulator<StateVectorState> sim{StateVectorState(3)};
  Rng rng(23);
  const Result result = sim.run(circuit, 500, rng);
  const auto& first = result.values("first");
  const auto& rest = result.values("rest");
  ASSERT_EQ(first.size(), 500u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i] == 1, rest[i] == from_string("11"));
    EXPECT_TRUE(rest[i] == 0 || rest[i] == from_string("11"));
  }
}

TEST(Simulator, MidCircuitMeasurementXorChain) {
  // H(0); M(0→mid); X(0); M(0→end): end must be the complement of mid.
  Circuit circuit{h(0), measure({0}, "mid"), x(0), measure({0}, "end")};
  Simulator<StateVectorState> sim{StateVectorState(1)};
  Rng rng(29);
  const Result result = sim.run(circuit, 400, rng);
  const auto& mid = result.values("mid");
  const auto& end = result.values("end");
  int mid_ones = 0;
  for (std::size_t i = 0; i < mid.size(); ++i) {
    EXPECT_EQ(end[i], mid[i] ^ 1u);
    mid_ones += static_cast<int>(mid[i]);
  }
  EXPECT_NEAR(mid_ones / 400.0, 0.5, 0.1);
}

TEST(Simulator, MidCircuitMeasurementCollapsesEntanglement) {
  // GHZ, measure qubit 0 mid-circuit, then H on qubit 0 — the final
  // joint distribution of (mid, q1) stays perfectly correlated.
  Circuit circuit = ghz_circuit(2);
  circuit.append(measure({0}, "mid"));
  circuit.append(h(0));
  circuit.append(measure({1}, "q1"));
  Simulator<StateVectorState> sim{StateVectorState(2)};
  Rng rng(31);
  const Result result = sim.run(circuit, 400, rng);
  for (std::size_t i = 0; i < 400; ++i) {
    EXPECT_EQ(result.values("mid")[i], result.values("q1")[i]);
  }
}

TEST(Simulator, DeterministicChannelForcesOutcome) {
  Circuit circuit;
  circuit.append(Operation(Gate::Channel(bit_flip(1.0)), {0}));
  circuit.append(measure({0}, "m"));
  Simulator<StateVectorState> sim{StateVectorState(1)};
  Rng rng(37);
  const Result result = sim.run(circuit, 100, rng);
  EXPECT_EQ(result.histogram("m").at(1), 100u);
  EXPECT_FALSE(sim.last_run_stats().used_sample_parallelization);
}

TEST(Simulator, DepolarizingChannelMatchesDensityMatrix) {
  Circuit circuit{h(0), cnot(0, 1)};
  circuit.append(Operation(Gate::Channel(depolarize(0.4)), {0}));
  circuit.append(Operation(Gate::Channel(bit_flip(0.2)), {1}));

  DensityMatrixState rho(2);
  evolve_exact(circuit, rho);
  Distribution ideal;
  for (Bitstring b = 0; b < 4; ++b) ideal[b] = rho.probability(b);

  Simulator<StateVectorState> sim{StateVectorState(2)};
  Rng rng(41);
  const Counts counts = sim.sample(circuit, 40000, rng);
  EXPECT_LT(total_variation_distance(normalize(counts), ideal), 0.02);
}

TEST(Simulator, NonUnitalChannelMatchesDensityMatrix) {
  // Amplitude damping on an entangled state exercises the joint
  // Kraus-candidate update; a naive independent trajectory would bias
  // the outcome distribution here.
  Circuit circuit{h(0), cnot(0, 1)};
  circuit.append(Operation(Gate::Channel(amplitude_damp(0.6)), {0}));
  circuit.append(h(0));

  DensityMatrixState rho(2);
  evolve_exact(circuit, rho);
  Distribution ideal;
  for (Bitstring b = 0; b < 4; ++b) ideal[b] = rho.probability(b);

  Simulator<StateVectorState> sim{StateVectorState(2)};
  Rng rng(43);
  const Counts counts = sim.sample(circuit, 60000, rng);
  EXPECT_LT(total_variation_distance(normalize(counts), ideal), 0.02);
}

/// `Inner` without amplitude(): Simulator branches channels on it by
/// applying every Kraus operator to a copy of the state, the reference
/// the amplitude path must reproduce.
template <typename Inner>
class CopyPath {
 public:
  explicit CopyPath(Inner inner) : inner_(std::move(inner)) {}
  void apply_matrix(const Matrix& m, std::span<const Qubit> qubits) {
    inner_.apply_matrix(m, qubits);
  }
  void renormalize() { inner_.renormalize(); }
  void project(std::span<const Qubit> qubits, Bitstring bits) {
    inner_.project(qubits, bits);
  }
  // Forwarded where the inner state has it, so that a bond-capped MPS
  // resamples after the two-qubit gates it truncates, as it does bare.
  [[nodiscard]] bool applies_exactly(std::span<const Qubit> qubits) const
    requires requires(const Inner& inner, std::span<const Qubit> support) {
      inner.applies_exactly(support);
    }
  {
    return inner_.applies_exactly(qubits);
  }
  friend void apply_op(const Operation& op, CopyPath& state, Rng& rng) {
    bgls::apply_op(op, state.inner_, rng);
  }
  friend double compute_probability(const CopyPath& state, Bitstring b) {
    return bgls::compute_probability(state.inner_, b);
  }

 private:
  Inner inner_;
};

static_assert(AmplitudeReadable<StateVectorState>);
static_assert(AmplitudeReadable<MPSState>);
static_assert(KrausBranching<CopyPath<StateVectorState>>);
static_assert(!AmplitudeReadable<CopyPath<StateVectorState>>);

/// Runs `circuit` and checks its records and counters against `expected`.
template <typename State>
void expect_same_run(const Circuit& circuit, State initial, int threads,
                     std::uint64_t reps, std::uint64_t seed,
                     const std::pair<Result, RunStats>& expected) {
  SimulatorOptions options;
  options.num_threads = threads;
  Simulator<State> sim{std::move(initial), options};
  const Result result = sim.run(circuit, reps, seed);
  const RunStats& stats = sim.last_run_stats();
  ASSERT_EQ(result.keys(), expected.first.keys());
  for (const std::string& key : result.keys()) {
    EXPECT_EQ(result.values(key), expected.first.values(key)) << key;
  }
  EXPECT_EQ(stats.state_applications, expected.second.state_applications);
  EXPECT_EQ(stats.probability_evaluations,
            expected.second.probability_evaluations);
  EXPECT_EQ(stats.trajectories, expected.second.trajectories);
  ASSERT_EQ(stats.per_shard.size(), expected.second.per_shard.size());
  for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
    EXPECT_EQ(stats.per_shard[i].state_applications,
              expected.second.per_shard[i].state_applications);
    EXPECT_EQ(stats.per_shard[i].probability_evaluations,
              expected.second.per_shard[i].probability_evaluations);
  }
}

/// One single-threaded run's records and counters.
template <typename State>
std::pair<Result, RunStats> reference_run(const Circuit& circuit,
                                          State initial, std::uint64_t reps,
                                          std::uint64_t seed) {
  Simulator<State> sim{std::move(initial)};
  Result result = sim.run(circuit, reps, seed);
  return {std::move(result), sim.last_run_stats()};
}

/// A non-unital 2-qubit channel that is not symmetric under swapping its
/// qubits. With probability 0.7 the second qubit decays when the first
/// reads 1 (|11⟩ → |10⟩ with γ = 0.6); otherwise a dense unitary (0.2)
/// or ISWAP (0.1) acts. Its operators fall in the diagonal, dense and
/// permutation kernel classes.
KrausChannel asymmetric_decay_channel() {
  const double keep = std::sqrt(0.7);
  Matrix decay_none(4, 4);
  decay_none(0, 0) = decay_none(1, 1) = decay_none(2, 2) = keep;
  decay_none(3, 3) = keep * std::sqrt(0.4);
  Matrix decay(4, 4);
  decay(2, 3) = keep * std::sqrt(0.6);
  const Matrix dense =
      Matrix::kron(Gate::Ry(0.7).unitary(), Gate::T().unitary()) *
      Gate::CX().unitary();
  return KrausChannel(
      "asymmetric_decay",
      {decay_none, decay, Complex{std::sqrt(0.2), 0.0} * dense,
       Complex{std::sqrt(0.1), 0.0} * Gate::ISwap().unitary()});
}

/// A 4-qubit circuit that puts `channel` on `qubits` twice, around
/// entangling gates and a mid-circuit measurement, then measures every
/// qubit.
Circuit channel_circuit(const KrausChannel& channel,
                        const std::vector<Qubit>& qubits) {
  Circuit circuit{h(0), h(1), h(2), h(3), cnot(0, 1), t(2), cnot(3, 2)};
  circuit.append(Operation(Gate::Channel(channel), qubits));
  circuit.append(Operation(Gate::Ry(0.9), {1}));
  circuit.append(Operation(Gate::CZ(), {1, 2}));
  circuit.append(measure({2}, "mid"));
  circuit.append(Operation(Gate::Rx(0.4), {3}));
  circuit.append(cnot(2, 0));
  circuit.append(Operation(Gate::Channel(channel), qubits));
  circuit.append(h(1));
  return with_terminal_measurement(std::move(circuit), 4);
}

/// Runs `channel` on `qubits` through the statevector's amplitude path
/// at 1 and 4 threads and through the copy path at 4 threads, against
/// the copy path at 1 thread.
void expect_channel_paths_agree(const KrausChannel& channel,
                                const std::vector<Qubit>& qubits) {
  using CopyPathState = CopyPath<StateVectorState>;
  const Circuit circuit = channel_circuit(channel, qubits);
  for (const std::uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE(channel.name() + " seed " + std::to_string(seed));
    const auto expected = reference_run(
        circuit, CopyPathState(StateVectorState(4)), 400, seed);
    for (const int threads : {1, 4}) {
      expect_same_run(circuit, StateVectorState(4), threads, 400, seed,
                      expected);
    }
    expect_same_run(circuit, CopyPathState(StateVectorState(4)), 4, 400,
                    seed, expected);
  }
}

TEST(Simulator, AmplitudeChannelPathMatchesCopyPath) {
  // The statevector reads each channel step's weights off its candidate
  // amplitudes and applies only the drawn operator; the wrapper applies
  // every operator to a copy. Both sum each amplitude in the kernels'
  // order, so records and counters match exactly at 1 and 4 threads.
  expect_channel_paths_agree(bit_flip(0.3), {0});
  expect_channel_paths_agree(phase_flip(0.3), {3});
  expect_channel_paths_agree(depolarize(0.4), {1});
  expect_channel_paths_agree(amplitude_damp(0.5), {0});
  expect_channel_paths_agree(phase_damp(0.5), {2});
  expect_channel_paths_agree(asymmetric_decay_channel(), {3, 1});
}

TEST(Simulator, BondCappedMpsWeighsMultiQubitChannelsOnCopies) {
  // Under a bond cap a two-qubit operator is truncated after it is
  // applied. Weights read off the untruncated amplitudes could then draw
  // a candidate the truncated state gives zero amplitude, and a later
  // gate would find all its candidate weights zero (this circuit does so
  // within 200 repetitions). The capped MPS weighs such channels on
  // truncated copies instead, so it matches the copy path exactly. The
  // copy path forwards applies_exactly, so both resample after the
  // two-qubit gates the cap truncates and move through the rest.
  Rng circuit_rng(103);
  RandomCircuitOptions options;
  options.num_moments = 8;
  options.op_density = 0.8;
  const Circuit random = generate_random_circuit(6, options, circuit_rng);
  const Gate decay = Gate::Channel(asymmetric_decay_channel());
  Circuit circuit;
  for (const Moment& moment : random.moments()) {
    for (const Operation& op : moment.operations()) circuit.append(op);
    circuit.append(Operation(decay, {3, 1}));
    circuit.append(Operation(decay, {4, 5}));
  }
  circuit = with_terminal_measurement(std::move(circuit), 6);
  const MPSState capped(6, MPSOptions{2, 1e-12});
  EXPECT_FALSE(capped.applies_exactly(std::vector<Qubit>{3, 1}));
  EXPECT_TRUE(capped.applies_exactly(std::vector<Qubit>{3}));
  const auto expected =
      reference_run(circuit, CopyPath<MPSState>(capped), 40, 3);
  expect_same_run(circuit, capped, 1, 40, 3, expected);
}

TEST(Simulator, AsymmetricTwoQubitChannelMatchesDensityMatrix) {
  // The 2-qubit channel on qubits {3, 1}: qubits[0] = 3 is the gate's
  // most significant bit, so a swapped index convention would decay
  // qubit 3 instead of qubit 1. Each bound is exceeded with probability
  // at most 1e-9 by a correct sampler (util/stats.h).
  Circuit circuit{h(0), h(1), h(3), cnot(0, 1), t(3)};
  circuit.append(Operation(Gate::Channel(asymmetric_decay_channel()), {3, 1}));
  circuit.append(h(0));

  DensityMatrixState rho(4);
  evolve_exact(circuit, rho);
  Distribution exact;
  for (Bitstring b = 0; b < 16; ++b) exact[b] = rho.probability(b);

  const std::uint64_t reps = 100000;
  Simulator<StateVectorState> sv{StateVectorState(4)};
  Rng rng(71);
  EXPECT_LE(total_variation_distance(normalize(sv.sample(circuit, reps, rng)),
                                     exact),
            tvd_sampling_bound(exact, reps, 1e-9));
  // The MPS applies the channel as a two-qubit split between tensors 3
  // and 1.
  const std::uint64_t mps_reps = 20000;
  Simulator<MPSState> mps{MPSState(4)};
  EXPECT_LE(
      total_variation_distance(normalize(mps.sample(circuit, mps_reps, rng)),
                               exact),
      tvd_sampling_bound(exact, mps_reps, 1e-9));
}

TEST(Simulator, DensityMatrixBackendSamplesCorrectly) {
  Rng circuit_rng(47);
  RandomCircuitOptions options;
  options.num_moments = 6;
  const Circuit circuit = generate_random_circuit(3, options, circuit_rng);
  Simulator<DensityMatrixState> sim{DensityMatrixState(3)};
  Rng rng(53);
  const Counts counts = sim.sample(circuit, 30000, rng);
  const auto ideal = testing::ideal_distribution(circuit, 3);
  EXPECT_LT(total_variation_distance(normalize(counts), ideal), 0.02);
}

/// One gate of each monomial class (see core/simulator.h), and a dense
/// control, placed on a 3-qubit register. Two-qubit gates act on
/// neighbours, so the MPS applies them without reordering.
struct GateCase {
  std::string name;
  Gate gate;
  std::vector<Qubit> qubits;
  bool monomial = true;
};

/// |00⟩ → |01⟩ → |10⟩ → |11⟩ → |00⟩ with factors i, −1, −i and 1: a
/// permutation that is not its own inverse, so a move in the wrong
/// direction would show.
Gate cycle_gate() {
  Matrix m(4, 4);
  m(1, 0) = Complex{0.0, 1.0};
  m(2, 1) = Complex{-1.0, 0.0};
  m(3, 2) = Complex{0.0, -1.0};
  m(0, 3) = Complex{1.0, 0.0};
  return Gate::TwoQubitMatrix(m, "CYC");
}

/// Diagonal: T, CZ, ZZ, CCZ. Permutation with unit factors: X, CX in
/// both qubit orders, SWAP, CCX, CSWAP; with non-unit factors: Y, ISWAP
/// and the cycle. Dense: H. Gates wider than `max_arity` are left out.
std::vector<GateCase> matrix_gate_cases(std::size_t max_arity) {
  std::vector<GateCase> cases{
      {"T", Gate::T(), {1}},
      {"CZ", Gate::CZ(), {0, 1}},
      {"ZZ", Gate::ZZ(0.7), {1, 2}},
      {"CCZ", Gate::CCZ(), {2, 0, 1}},
      {"X", Gate::X(), {2}},
      {"Y", Gate::Y(), {0}},
      {"CX", Gate::CX(), {0, 1}},
      {"CX reversed", Gate::CX(), {1, 0}},
      {"SWAP", Gate::Swap(), {1, 2}},
      {"ISWAP", Gate::ISwap(), {1, 2}},
      {"cycle", cycle_gate(), {2, 1}},
      {"CCX", Gate::CCX(), {2, 0, 1}},
      {"CSWAP", Gate::CSwap(), {1, 2, 0}},
      {"H (dense)", Gate::H(), {1}, false},
  };
  std::erase_if(cases, [&](const GateCase& c) {
    return c.qubits.size() > max_arity;
  });
  return cases;
}

/// The Clifford gates the CH form applies natively, by class.
std::vector<GateCase> clifford_gate_cases() {
  return {
      {"Z", Gate::Z(), {1}},
      {"S", Gate::S(), {0}},
      {"CZ", Gate::CZ(), {0, 1}},
      {"X", Gate::X(), {2}},
      {"Y", Gate::Y(), {0}},
      {"CX", Gate::CX(), {0, 1}},
      {"CX reversed", Gate::CX(), {1, 0}},
      {"SWAP", Gate::Swap(), {1, 2}},
      {"H (dense)", Gate::H(), {1}, false},
  };
}

/// The case's gate twice, between dense layers that make a wrong move
/// show: before the first, every qubit has its own marginal; after it, a
/// mixing layer turns the gate's phases into populations. The Clifford
/// form uses H layers (qubit 1 starts at |0⟩, qubits 0 and 2 at |+⟩).
/// The angles were picked with an exact model of the sampler's Markov
/// chain: a move in the wrong direction, one with the gate-local bit
/// order reversed, or a permutation that leaves the sample in place
/// shifts the sampled distribution by at least 3x the 5,000-sample TVD
/// bound on every gate where that error changes anything.
Circuit monomial_case_circuit(const GateCase& c, bool clifford) {
  Circuit circuit;
  const Operation gate(c.gate, c.qubits);
  if (clifford) {
    circuit.append(h(0));
    circuit.append(h(2));
    circuit.append(gate);
    circuit.append(h(0));
    circuit.append(h(1));
    circuit.append(gate);
    return circuit;
  }
  constexpr std::array<double, 3> kPrep{2.1, 2.5, 0.9};
  constexpr std::array<double, 3> kMix{0.3, 0.6, 0.9};
  for (Qubit q = 0; q < 3; ++q) circuit.append(ry(kPrep[q], q));
  circuit.append(gate);
  for (Qubit q = 0; q < 3; ++q) circuit.append(rx(kMix[q], q));
  circuit.append(gate);
  return circuit;
}

/// Samples every case on both paths from `initial` and checks the TVD to
/// the exact distribution: 20,000 samples on the dictionary path, 5,000
/// trajectories on the other. Each check fails a correct sampler with
/// probability at most 1e-9 (tvd_sampling_bound), so the 118 checks of
/// the MonomialUpdates tests together fail with at most 1.2e-7. Also
/// checks the move count: both applies of a monomial gate move, except
/// a two-qubit one when `moves_multi_qubit` is false (a bond cap).
template <typename State>
void expect_exact_on_both_paths(const State& initial,
                                const std::vector<GateCase>& cases,
                                bool clifford, bool moves_multi_qubit) {
  for (const GateCase& c : cases) {
    const Circuit circuit = monomial_case_circuit(c, clifford);
    const Distribution exact = testing::ideal_distribution(circuit, 3);
    const bool moves =
        c.monomial && (moves_multi_qubit || c.qubits.size() == 1);
    for (const bool trajectories : {false, true}) {
      SCOPED_TRACE(c.name + (trajectories ? " (trajectories)" : ""));
      const std::uint64_t reps = trajectories ? 5000 : 20000;
      SimulatorOptions options;
      options.disable_sample_parallelization = trajectories;
      Simulator<State> sim{initial, options};
      Rng rng(17);
      const Counts counts = sim.sample(circuit, reps, rng);
      EXPECT_LE(total_variation_distance(normalize(counts), exact),
                tvd_sampling_bound(exact, reps, 1e-9));
      const RunStats& stats = sim.last_run_stats();
      EXPECT_EQ(stats.used_sample_parallelization, !trajectories);
      EXPECT_EQ(stats.monomial_moves, moves ? 2 * stats.trajectories : 0);
    }
  }
}

TEST(MonomialUpdates, StatevectorSamplesExactly) {
  expect_exact_on_both_paths(StateVectorState(3), matrix_gate_cases(3),
                             false, true);
}

TEST(MonomialUpdates, DensityMatrixSamplesExactly) {
  expect_exact_on_both_paths(DensityMatrixState(3), matrix_gate_cases(3),
                             false, true);
}

TEST(MonomialUpdates, MpsSamplesExactly) {
  expect_exact_on_both_paths(MPSState(3), matrix_gate_cases(2), false, true);
}

TEST(MonomialUpdates, BondCappedMpsResamplesTwoQubitGates) {
  // A bond cap makes applies_exactly false for two qubits, so two-qubit
  // gates resample. Bond dimension 2 holds any 3-qubit state, so the
  // capped state stays exact and the TVD checks still apply.
  const MPSState capped(3, MPSOptions{2, 1e-12});
  ASSERT_FALSE(capped.applies_exactly(std::vector<Qubit>{0, 1}));
  expect_exact_on_both_paths(capped, matrix_gate_cases(2), false, false);
}

TEST(MonomialUpdates, ChFormSamplesExactly) {
  expect_exact_on_both_paths(CHState(3), clifford_gate_cases(), true, true);
}

TEST(MonomialUpdates, GhzEvaluatesTwoProbabilitiesOnEveryNativeBackend) {
  // GHZ(n) is H and then n − 1 CX gates. H splits the one entry
  // {0…0: 1000} over 2 candidates, and every CX then moves the entries,
  // so a dictionary run evaluates exactly 2 probabilities.
  const int n = 5;
  const Circuit circuit = with_terminal_measurement(ghz_circuit(n), n);
  const auto expect_two = [&](auto initial, const std::string& backend) {
    Simulator<decltype(initial)> sim{std::move(initial)};
    const Result result = sim.run(circuit, 1000, 3);
    const RunStats& stats = sim.last_run_stats();
    EXPECT_TRUE(stats.used_sample_parallelization) << backend;
    EXPECT_EQ(stats.probability_evaluations, 2u) << backend;
    EXPECT_EQ(stats.monomial_moves, static_cast<std::size_t>(n - 1))
        << backend;
    EXPECT_EQ(result.histogram("m").size(), 2u) << backend;
  };
  expect_two(StateVectorState(n), "statevector");
  expect_two(DensityMatrixState(n), "densitymatrix");
  expect_two(MPSState(n), "mps");
  expect_two(CHState(n), "stabilizer");

  // Custom hooks resample after every gate, as the paper's rule does: H
  // splits the entry over 2 candidates, and each CX splits the two
  // entries (all zeros, and the ones on the qubits it has reached) over
  // 4 candidates each. That is 2 + 8(n − 1) evaluations.
  Simulator<StateVectorState> custom{
      StateVectorState(n),
      [](const Operation& op, StateVectorState& state, Rng& rng) {
        apply_op(op, state, rng);
      },
      [](const StateVectorState& state, Bitstring b) {
        return compute_probability(state, b);
      }};
  custom.run(circuit, 1000, 3);
  EXPECT_EQ(custom.last_run_stats().probability_evaluations,
            static_cast<std::size_t>(2 + 8 * (n - 1)));
  EXPECT_EQ(custom.last_run_stats().monomial_moves, 0u);
}

// --- Deferred diagonal gates ---------------------------------------------

/// Diagonal applies the statevector kernels have counted: one per pass.
std::uint64_t diagonal_passes() {
  return obs::MetricsRegistry::global()
      .counter("bgls_kernel_apply_total{class=\"diagonal\"}",
               "Statevector matrix applies by kernel dispatch class")
      .value();
}

/// The exact distribution of `circuit` on `qubits` (bit j of an outcome
/// is qubits[j]), from evolve() on the generic kernels, gate by gate:
/// testing::ideal_distribution's 2^n x 2^n matrices cannot reach 14
/// qubits.
Distribution exact_marginal(const Circuit& circuit, int n,
                            const std::vector<Qubit>& qubits) {
  const kernels::ForceGenericScope reference(true);
  StateVectorState state(n);
  Rng unused(0);
  evolve(circuit, state, unused);
  Distribution marginal;
  for (Bitstring b = 0; b < state.dimension(); ++b) {
    Bitstring packed = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      packed = with_bit(packed, static_cast<int>(j), get_bit(b, qubits[j]));
    }
    marginal[packed] += state.probability(b);
  }
  return marginal;
}

/// `circuit` without its diagonal gates.
Circuit without_diagonal_gates(const Circuit& circuit) {
  Circuit out;
  for (const Operation& op : circuit.all_operations()) {
    if (op.gate().compiled_unitary()->classification.cls !=
        kernels::GateClass::kDiagonal) {
      out.append(op);
    }
  }
  return out;
}

/// Samples `circuit` on the dictionary path, measuring `qubits`, and
/// checks the TVD to the exact marginal: a correct sampler fails with
/// probability at most 1e-9 (tvd_sampling_bound), so the three
/// DeferredDiagonals TVD checks together fail with at most 3e-9. The
/// check has power: the marginal without the circuit's diagonal gates
/// lies more than three bounds away. Returns the run's stats.
RunStats expect_marginal_exact(const Circuit& circuit, int n,
                               const std::vector<Qubit>& qubits) {
  constexpr std::uint64_t kReps = 20000;
  const Distribution exact = exact_marginal(circuit, n, qubits);
  const double bound = tvd_sampling_bound(exact, kReps, 1e-9);
  EXPECT_GT(total_variation_distance(
                exact_marginal(without_diagonal_gates(circuit), n, qubits),
                exact),
            3 * bound);
  Circuit measured = circuit;
  measured.append(measure(qubits, "m"));
  Simulator<StateVectorState> sim{StateVectorState(n)};
  const Result result = sim.run(measured, kReps, 29);
  EXPECT_TRUE(sim.last_run_stats().used_sample_parallelization);
  EXPECT_LE(total_variation_distance(normalize(result.histogram("m")), exact),
            bound);
  return sim.last_run_stats();
}

/// T, S, Z, CZ, CCZ, ZZ and Rz runs between H and CX layers on 14
/// qubits. The first run spans every qubit, so it splits at the 10-qubit
/// cap; the CX layers apply the groups on the qubits they touch, and the
/// H layers turn the phases into populations.
Circuit diagonal_runs_circuit() {
  const int n = 14;
  Circuit c;
  for (Qubit q = 0; q < n; ++q) c.append(h(q));
  for (Qubit q = 0; q < n; ++q) {
    c.append(q % 3 == 0 ? t(q) : q % 3 == 1 ? s(q) : rz(0.4 + 0.1 * q, q));
  }
  c.append(cz(0, 13));
  c.append(Operation(Gate::CCZ(), {2, 5, 8}));
  c.append(zz(0.9, 4, 11));
  c.append(z(6));
  for (Qubit q = 0; q + 1 < n; q += 2) c.append(cnot(q, q + 1));
  for (Qubit q = 0; q < n; q += 2) c.append(h(q));
  c.append(t(1));
  c.append(cz(1, 2));
  c.append(s(3));
  c.append(zz(1.3, 5, 9));
  c.append(Operation(Gate::CCZ(), {7, 10, 12}));
  c.append(rz(0.7, 12));
  c.append(t(0));
  for (Qubit q = 1; q + 1 < n; q += 2) c.append(cnot(q, q + 1));
  for (Qubit q = 0; q < n; ++q) c.append(h(q));
  return c;
}

TEST(DeferredDiagonals, RunsBetweenHAndCxLayersSampleExactly) {
  const Circuit circuit = diagonal_runs_circuit();
  const std::uint64_t before = diagonal_passes();
  const RunStats stats = expect_marginal_exact(circuit, 14, {0, 1, 2, 3, 4});
  // Every gate still counts as an application, and the 25 diagonal
  // gates and 13 CX gates as moves; the diagonal ones went in 4 passes.
  EXPECT_EQ(stats.state_applications, circuit.all_operations().size());
  EXPECT_EQ(stats.monomial_moves, 38u);
  EXPECT_EQ(diagonal_passes() - before, 4u);
}

TEST(DeferredDiagonals, GroupsSplitAtTheCapSampleExactly) {
  // Phases on 12 qubits: the eleventh gate would widen the group past 10
  // qubits, so the first ten go as one pass and the last two as another.
  const int n = 14;
  Circuit c;
  for (Qubit q = 0; q < 12; ++q) c.append(h(q));
  for (Qubit q = 0; q < 12; ++q) {
    c.append(q % 2 == 0 ? t(q) : rz(0.3 * (q + 1), q));
  }
  c.append(cz(10, 11));
  for (Qubit q = 0; q < 12; ++q) c.append(h(q));
  const std::uint64_t before = diagonal_passes();
  expect_marginal_exact(c, n, {0, 5, 9, 10, 11});
  EXPECT_EQ(diagonal_passes() - before, 2u);
}

TEST(DeferredDiagonals, TrailingDiagonalGatesAreNeverApplied) {
  // Nothing reads the state after the last gate, so a final run of
  // phases that fits one group costs no pass; the earlier runs still
  // shape the marginal.
  const int n = 14;
  Circuit c = diagonal_runs_circuit();
  for (Qubit q = 0; q < 10; ++q) c.append(q % 2 == 0 ? t(q) : s(q));
  c.append(cz(0, 9));
  c.append(Operation(Gate::CCZ(), {2, 3, 4}));
  const std::uint64_t before_trailing = diagonal_passes();
  expect_marginal_exact(diagonal_runs_circuit(), n, {0, 1, 2, 3, 4});
  const std::uint64_t runs_only = diagonal_passes() - before_trailing;
  const std::uint64_t before = diagonal_passes();
  expect_marginal_exact(c, n, {0, 1, 2, 3, 4});
  EXPECT_EQ(diagonal_passes() - before, runs_only);
}

TEST(DeferredDiagonals, GatesPastTheStateStillFail) {
  // A circuit wider than the state is applied gate by gate, so a phase
  // on a qubit the state lacks fails where it stands, also as the last
  // gate.
  Simulator<StateVectorState> sim{StateVectorState(14)};
  Circuit c{h(0), t(20)};
  c.append(measure({0}, "m"));
  EXPECT_THROW(sim.run(c, 10, 1), ValueError);
}

/// 10 T gates on qubits 0..9 between H layers on those qubits, measured
/// on every one of the `n` qubits.
Circuit ten_t_gates_circuit(int n) {
  Circuit c;
  for (Qubit q = 0; q < 10; ++q) c.append(h(q));
  for (Qubit q = 0; q < 10; ++q) c.append(t(q));
  c.append(h(0));
  return with_terminal_measurement(c, n);
}

TEST(DeferredDiagonals, PassCountsArePinned) {
  const int n = 14;
  const auto passes = [&](const Circuit& circuit) {
    Simulator<StateVectorState> sim{StateVectorState(n)};
    const std::uint64_t before = diagonal_passes();
    sim.run(circuit, 100, 5);
    EXPECT_EQ(sim.last_run_stats().state_applications,
              circuit.all_operations().size() - 1);
    return diagonal_passes() - before;
  };
  // Ten T gates fill one group; H on one of their qubits applies it.
  EXPECT_EQ(passes(ten_t_gates_circuit(n)), 1u);
  // Twelve: the eleventh starts a second group, which H on qubit 11
  // applies.
  Circuit twelve;
  for (Qubit q = 0; q < 12; ++q) twelve.append(h(q));
  for (Qubit q = 0; q < 12; ++q) twelve.append(t(q));
  twelve.append(h(11));
  EXPECT_EQ(passes(with_terminal_measurement(twelve, n)), 2u);
  // A group of one gate is that gate's own apply.
  EXPECT_EQ(passes(with_terminal_measurement(Circuit{h(3), t(3), h(3)}, n)),
            1u);
  // Diagonal gates after the last H are never applied.
  Circuit trailing;
  for (Qubit q = 0; q < n; ++q) trailing.append(h(q));
  for (Qubit q = 0; q < 10; ++q) trailing.append(t(q));
  trailing.append(cz(0, 9));
  EXPECT_EQ(passes(with_terminal_measurement(trailing, n)), 0u);
}

TEST(DeferredDiagonals, SmallStatesAndCustomHooksApplyEveryGate) {
  // Below 2^14 amplitudes, and with custom hooks, every diagonal gate is
  // its own apply where it stands.
  const auto passes = [](Simulator<StateVectorState> sim, int n) {
    const std::uint64_t before = diagonal_passes();
    sim.run(ten_t_gates_circuit(n), 100, 5);
    return diagonal_passes() - before;
  };
  EXPECT_EQ(passes(Simulator<StateVectorState>{StateVectorState(13)}, 13),
            10u);
  const Simulator<StateVectorState> custom{
      StateVectorState(14),
      [](const Operation& op, StateVectorState& state, Rng& rng) {
        apply_op(op, state, rng);
      },
      [](const StateVectorState& state, Bitstring b) {
        return compute_probability(state, b);
      }};
  EXPECT_EQ(passes(custom, 14), 10u);
}

TEST(Simulator, SameSeedSameResult) {
  const Circuit circuit = with_terminal_measurement(ghz_circuit(3), 3);
  Simulator<StateVectorState> sim{StateVectorState(3)};
  Rng rng1(77), rng2(77);
  const Result a = sim.run(circuit, 200, rng1);
  const Result b = sim.run(circuit, 200, rng2);
  EXPECT_EQ(a.values("m"), b.values("m"));
}

TEST(Simulator, StatsCountApplicationsAndProbabilities) {
  const int n = 2;
  const Circuit circuit = ghz_circuit(n);  // 2 ops
  Simulator<StateVectorState> sim{StateVectorState(n)};
  Rng rng(83);
  sim.sample(circuit, 100, rng);
  EXPECT_EQ(sim.last_run_stats().state_applications, 2u);
  EXPECT_GT(sim.last_run_stats().probability_evaluations, 0u);
}

TEST(QubitByQubitBaseline, MatchesIdealDistribution) {
  Rng circuit_rng(89);
  RandomCircuitOptions options;
  options.num_moments = 8;
  const Circuit circuit = generate_random_circuit(3, options, circuit_rng);
  Rng rng(97);
  const Counts counts =
      qubit_by_qubit_sample(circuit, StateVectorState(3), 30000, rng);
  const auto ideal = testing::ideal_distribution(circuit, 3);
  EXPECT_LT(total_variation_distance(normalize(counts), ideal), 0.02);
}

TEST(QubitByQubitBaseline, AgreesWithBglsOnGhz) {
  const Circuit circuit = ghz_circuit(4);
  Rng rng(101);
  const Counts counts =
      qubit_by_qubit_sample(circuit, StateVectorState(4), 4000, rng);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_TRUE(counts.contains(from_string("0000")));
  EXPECT_TRUE(counts.contains(from_string("1111")));
}

TEST(DirectSampleBaseline, MatchesIdealDistribution) {
  Rng circuit_rng(89);
  RandomCircuitOptions options;
  options.num_moments = 8;
  const Circuit circuit = generate_random_circuit(3, options, circuit_rng);
  Rng rng(103);
  const Counts counts =
      direct_sample(circuit, StateVectorState(3), 30000, rng);
  const auto ideal = testing::ideal_distribution(circuit, 3);
  EXPECT_LT(total_variation_distance(normalize(counts), ideal), 0.02);
}

TEST(DirectSampleBaseline, ChannelsFallBackToTrajectories) {
  Circuit circuit{h(0)};
  circuit.append(Operation(Gate::Channel(bit_flip(0.5)), {0}));
  Rng rng(107);
  const Counts counts = direct_sample(circuit, StateVectorState(1), 5000, rng);
  std::uint64_t total = 0;
  for (const auto& [bits, count] : counts) total += count;
  EXPECT_EQ(total, 5000u);
  EXPECT_EQ(counts.size(), 2u);  // both outcomes occur
}

TEST(Result, HistogramAndDistribution) {
  Result result;
  result.declare_key("k", {0, 1});
  result.add_records("k", from_string("10"), 3);
  result.add_record("k", from_string("01"));
  EXPECT_EQ(result.repetitions(), 4u);
  EXPECT_EQ(result.histogram("k").at(from_string("10")), 3u);
  EXPECT_DOUBLE_EQ(result.distribution("k").at(from_string("01")), 0.25);
  EXPECT_THROW((void)result.values("missing"), ValueError);
  EXPECT_THROW(result.declare_key("k", {0}), ValueError);
}

}  // namespace
}  // namespace bgls
