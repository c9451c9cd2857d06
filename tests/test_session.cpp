// The runtime API (src/api/): BackendSelector heuristics, registry
// lookup and custom registration, the type-erased Backend triple, and —
// the central contract — Session runs being bit-identical to the
// corresponding direct templated Simulator runs for a
// fixed seed across all four backends.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/adapters.h"
#include "api/registry.h"
#include "api/selector.h"
#include "api/session.h"
#include "circuit/noise.h"
#include "circuit/random.h"
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

// --- Workloads that exercise each routing rule ---------------------------

/// Pure Clifford, terminal measurement → stabilizer.
Circuit clifford_workload(int n = 4) {
  Rng rng(17);
  return testing::with_terminal_measurement(random_clifford_circuit(n, 12, rng),
                                            n);
}

/// Clifford+T (dense, small) → statevector.
Circuit dense_workload(int n = 4) {
  Rng rng(23);
  return testing::with_terminal_measurement(
      random_clifford_t_circuit(n, 10, 4, rng), n);
}

/// Channel-bearing, small register → statevector trajectories.
Circuit channel_workload(int n = 3) {
  Circuit circuit{h(0), cnot(0, 1)};
  circuit.append(Operation(Gate::Channel(amplitude_damp(0.4)), {0}));
  circuit.append(h(1));
  if (n > 2) circuit.append(cnot(1, 2));
  return testing::with_terminal_measurement(std::move(circuit), n);
}

/// Wide 1D chain with a T gate (non-Clifford, low entangling) → MPS.
Circuit chain_workload(int n = 14) {
  Circuit circuit{h(0)};
  for (int q = 0; q + 1 < n; ++q) circuit.append(cnot(q, q + 1));
  circuit.append(t(n / 2));
  circuit.append(h(n - 1));
  return testing::with_terminal_measurement(std::move(circuit), n);
}

// --- Selector heuristics -------------------------------------------------

TEST(BackendSelector, PureCliffordRoutesToStabilizer) {
  const BackendSelector selector;
  EXPECT_EQ(selector.select(clifford_workload()).id, BackendId::kStabilizer);
}

TEST(BackendSelector, ChannelBearingSmallRegisterRoutesToTrajectories) {
  // The density matrix re-evolves its 4^n entries once per repetition
  // on a channel circuit, so even small registers go to statevector
  // trajectories (2^n per repetition).
  const BackendSelector selector;
  EXPECT_EQ(selector.select(channel_workload()).id, BackendId::kStateVector);
}

TEST(BackendSelector, ChannelBearingWideRegisterRoutesToTrajectories) {
  // 12 qubits: reps × 2^n trajectories beat reps × 4^n density-matrix
  // passes.
  Circuit circuit = ghz_circuit(12);
  circuit.append(Operation(Gate::Channel(depolarize(0.05)), {0}));
  circuit.append(measure({0, 1, 2}, "m"));
  const BackendSelector selector;
  EXPECT_EQ(selector.select(circuit).id, BackendId::kStateVector);
}

TEST(BackendSelector, Wide1dLowEntanglingRoutesToMps) {
  const BackendSelector selector;
  const auto selection = selector.select(chain_workload());
  EXPECT_EQ(selection.id, BackendId::kMps);
  EXPECT_FALSE(selection.reason.empty());
}

TEST(BackendSelector, DenseDefaultRoutesToStatevector) {
  EXPECT_EQ(BackendSelector().select(dense_workload()).id,
            BackendId::kStateVector);
}

TEST(BackendSelector, LongRangeEntanglementDisqualifiesMps) {
  // Same width as the MPS chain but with a long-range CX: profile loses
  // nearest_neighbor_1d and the dense default wins.
  Circuit circuit = chain_workload();
  circuit.append(cnot(0, 13));
  circuit = testing::with_terminal_measurement(std::move(circuit), 14, "m2");
  const CircuitProfile profile = profile_circuit(circuit);
  EXPECT_FALSE(profile.nearest_neighbor_1d);
  EXPECT_EQ(BackendSelector().select(profile).id, BackendId::kStateVector);
}

TEST(BackendSelector, ThreeQubitGatesDisqualifyMps) {
  Circuit circuit;
  circuit.append(h(0));
  for (int q = 0; q + 2 < 14; ++q) circuit.append(ccx(q, q + 1, q + 2));
  circuit.append(t(0));
  circuit = testing::with_terminal_measurement(std::move(circuit), 14);
  EXPECT_EQ(BackendSelector().select(circuit).id, BackendId::kStateVector);
}

TEST(BackendSelector, TooWideForDenseAmplitudesFallsBackToMps) {
  // 34 qubits with a T gate: stabilizer is out (non-Clifford), dense
  // amplitudes are out (> 30), so MPS is the only shipped option.
  Circuit circuit{h(0)};
  for (int q = 0; q + 1 < 34; ++q) circuit.append(cnot(q, q + 1));
  circuit.append(t(3));
  circuit = testing::with_terminal_measurement(std::move(circuit), 34);
  EXPECT_EQ(BackendSelector().select(circuit).id, BackendId::kMps);
}

TEST(BackendSelector, ProfileExtractsRoutingFeatures) {
  Circuit circuit = channel_workload();
  const CircuitProfile profile = profile_circuit(circuit);
  EXPECT_EQ(profile.num_qubits, 3);
  EXPECT_TRUE(profile.has_channels);
  EXPECT_FALSE(profile.clifford_only);
  EXPECT_GE(profile.entangling_gates, 2u);

  const CircuitProfile clifford = profile_circuit(clifford_workload());
  EXPECT_TRUE(clifford.clifford_only);
  EXPECT_FALSE(clifford.has_channels);
}

// --- Explicit override knob ----------------------------------------------

TEST(Session, ExplicitBackendOverridesSelection) {
  // A circuit every backend can run (Clifford + T is near-Clifford
  // eligible, 2-qubit gates only, 4 qubits).
  const Circuit circuit = dense_workload();
  Session session;
  for (const BackendId id :
       {BackendId::kStateVector, BackendId::kDensityMatrix,
        BackendId::kStabilizer, BackendId::kMps}) {
    const RunResult result = session.run(RunRequest()
                                             .with_circuit(circuit)
                                             .with_repetitions(50)
                                             .with_seed(5)
                                             .with_backend(id));
    EXPECT_EQ(result.backend_id, id);
    EXPECT_TRUE(result.selection_reason.empty());
    EXPECT_EQ(result.measurements.repetitions(), 50u);
  }
}

// --- The acceptance criterion: bit-identical to direct templated runs ----

template <typename State>
Counts direct_histogram(const Circuit& circuit, State initial,
                        std::uint64_t reps, std::uint64_t seed,
                        SimulatorOptions options = {}) {
  Simulator<State> simulator{std::move(initial), options};
  return simulator.run(circuit, reps, seed).histogram("m");
}

TEST(SessionDifferential, AutoStatevectorMatchesDirectRunBitForBit) {
  const Circuit circuit = dense_workload();
  Session session;
  const RunResult result = session.run(circuit, 20000, 42);
  EXPECT_EQ(result.backend_id, BackendId::kStateVector);
  EXPECT_EQ(result.measurements.histogram("m"),
            direct_histogram(circuit, StateVectorState(4), 20000, 42));
}

TEST(SessionDifferential, AutoStabilizerMatchesDirectRunBitForBit) {
  const Circuit circuit = clifford_workload();
  Session session;
  const RunResult result = session.run(circuit, 20000, 43);
  EXPECT_EQ(result.backend_id, BackendId::kStabilizer);
  EXPECT_EQ(result.measurements.histogram("m"),
            direct_histogram(circuit, CHState(4), 20000, 43));
}

TEST(SessionDifferential, AutoDensityMatrixMatchesDirectRunBitForBit) {
  // A cost model whose density-matrix coefficient is 2^4 times smaller
  // routes the 3-qubit channel circuit to the density matrix
  // (4^3 / 2^4 < 2^3).
  const Circuit circuit = channel_workload();
  SessionOptions options;
  service::CostCoefficients cheap_dm;
  cheap_dm.dm_seconds_per_element = cheap_dm.sv_seconds_per_element / 16;
  options.cost_model = service::CostModel(cheap_dm);
  Session session(options);
  const RunResult result = session.run(circuit, 5000, 44);
  EXPECT_EQ(result.backend_id, BackendId::kDensityMatrix);
  EXPECT_EQ(result.measurements.histogram("m"),
            direct_histogram(circuit, DensityMatrixState(3), 5000, 44));
}

TEST(SessionDifferential, AutoMpsMatchesDirectRunBitForBit) {
  const Circuit circuit = chain_workload();
  Session session;
  const RunResult result = session.run(circuit, 20000, 45);
  EXPECT_EQ(result.backend_id, BackendId::kMps);
  EXPECT_EQ(result.measurements.histogram("m"),
            direct_histogram(circuit, MPSState(14), 20000, 45));
}

TEST(SessionDifferential, SixtyFourQubitMpsMatchesDirectRun) {
  // A GHZ on every qubit a Bitstring holds: one wider than CH form, so
  // kAuto routes it to the MPS, which the backend must then accept.
  Circuit circuit{h(0)};
  for (int q = 0; q + 1 < 64; ++q) circuit.append(cnot(q, q + 1));
  circuit = testing::with_terminal_measurement(std::move(circuit), 64);
  const Counts direct = direct_histogram(circuit, MPSState(64), 200, 46);
  Session session;
  const RunResult routed = session.run(circuit, 200, 46);
  EXPECT_EQ(routed.backend_id, BackendId::kMps);
  EXPECT_EQ(routed.measurements.histogram("m"), direct);
  const RunResult named = session.run(RunRequest()
                                          .with_circuit(circuit)
                                          .with_repetitions(200)
                                          .with_seed(46)
                                          .with_backend("mps"));
  EXPECT_EQ(named.measurements.histogram("m"), direct);
}

TEST(SessionDifferential, EnginePathMatchesDirectEngineRuns) {
  // Multi-threaded requests fan their shards out on both sides;
  // histograms must still match bit for bit.
  SimulatorOptions options;
  options.num_threads = 4;
  Session session;
  const auto request_for = [](const Circuit& circuit) {
    return RunRequest()
        .with_circuit(circuit)
        .with_repetitions(20000)
        .with_seed(77)
        .with_threads(4);
  };

  const Circuit dense = dense_workload();
  EXPECT_EQ(session.run(request_for(dense)).measurements.histogram("m"),
            direct_histogram(dense, StateVectorState(4), 20000, 77, options));

  const Circuit clifford = clifford_workload();
  EXPECT_EQ(session.run(request_for(clifford)).measurements.histogram("m"),
            direct_histogram(clifford, CHState(4), 20000, 77, options));

  const Circuit noisy = channel_workload();
  EXPECT_EQ(session.run(request_for(noisy)).measurements.histogram("m"),
            direct_histogram(noisy, StateVectorState(3), 20000, 77,
                             options));
}

TEST(SessionDifferential, SampledDistributionsMatchGroundTruth) {
  // Beyond self-consistency: the auto-routed histograms agree with the
  // brute-force ideal distribution.
  const Circuit circuit = dense_workload();
  Session session;
  const RunResult result = session.run(circuit, 30000, 3);
  EXPECT_LT(total_variation_distance(result.measurements.distribution("m"),
                                     testing::ideal_distribution(circuit, 4)),
            0.03);
}

TEST(SessionDifferential, OptimizeFlagMatchesDirectRunOnOptimizedCircuit) {
  const Circuit circuit = dense_workload();
  const Circuit optimized = optimize_for_bgls(circuit);
  Session session;
  const RunResult result = session.run(RunRequest()
                                           .with_circuit(circuit)
                                           .with_repetitions(10000)
                                           .with_seed(9)
                                           .with_optimization());
  // Fused matrix gates are not recognizably Clifford, so optimization
  // happens before selection.
  EXPECT_EQ(result.measurements.histogram("m"),
            direct_histogram(optimized, StateVectorState(4), 10000, 9));
}

TEST(SessionDifferential, OptimizationSkipsPureCliffordUnderAutoRouting) {
  // Fusion emits matrix gates only matrix backends can apply; a
  // pure-Clifford circuit must keep its polynomial stabilizer routing
  // (and its exact histograms) even when optimization is requested.
  const Circuit circuit = clifford_workload();
  Session session;
  const RunResult result = session.run(RunRequest()
                                           .with_circuit(circuit)
                                           .with_repetitions(5000)
                                           .with_seed(19)
                                           .with_optimization());
  EXPECT_EQ(result.backend_id, BackendId::kStabilizer);
  EXPECT_EQ(result.measurements.histogram("m"),
            direct_histogram(circuit, CHState(4), 5000, 19));
  // An explicitly forced matrix backend still gets the fused circuit.
  const RunResult forced = session.run(RunRequest()
                                           .with_circuit(circuit)
                                           .with_repetitions(5000)
                                           .with_seed(19)
                                           .with_backend(BackendId::kStateVector)
                                           .with_optimization());
  EXPECT_EQ(forced.measurements.histogram("m"),
            direct_histogram(optimize_for_bgls(circuit), StateVectorState(4),
                             5000, 19));
  // Explicitly picking the stabilizer backend (by id or by name) with
  // optimization on must run the original circuit, not throw on the
  // fused matrix gates — the hint never rejects a runnable circuit.
  for (const auto& request :
       {RunRequest().with_backend(BackendId::kStabilizer),
        RunRequest().with_backend(std::string("stabilizer")),
        RunRequest().with_backend(std::string("ch"))}) {
    RunRequest stab = request;
    const RunResult r = session.run(stab.with_circuit(circuit)
                                        .with_repetitions(500)
                                        .with_seed(19)
                                        .with_optimization());
    EXPECT_EQ(r.backend_name, "stabilizer");
    EXPECT_EQ(r.measurements.histogram("m"),
              direct_histogram(circuit, CHState(4), 500, 19));
  }
  // And run_batch applies the identical guard (round-trips on the
  // stabilizer path instead of demoting or throwing).
  const std::vector<Circuit> batch{circuit};
  const std::vector<RunResult> batched = session.run_batch(
      batch,
      RunRequest().with_repetitions(500).with_seed(23).with_optimization());
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0].backend_id, BackendId::kStabilizer);
}

TEST(Session, RunBatchHandlesMixedWidths) {
  // Circuits of different widths on one backend each run on a state of
  // their own width.
  Rng rng(91);
  const Circuit wide = testing::with_terminal_measurement(
      random_clifford_circuit(5, 8, rng), 5);
  const Circuit narrow = testing::with_terminal_measurement(
      random_clifford_circuit(3, 8, rng), 3);
  Session session;
  const std::vector<Circuit> circuits{wide, narrow};
  const std::vector<RunResult> results = session.run_batch(
      circuits, RunRequest().with_repetitions(2000).with_seed(37));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].backend_id, BackendId::kStabilizer);
  EXPECT_EQ(results[1].backend_id, BackendId::kStabilizer);
  EXPECT_EQ(results[0].measurements.measured_qubits("m").size(), 5u);
  EXPECT_EQ(results[1].measurements.measured_qubits("m").size(), 3u);
  EXPECT_EQ(results[0].measurements.repetitions(), 2000u);
  EXPECT_EQ(results[1].measurements.repetitions(), 2000u);
}

// --- Zero repetitions: validate, don't silently succeed -----------------

TEST(Session, ZeroRepetitionsReturnsWellFormedEmptyResult) {
  const Circuit circuit = clifford_workload();
  Session session;
  const RunResult result = session.run(RunRequest()
                                           .with_circuit(circuit)
                                           .with_repetitions(0)
                                           .with_seed(1));
  // Routed and executed: backend resolved, keys declared, zero records.
  EXPECT_EQ(result.backend_id, BackendId::kStabilizer);
  ASSERT_EQ(result.measurements.keys().size(), 1u);
  EXPECT_EQ(result.measurements.keys().front(), "m");
  EXPECT_EQ(result.measurements.repetitions(), 0u);
  EXPECT_TRUE(result.measurements.histogram("m").empty());
  EXPECT_EQ(result.measurements.measured_qubits("m").size(), 4u);
}

TEST(Session, ZeroRepetitionsStillValidatesTheCircuit) {
  Session session;
  // No measurements: must throw, not return an empty result.
  EXPECT_THROW(
      (void)session.run(RunRequest()
                            .with_circuit(Circuit{h(0), cnot(0, 1)})
                            .with_repetitions(0)),
      ValueError);
  // Unresolved parameters: rejected by capability validation.
  Circuit symbolic{rx(Symbol{"theta"}, 0)};
  symbolic.append(measure({0}, "m"));
  EXPECT_THROW((void)session.run(RunRequest()
                                     .with_circuit(symbolic)
                                     .with_repetitions(0)),
               UnsupportedOperationError);
  // Unrunnable on the explicitly requested backend: channels never run
  // on the stabilizer representation, 0 repetitions or not.
  EXPECT_THROW(
      (void)session.run(RunRequest()
                            .with_circuit(channel_workload())
                            .with_repetitions(0)
                            .with_backend(BackendId::kStabilizer)),
      UnsupportedOperationError);
}

// --- Registry ------------------------------------------------------------

TEST(BackendRegistry, GlobalRegistryServesTheFourAdapters) {
  BackendRegistry& registry = BackendRegistry::global();
  const auto names = registry.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(registry.find("sv"), registry.find(BackendId::kStateVector));
  EXPECT_EQ(registry.find("dm"), registry.find(BackendId::kDensityMatrix));
  EXPECT_EQ(registry.find("ch"), registry.find(BackendId::kStabilizer));
  EXPECT_EQ(registry.find("MPS"), registry.find(BackendId::kMps));  // ci
  EXPECT_EQ(registry.find("no-such-backend"), nullptr);
  EXPECT_THROW((void)registry.require("no-such-backend"), ValueError);
}

/// A user backend: the statevector adapter under a custom name.
class CustomSvBackend final : public StateVectorBackend {
 public:
  [[nodiscard]] std::string name() const override { return "custom-sv"; }
  [[nodiscard]] BackendId id() const override { return BackendId::kCustom; }
};

TEST(Session, CustomBackendIdMustBeAddressedByName) {
  // Several user backends may share kCustom; requesting the id (rather
  // than a registered name) is ambiguous and rejected.
  Session session;
  EXPECT_THROW((void)session.run(RunRequest()
                                     .with_circuit(dense_workload())
                                     .with_backend(BackendId::kCustom)),
               ValueError);
}

TEST(BackendRegistry, CustomBackendsRegisterAndRouteByName) {
  BackendRegistry registry;
  registry.register_backend(make_statevector_backend(), {"sv"});
  registry.register_backend(make_densitymatrix_backend());
  registry.register_backend(make_stabilizer_backend());
  registry.register_backend(make_mps_backend());
  registry.register_backend(std::make_shared<CustomSvBackend>(), {"mine"});
  EXPECT_THROW(
      registry.register_backend(std::make_shared<CustomSvBackend>()),
      ValueError);  // duplicate name

  SessionOptions options;
  options.registry = &registry;
  Session session(options);
  const Circuit circuit = dense_workload();
  const RunResult result = session.run(RunRequest()
                                           .with_circuit(circuit)
                                           .with_repetitions(5000)
                                           .with_seed(21)
                                           .with_backend("mine"));
  EXPECT_EQ(result.backend_name, "custom-sv");
  EXPECT_EQ(result.backend_id, BackendId::kCustom);
  // The custom adapter is still the statevector core underneath.
  EXPECT_EQ(result.measurements.histogram("m"),
            direct_histogram(circuit, StateVectorState(4), 5000, 21));
}

// --- The type-erased triple ----------------------------------------------

TEST(Backend, TypeErasedTripleRunsTheBglsLoopManually) {
  // Drive the (create_state, apply_op, compute_probability, collapse)
  // surface directly — the C++ analogue of handing the Python package a
  // custom triple — on a GHZ circuit, per backend.
  const Circuit ghz = ghz_circuit(3);
  const RunRequest request;
  for (const BackendId id :
       {BackendId::kStateVector, BackendId::kDensityMatrix,
        BackendId::kStabilizer, BackendId::kMps}) {
    const auto backend = BackendRegistry::global().require(id);
    AnyState state = backend->create_state(request, 3);
    Rng rng(5);
    for (const auto& op : ghz.all_operations()) {
      if (op.gate().is_measurement()) continue;
      backend->apply_op(op, state, rng);
    }
    EXPECT_NEAR(backend->compute_probability(state, 0b000), 0.5, 1e-9)
        << backend->name();
    EXPECT_NEAR(backend->compute_probability(state, 0b111), 0.5, 1e-9)
        << backend->name();
    // Collapse onto |111⟩ and re-check.
    const std::vector<Qubit> qubits{0, 1, 2};
    backend->collapse(state, qubits, 0b111);
    EXPECT_NEAR(backend->compute_probability(state, 0b111), 1.0, 1e-9)
        << backend->name();
  }
}

TEST(Backend, AnyStateCopiesAreIndependentAndTypeChecked) {
  AnyState state{StateVectorState(2)};
  AnyState copy = state;
  copy.get<StateVectorState>().apply(h(0));
  // The original is untouched by the copy's evolution.
  EXPECT_NEAR(state.get<StateVectorState>().probability(0), 1.0, 1e-12);
  EXPECT_NEAR(copy.get<StateVectorState>().probability(0), 0.5, 1e-12);
  EXPECT_TRUE(state.holds<StateVectorState>());
  EXPECT_FALSE(state.holds<CHState>());
  EXPECT_THROW((void)state.get<CHState>(), ValueError);
  EXPECT_THROW((void)AnyState{}.get<StateVectorState>(), ValueError);
}

// --- Async + batch -------------------------------------------------------

TEST(Session, RunAsyncMatchesSynchronousRun) {
  const Circuit circuit = dense_workload();
  Session session;
  RunRequest request = RunRequest()
                           .with_circuit(circuit)
                           .with_repetitions(10000)
                           .with_seed(31)
                           .with_threads(2);
  std::future<RunResult> future = session.run_async(request);
  const RunResult sync = session.run(request);
  const RunResult async = future.get();
  EXPECT_EQ(async.backend_id, sync.backend_id);
  EXPECT_EQ(async.measurements.histogram("m"),
            sync.measurements.histogram("m"));
}

TEST(Session, RunAsyncValidatesAtSubmission) {
  Session session;
  EXPECT_THROW((void)session.run_async(
                   RunRequest().with_circuit(Circuit{h(0)})),
               ValueError);
}

/// The batch contract at 1, 2 and 8 threads: run_batch(circuits,
/// request)[i] is run() of the request with circuit i and seed
/// mix_key(request.seed, i) — same backend, reason, histogram and
/// report counters. Returns the batch at 1 thread.
std::vector<RunResult> expect_batch_matches_runs(
    Session& session, const std::vector<Circuit>& circuits,
    RunRequest request) {
  std::vector<RunResult> first;
  for (const int threads : {1, 2, 8}) {
    request.with_threads(threads);
    std::vector<RunResult> batch = session.run_batch(circuits, request);
    EXPECT_EQ(batch.size(), circuits.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      RunRequest one = request;
      const RunResult run = session.run(
          one.with_circuit(circuits[i]).with_seed(mix_key(request.seed, i)));
      const RunResult& got = batch[i];
      SCOPED_TRACE("circuit " + std::to_string(i) + " at " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(got.backend_id, run.backend_id);
      EXPECT_EQ(got.selection_reason, run.selection_reason);
      EXPECT_EQ(got.measurements.histogram("m"),
                run.measurements.histogram("m"));
      EXPECT_EQ(got.stats.state_applications, run.stats.state_applications);
      EXPECT_EQ(got.stats.probability_evaluations,
                run.stats.probability_evaluations);
      EXPECT_EQ(got.stats.max_dictionary_size, run.stats.max_dictionary_size);
      EXPECT_EQ(got.stats.trajectories, run.stats.trajectories);
      EXPECT_EQ(got.stats.used_sample_parallelization,
                run.stats.used_sample_parallelization);
    }
    if (threads == 1) first = std::move(batch);
  }
  return first;
}

TEST(Session, RunBatchRoutesPerCircuitAndPreservesOrder) {
  // Mixed traffic: circuits 0 and 2 are pure Clifford (stabilizer),
  // circuit 1 is Clifford+T (statevector). Auto routing routes each on
  // its own; outputs come back in input order.
  Rng rng_a(61), rng_c(67);
  const std::vector<Circuit> circuits{
      testing::with_terminal_measurement(random_clifford_circuit(4, 10, rng_a),
                                         4),
      dense_workload(),
      testing::with_terminal_measurement(random_clifford_circuit(4, 14, rng_c),
                                         4)};
  Session session;
  const std::vector<RunResult> results = expect_batch_matches_runs(
      session, circuits, RunRequest().with_repetitions(4000).with_seed(71));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].backend_id, BackendId::kStabilizer);
  EXPECT_EQ(results[1].backend_id, BackendId::kStateVector);
  EXPECT_EQ(results[2].backend_id, BackendId::kStabilizer);
  EXPECT_FALSE(results[0].selection_reason.empty());

  // An explicit stabilizer request for GHZ beside Clifford+T: each
  // circuit gets the hooks it needs, so GHZ runs the exact dictionary
  // path (4 state applications) and Clifford+T the per-trajectory
  // near-Clifford hooks.
  const std::vector<Circuit> pair{
      testing::with_terminal_measurement(ghz_circuit(4), 4), dense_workload()};
  const std::vector<RunResult> stabilizer = expect_batch_matches_runs(
      session, pair,
      RunRequest().with_repetitions(2000).with_seed(5).with_backend(
          std::string("stabilizer")));
  ASSERT_EQ(stabilizer.size(), 2u);
  EXPECT_TRUE(stabilizer[0].stats.used_sample_parallelization);
  EXPECT_EQ(stabilizer[0].stats.state_applications, 4u);
  EXPECT_FALSE(stabilizer[1].stats.used_sample_parallelization);
  EXPECT_EQ(stabilizer[1].stats.trajectories, 2000u);
}

/// The statevector adapter, counting the runs that reach it.
class CountingSvBackend final : public StateVectorBackend {
 public:
  [[nodiscard]] std::string name() const override { return "counting-sv"; }
  [[nodiscard]] BackendId id() const override { return BackendId::kCustom; }
  [[nodiscard]] RunResult run(const RunRequest& request) const override {
    ++runs;
    return StateVectorBackend::run(request);
  }
  mutable std::atomic<int> runs{0};
};

TEST(Session, RunBatchValidatesBeforeSampling) {
  // A measurement-less circuit anywhere in a batch fails the whole
  // batch before any circuit reaches its backend, at 0 repetitions too.
  BackendRegistry registry;
  const auto counting = std::make_shared<CountingSvBackend>();
  registry.register_backend(counting);
  SessionOptions options;
  options.registry = &registry;
  Session session(options);
  const Circuit good = dense_workload();
  const Circuit unmeasured{h(0), cnot(0, 1)};
  for (const std::uint64_t reps : {0u, 100u}) {
    for (std::size_t bad = 0; bad < 3; ++bad) {
      std::vector<Circuit> circuits(3, good);
      circuits[bad] = unmeasured;
      EXPECT_THROW((void)session.run_batch(circuits,
                                           RunRequest()
                                               .with_repetitions(reps)
                                               .with_threads(2)
                                               .with_backend("counting-sv")),
                   ValueError)
          << "bad circuit #" << bad << " at " << reps << " reps";
    }
  }
  EXPECT_EQ(counting->runs.load(), 0);
}

TEST(Session, NearCliffordCircuitsRunOnExplicitStabilizerRequest) {
  // Clifford+T on the stabilizer backend takes the sum-over-Cliffords
  // hooks: per-trajectory sampling, one stochastic branch per rep.
  const Circuit circuit = dense_workload();
  Session session;
  const RunResult result = session.run(RunRequest()
                                           .with_circuit(circuit)
                                           .with_repetitions(2000)
                                           .with_seed(13)
                                           .with_backend(BackendId::kStabilizer));
  EXPECT_EQ(result.backend_id, BackendId::kStabilizer);
  EXPECT_EQ(result.measurements.repetitions(), 2000u);
  // The dictionary-batched path must be off: every repetition is its
  // own trajectory through a fresh Clifford branch.
  EXPECT_FALSE(result.stats.used_sample_parallelization);
  EXPECT_EQ(result.stats.trajectories, 2000u);
}

}  // namespace
}  // namespace bgls
