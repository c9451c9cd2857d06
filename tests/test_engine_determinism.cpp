// Determinism regression suite for the sampler: for a fixed seed, the
// merged histogram must be bit-identical across every execution
// configuration — thread count (1, 2 and 8, no exceptions), sync vs
// async submission, seed vs Rng entry points, native vs custom hooks
// (on dense circuits, where both resample after every gate), and
// Session::run_batch. This pins the core invariant (every draw is
// keyed to its repetition or dictionary entry; threads only decide
// *where* a shard runs, never *what* it computes).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"
#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/simulator.h"
#include "engine_test_helpers.h"
#include "statevector/state.h"
#include "test_helpers.h"
#include "util/stats.h"

namespace bgls {
namespace {

constexpr std::uint64_t kSeed = 20230715;

using testing::histogram_hash;
using testing::with_terminal_measurement;

Circuit batched_workload(int n) {
  return testing::batched_workload(n, /*circuit_seed=*/41, /*num_moments=*/12,
                                   /*op_density=*/0.8);
}

Circuit trajectory_workload(int n) {
  return testing::trajectory_workload(n, /*depolarize_p=*/0.04);
}

Circuit feed_forward_workload() {
  Circuit circuit;
  circuit.append(h(0));
  circuit.append(measure({0}, "mid"));
  circuit.append(x(1).controlled_by_measurement("mid"));
  circuit.append(measure({1}, "out"));
  return circuit;
}

Simulator<StateVectorState> make_simulator(int n, int num_threads) {
  return testing::make_sv_simulator(n, num_threads);
}

struct Workload {
  const char* name;
  Circuit circuit;
  int qubits;
  std::uint64_t repetitions;
  std::string key;
};

/// Wide enough that the dictionary passes 1024 entries (a Hadamard
/// layer spreads it over 2^11 bitstrings), far more entries than a
/// trajectory run has shards.
Workload wide_batched() {
  const int n = 11;
  Circuit circuit;
  for (int q = 0; q < n; ++q) circuit.append(h(q));
  circuit.append(batched_workload(n));
  return {"wide batched", std::move(circuit), n, 20000, "m"};
}

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  all.push_back({"batched", batched_workload(4), 4, 4000, "m"});
  all.push_back(wide_batched());
  all.push_back({"trajectory", trajectory_workload(3), 3, 500, "m"});
  all.push_back({"feed-forward", feed_forward_workload(), 2, 400, "out"});
  return all;
}

TEST(EngineDeterminism, HashIdenticalAcrossThreadCountsSyncAndAsync) {
  Session session;
  for (const Workload& workload : workloads()) {
    std::uint64_t reference = 0;
    bool first = true;
    for (const int threads : {1, 2, 8}) {
      Simulator<StateVectorState> sim =
          make_simulator(workload.qubits, threads);
      const std::uint64_t sync_hash = histogram_hash(
          sim.run(workload.circuit, workload.repetitions, kSeed)
              .histogram(workload.key));
      if (workload.qubits == wide_batched().qubits) {
        ASSERT_GE(sim.last_run_stats().max_dictionary_size, 1024u);
      }
      const std::uint64_t async_hash = histogram_hash(
          session
              .run_async(RunRequest()
                             .with_circuit(workload.circuit)
                             .with_repetitions(workload.repetitions)
                             .with_seed(kSeed)
                             .with_backend(BackendId::kStateVector)
                             .with_threads(threads))
              .get()
              .measurements.histogram(workload.key));
      EXPECT_EQ(async_hash, sync_hash)
          << workload.name << ": async diverged from sync at " << threads
          << " threads";
      if (first) {
        reference = sync_hash;
        first = false;
      } else {
        EXPECT_EQ(sync_hash, reference)
            << workload.name << ": thread count " << threads
            << " changed the histogram";
      }
    }
  }
}

TEST(EngineDeterminism, SimulatorDelegationMatchesDirectEngineUse) {
  for (const Workload& workload : workloads()) {
    for (const int threads : {1, 2, 8}) {
      Simulator<StateVectorState> seeded =
          make_simulator(workload.qubits, threads);
      const std::uint64_t direct = histogram_hash(
          seeded.run(workload.circuit, workload.repetitions, kSeed)
              .histogram(workload.key));
      Simulator<StateVectorState> sim = make_simulator(workload.qubits, 1);
      Rng rng(kSeed);
      const std::uint64_t delegated = histogram_hash(
          sim.run(workload.circuit, workload.repetitions, rng)
              .histogram(workload.key));
      EXPECT_EQ(delegated, direct) << workload.name << " at " << threads;
    }
  }
}

/// A random circuit over dense gates only: H, Rx, Ry and an entangling
/// two-qubit unitary with no zero entry. No gate is diagonal or a
/// permutation, so native hooks resample after every gate too.
Circuit dense_workload(int n) {
  const Matrix entangler = Matrix::kron(Gate::H().unitary(),
                                        Gate::H().unitary()) *
                           Gate::CZ().unitary() *
                           Matrix::kron(Gate::Ry(0.4).unitary(),
                                        Gate::Rx(0.9).unitary());
  Rng circuit_rng(43);
  RandomCircuitOptions options;
  options.num_moments = 12;
  options.op_density = 0.8;
  options.gate_domain = {Gate::H(), Gate::Rx(0.3), Gate::Ry(1.1),
                         Gate::TwoQubitMatrix(entangler, "E")};
  return with_terminal_measurement(
      generate_random_circuit(n, options, circuit_rng), n, "m");
}

/// Custom hooks that compute exactly what the native ones do.
Simulator<StateVectorState> custom_hooks_simulator(int n,
                                                   SimulatorOptions options) {
  return Simulator<StateVectorState>{
      StateVectorState(n),
      [](const Operation& op, StateVectorState& state, Rng& rng) {
        apply_op(op, state, rng);
      },
      [](const StateVectorState& state, Bitstring b) {
        return compute_probability(state, b);
      },
      options};
}

TEST(EngineDeterminism, CustomHooksMatchNativeHooksThroughEngine) {
  // Custom hooks resample after every gate, as the paper's rule does;
  // native hooks move the bitstring through diagonal and permutation
  // gates instead (core/simulator.h). Draws are keyed, so on circuits
  // of dense gates only, where both resample after every gate, hooks
  // that compute the native values give the native histogram bit for
  // bit at every thread count. On circuits with such gates the two
  // rules draw differently, and the custom hooks' histogram is the same
  // at every thread count.
  // (Channel circuits are excluded: native and custom hooks
  // legitimately route channels differently.)
  Circuit dense_feed_forward;
  dense_feed_forward.append(h(0));
  dense_feed_forward.append(measure({0}, "mid"));
  dense_feed_forward.append(ry(1.2, 1).controlled_by_measurement("mid"));
  dense_feed_forward.append(measure({1}, "out"));
  std::vector<Workload> dense;
  dense.push_back({"dense batched", dense_workload(4), 4, 4000, "m"});
  dense.push_back({"dense wide", dense_workload(10), 10, 2000, "m"});
  dense.push_back(
      {"dense feed-forward", std::move(dense_feed_forward), 2, 400, "out"});
  std::vector<Workload> monomial;
  monomial.push_back({"batched", batched_workload(4), 4, 4000, "m"});
  monomial.push_back(wide_batched());
  monomial.push_back({"feed-forward", feed_forward_workload(), 2, 400, "out"});

  const auto custom_hash = [](const Workload& workload, int threads) {
    SimulatorOptions options;
    options.num_threads = threads;
    Simulator<StateVectorState> custom =
        custom_hooks_simulator(workload.qubits, options);
    EXPECT_FALSE(custom.hooks_are_native());
    return histogram_hash(
        custom.run(workload.circuit, workload.repetitions, kSeed)
            .histogram(workload.key));
  };
  for (const Workload& workload : dense) {
    for (const int threads : {1, 2, 8}) {
      SimulatorOptions options;
      options.num_threads = threads;
      Simulator<StateVectorState> native{StateVectorState(workload.qubits),
                                         options};
      ASSERT_TRUE(native.hooks_are_native());
      EXPECT_EQ(custom_hash(workload, threads),
                histogram_hash(
                    native.run(workload.circuit, workload.repetitions, kSeed)
                        .histogram(workload.key)))
          << workload.name << ": custom hooks changed the histogram at "
          << threads << " threads";
      EXPECT_EQ(native.last_run_stats().monomial_moves, 0u) << workload.name;
    }
  }
  for (const Workload& workload : monomial) {
    const std::uint64_t reference = custom_hash(workload, 1);
    for (const int threads : {2, 8}) {
      EXPECT_EQ(custom_hash(workload, threads), reference)
          << workload.name << ": custom hooks' histogram changed at "
          << threads << " threads";
    }
  }
}

TEST(EngineDeterminism, RunBatchIdenticalAcrossShardingLevelsAndThreads) {
  std::vector<Circuit> circuits;
  circuits.push_back(batched_workload(3));
  circuits.push_back(trajectory_workload(3));
  circuits.push_back(
      with_terminal_measurement(ghz_circuit(3), 3, "m"));

  Session session;
  std::vector<std::uint64_t> reference;
  bool first = true;
  for (const int threads : {1, 2, 8}) {
    const std::vector<RunResult> results = session.run_batch(
        circuits, RunRequest()
                      .with_repetitions(400)
                      .with_seed(kSeed)
                      .with_backend(BackendId::kStateVector)
                      .with_threads(threads));
    ASSERT_EQ(results.size(), circuits.size());
    std::vector<std::uint64_t> hashes;
    for (const RunResult& result : results) {
      EXPECT_EQ(result.measurements.repetitions(), 400u);
      hashes.push_back(histogram_hash(result.measurements.histogram("m")));
    }
    if (first) {
      reference = hashes;
      first = false;
    } else {
      EXPECT_EQ(hashes, reference)
          << "threads=" << threads << " changed a run_batch histogram";
    }
  }
}

TEST(EngineDeterminism, KeyedDictionaryMatchesExactDistribution) {
  // The keyed dictionary path against the exact statevector
  // distribution. For N samples over k outcomes, Weissman et al. (2003)
  // bound P(||p_hat - p||_1 >= eps) <= (2^k - 2) exp(-N eps^2 / 2); eps
  // is set so that bound is 1e-6, so a correct sampler fails this test
  // with probability at most 1e-6 per seed.
  const int n = 4;
  const Circuit circuit = batched_workload(n);
  const std::uint64_t reps = 40000;
  const double outcomes = 16.0;
  const double false_failure_rate = 1e-6;
  const double epsilon =
      std::sqrt(2.0 / static_cast<double>(reps) *
                std::log((std::pow(2.0, outcomes) - 2.0) / false_failure_rate));

  Simulator<StateVectorState> sim = make_simulator(n, 2);
  const Result result = sim.run(circuit, reps, kSeed);
  ASSERT_TRUE(sim.last_run_stats().used_sample_parallelization);
  const Distribution exact = testing::ideal_marginal_distribution(
      circuit, n, result.measured_qubits("m"));
  EXPECT_LT(total_variation_distance(result.distribution("m"), exact),
            epsilon / 2.0);
}

}  // namespace
}  // namespace bgls
