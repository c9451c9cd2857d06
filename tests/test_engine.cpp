// Tests for the sampler's parallel shards: bit-exact determinism across
// thread counts on both sampler paths, statistical correctness, and the
// per-shard counters. Many-circuit batches (Session::run_batch) are
// tested in test_session.cpp.

#include "core/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "channels/channels.h"
#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "engine_test_helpers.h"
#include "statevector/state.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/stats.h"

namespace bgls {
namespace {

using testing::with_terminal_measurement;

constexpr std::uint64_t kSeed = 1234;

/// A unitary circuit eligible for the dictionary-batched path.
Circuit batched_workload(int n) {
  return testing::batched_workload(n, /*circuit_seed=*/17, /*num_moments=*/12,
                                   /*op_density=*/0.7);
}

/// A noisy circuit forced onto the per-trajectory path.
Circuit trajectory_workload(int n) {
  return testing::trajectory_workload(n, /*depolarize_p=*/0.05);
}

/// A circuit with mid-circuit measurement + classical feed-forward
/// (never batchable, exercises trajectory machinery end to end).
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

Counts engine_histogram(const Circuit& circuit, int n, int num_threads,
                        std::uint64_t reps, const std::string& key) {
  Simulator<StateVectorState> sim = make_simulator(n, num_threads);
  Rng rng(kSeed);
  return sim.run(circuit, reps, rng).histogram(key);
}

TEST(BatchEngine, BatchedPathBitIdenticalAcrossThreadCounts) {
  const int n = 4;
  const Circuit circuit = batched_workload(n);
  const Counts reference = engine_histogram(circuit, n, 1, 5000, "m");
  for (const int threads : {2, 8}) {
    EXPECT_EQ(engine_histogram(circuit, n, threads, 5000, "m"), reference)
        << "thread count " << threads << " changed the batched histogram";
  }
}

TEST(BatchEngine, TrajectoryPathBitIdenticalAcrossThreadCounts) {
  const int n = 3;
  const Circuit circuit = trajectory_workload(n);
  const Counts reference = engine_histogram(circuit, n, 1, 600, "m");
  for (const int threads : {2, 8}) {
    EXPECT_EQ(engine_histogram(circuit, n, threads, 600, "m"), reference)
        << "thread count " << threads << " changed the trajectory histogram";
  }
}

TEST(BatchEngine, FeedForwardBitIdenticalAcrossThreadCounts) {
  const Circuit circuit = feed_forward_workload();
  const Counts reference = engine_histogram(circuit, 2, 1, 400, "out");
  for (const int threads : {2, 8}) {
    EXPECT_EQ(engine_histogram(circuit, 2, threads, 400, "out"), reference);
  }
}

TEST(BatchEngine, SampleBitIdenticalAcrossThreadCounts) {
  const int n = 4;
  const Circuit circuit = batched_workload(n);
  Counts reference;
  for (const int threads : {1, 2, 8}) {
    Simulator<StateVectorState> sim = make_simulator(n, threads);
    Rng rng(kSeed);
    const Counts counts = sim.sample(circuit, 3000, rng);
    std::uint64_t total = 0;
    for (const auto& [bits, count] : counts) total += count;
    EXPECT_EQ(total, 3000u);
    if (threads == 1) {
      reference = counts;
    } else {
      EXPECT_EQ(counts, reference);
    }
  }
}

TEST(BatchEngine, RepetitionCountIsPreserved) {
  const int n = 3;
  const Circuit circuit = trajectory_workload(n);
  for (const std::uint64_t reps : {std::uint64_t{1}, std::uint64_t{7},
                                   std::uint64_t{64}, std::uint64_t{1001}}) {
    Simulator<StateVectorState> sim = make_simulator(n, 4);
    Rng rng(kSeed);
    EXPECT_EQ(sim.run(circuit, reps, rng).repetitions(), reps);
  }
}

TEST(BatchEngine, BatchedHistogramMatchesIdealDistribution) {
  const int n = 3;
  const Circuit circuit =
      with_terminal_measurement(ghz_circuit(n), n, "m");
  Simulator<StateVectorState> sim = make_simulator(n, 2);
  Rng rng(kSeed);
  const std::uint64_t reps = 20000;
  const Result result = sim.run(circuit, reps, rng);
  const Distribution empirical = result.distribution("m");
  const Distribution ideal = testing::ideal_marginal_distribution(
      circuit, n, result.measured_qubits("m"));
  EXPECT_GT(distribution_overlap(empirical, ideal), 0.98);
}

TEST(BatchEngine, TrajectoryHistogramMatchesSerialDistribution) {
  // Independent seeds of the sharded trajectory run, one on the calling
  // thread and one on four, sample the same distribution.
  const int n = 3;
  const Circuit circuit = trajectory_workload(n);
  const std::uint64_t reps = 20000;

  Simulator<StateVectorState> serial{StateVectorState(n)};
  Rng serial_rng(kSeed);
  const Distribution serial_dist =
      serial.run(circuit, reps, serial_rng).distribution("m");

  Simulator<StateVectorState> sim = make_simulator(n, 4);
  Rng engine_rng(kSeed + 1);
  const Distribution engine_dist =
      sim.run(circuit, reps, engine_rng).distribution("m");

  EXPECT_LT(total_variation_distance(serial_dist, engine_dist), 0.05);
}

TEST(BatchEngine, PerStreamStatsSumToTotals) {
  const int n = 3;
  const Circuit circuit = trajectory_workload(n);
  Simulator<StateVectorState> sim = make_simulator(n, 2);
  Rng rng(kSeed);
  sim.run(circuit, 100, rng);
  const RunStats& stats = sim.last_run_stats();
  EXPECT_EQ(stats.threads_used, 2u);
  ASSERT_EQ(stats.per_shard.size(), 16u);
  std::size_t trajectories = 0, applications = 0;
  for (const RunCounters& shard : stats.per_shard) {
    trajectories += shard.trajectories;
    applications += shard.state_applications;
  }
  EXPECT_EQ(trajectories, 100u);
  EXPECT_EQ(trajectories, stats.trajectories);
  EXPECT_EQ(applications, stats.state_applications);
}

TEST(BatchEngine, StreamCountCapsAtRepetitions) {
  const int n = 2;
  const Circuit circuit =
      with_terminal_measurement(ghz_circuit(n), n, "m");
  Simulator<StateVectorState> sim = make_simulator(n, 4);
  Rng rng(kSeed);
  sim.run(circuit, 3, rng);
  EXPECT_LE(sim.last_run_stats().per_shard.size(), 3u);
}

TEST(Simulator, DelegatesMultiRepRunsToEngine) {
  const int n = 3;
  const Circuit circuit = trajectory_workload(n);
  Simulator<StateVectorState> sim = make_simulator(n, 2);
  Rng rng(kSeed);
  sim.run(circuit, 50, rng);
  EXPECT_EQ(sim.last_run_stats().threads_used, 2u);
  EXPECT_FALSE(sim.last_run_stats().per_shard.empty());
}

TEST(Simulator, SingleRepetitionStaysOnSerialPath) {
  // One repetition is one shard, so it never leaves the calling thread
  // whatever num_threads says.
  const int n = 2;
  const Circuit circuit =
      with_terminal_measurement(ghz_circuit(n), n, "m");
  Simulator<StateVectorState> sim = make_simulator(n, 4);
  Rng rng(kSeed);
  sim.run(circuit, 1, rng);
  EXPECT_EQ(sim.last_run_stats().threads_used, 1u);
  EXPECT_EQ(sim.last_run_stats().per_shard.size(), 1u);
}

TEST(Simulator, EngineResultsIdenticalAcrossThreadCountsViaOptions) {
  // The SimulatorOptions::num_threads plumbing preserves the
  // determinism guarantee for any thread count (and 0 = auto).
  const int n = 4;
  const Circuit circuit = batched_workload(n);
  Counts reference;
  bool first = true;
  for (const int threads : {1, 2, 3, 8, 0}) {
    Simulator<StateVectorState> sim = make_simulator(n, threads);
    Rng rng(kSeed);
    const Counts histogram = sim.run(circuit, 2000, rng).histogram("m");
    if (first) {
      reference = histogram;
      first = false;
    } else {
      EXPECT_EQ(histogram, reference);
    }
  }
}

TEST(Result, AppendMergesRecordsAndChecksQubits) {
  Result a;
  a.declare_key("m", {0, 1});
  a.add_record("m", 2);
  Result b;
  b.declare_key("m", {0, 1});
  b.add_records("m", 3, 2);
  a.append(b);
  EXPECT_EQ(a.repetitions(), 3u);
  EXPECT_EQ(a.values("m"), (std::vector<Bitstring>{2, 3, 3}));

  Result mismatched;
  mismatched.declare_key("m", {1, 0});
  EXPECT_THROW(a.append(mismatched), ValueError);

  // Appending into an empty result adopts the keys.
  Result fresh;
  fresh.append(a);
  EXPECT_EQ(fresh.keys(), a.keys());
  EXPECT_EQ(fresh.values("m"), a.values("m"));

  // Self-append doubles the records (no aliasing UB).
  fresh.append(fresh);
  EXPECT_EQ(fresh.repetitions(), 6u);
  EXPECT_EQ(fresh.values("m"), (std::vector<Bitstring>{2, 3, 3, 2, 3, 3}));
}

}  // namespace
}  // namespace bgls
