// Tests for asynchronous runs (Session::run_async on the shared engine
// pools): futures resolve with the synchronous run's records and stats,
// concurrent submission from many threads is race-free, exceptions from
// a run's shards propagate through the future (not std::terminate), and
// EngineContext::shared keeps one pool per thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/adapters.h"
#include "api/registry.h"
#include "api/session.h"
#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/simulator.h"
#include "engine/context.h"
#include "engine_test_helpers.h"
#include "statevector/state.h"
#include "util/error.h"

namespace bgls {
namespace {

using testing::with_terminal_measurement;

constexpr std::uint64_t kSeed = 4321;

Circuit batched_workload(int n) {
  return testing::batched_workload(n, /*circuit_seed=*/23, /*num_moments=*/10,
                                   /*op_density=*/0.7);
}

Circuit trajectory_workload(int n) {
  return testing::trajectory_workload(n, /*depolarize_p=*/0.05);
}

Circuit feed_forward_workload() {
  Circuit circuit;
  circuit.append(h(0));
  circuit.append(measure({0}, "mid"));
  circuit.append(x(1).controlled_by_measurement("mid"));
  circuit.append(measure({1}, "out"));
  return circuit;
}

RunRequest sv_request(const Circuit& circuit, std::uint64_t reps,
                      int threads, std::uint64_t seed = kSeed) {
  return RunRequest()
      .with_circuit(circuit)
      .with_repetitions(reps)
      .with_seed(seed)
      .with_backend(BackendId::kStateVector)
      .with_threads(threads);
}

/// A statevector backend whose apply hook (or, with `in_probability`,
/// whose probability hook) always throws: every shard fails.
class ThrowingBackend final : public StateVectorBackend {
 public:
  explicit ThrowingBackend(bool in_probability)
      : in_probability_(in_probability) {}
  [[nodiscard]] std::string name() const override {
    return in_probability_ ? "throwing-probability" : "throwing-apply";
  }
  [[nodiscard]] BackendId id() const override { return BackendId::kCustom; }

 protected:
  [[nodiscard]] Simulator<StateVectorState> make_simulator(
      const RunRequest& request, const Circuit& circuit) const override {
    const bool in_probability = in_probability_;
    return Simulator<StateVectorState>{
        make_state(std::max(1, circuit.num_qubits())),
        [in_probability](const Operation& op, StateVectorState& state,
                         Rng& rng) {
          if (!in_probability) throw std::runtime_error("shard exploded");
          bgls::apply_op(op, state, rng);
        },
        [in_probability](const StateVectorState& state, Bitstring b) {
          if (in_probability) throw std::runtime_error("shard exploded");
          return bgls::compute_probability(state, b);
        },
        request.simulator_options()};
  }

 private:
  bool in_probability_;
};

/// A session whose registry also holds both throwing backends.
struct ThrowingSession {
  ThrowingSession() {
    registry.register_backend(make_statevector_backend(), {"sv"});
    registry.register_backend(std::make_shared<ThrowingBackend>(false));
    registry.register_backend(std::make_shared<ThrowingBackend>(true));
    SessionOptions options;
    options.registry = &registry;
    session = std::make_unique<Session>(options);
  }
  BackendRegistry registry;
  std::unique_ptr<Session> session;
};

TEST(BatchEngineAsync, SubmitResolvesWithSyncResultAndPerStreamStats) {
  const Circuit circuit = trajectory_workload(3);
  const std::uint64_t reps = 120;
  Session session;
  const RunResult sync = session.run(sv_request(circuit, reps, 2));
  const RunResult async =
      session.run_async(sv_request(circuit, reps, 2)).get();

  EXPECT_EQ(async.measurements.histogram("m"),
            sync.measurements.histogram("m"));
  EXPECT_EQ(async.measurements.values("m"), sync.measurements.values("m"));
  ASSERT_EQ(async.stats.per_shard.size(), sync.stats.per_shard.size());
  std::size_t trajectories = 0;
  for (std::size_t i = 0; i < async.stats.per_shard.size(); ++i) {
    const RunCounters& async_shard = async.stats.per_shard[i];
    const RunCounters& sync_shard = sync.stats.per_shard[i];
    EXPECT_EQ(async_shard.trajectories, sync_shard.trajectories);
    EXPECT_EQ(async_shard.state_applications, sync_shard.state_applications);
    EXPECT_EQ(async_shard.probability_evaluations,
              sync_shard.probability_evaluations);
    trajectories += async_shard.trajectories;
  }
  EXPECT_EQ(trajectories, reps);
  EXPECT_EQ(async.stats.trajectories, sync.stats.trajectories);
  EXPECT_EQ(async.stats.state_applications, sync.stats.state_applications);
}

TEST(BatchEngineAsync, BatchedPathPerStreamCarriesProbabilityEvaluations) {
  const Circuit circuit = batched_workload(4);
  Session session;
  const RunResult outcome =
      session.run_async(sv_request(circuit, 5000, 2)).get();
  EXPECT_TRUE(outcome.stats.used_sample_parallelization);
  // A dictionary run is one shard over one shared evolution, on one
  // thread whatever num_threads says.
  ASSERT_EQ(outcome.stats.per_shard.size(), 1u);
  EXPECT_EQ(outcome.stats.threads_used, 1u);
  EXPECT_EQ(outcome.stats.trajectories, 1u);
  std::size_t evaluations = 0;
  for (const RunCounters& shard : outcome.stats.per_shard) {
    evaluations += shard.probability_evaluations;
  }
  EXPECT_EQ(evaluations, outcome.stats.probability_evaluations);
  EXPECT_GT(evaluations, 0u);
}

TEST(BatchEngineAsync, RunAsyncMatchesSyncRun) {
  const Circuit circuit = batched_workload(4);
  Session session;
  for (const int threads : {1, 2, 8}) {
    const Counts sync =
        session.run(sv_request(circuit, 3000, threads)).measurements.histogram(
            "m");
    EXPECT_EQ(session.run_async(sv_request(circuit, 3000, threads))
                  .get()
                  .measurements.histogram("m"),
              sync)
        << threads << " threads";
  }
}

TEST(BatchEngineAsync, ManyJobsFromManyThreadsAreRaceFreeAndDeterministic) {
  const Circuit circuit = trajectory_workload(3);
  const std::uint64_t reps = 60;
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;

  // Reference histograms computed synchronously, one per distinct seed.
  Session session;
  std::vector<Counts> reference;
  for (int j = 0; j < kThreads * kJobsPerThread; ++j) {
    reference.push_back(session.run(sv_request(circuit, reps, 2, kSeed + j))
                            .measurements.histogram("m"));
  }

  std::vector<std::future<RunResult>> futures(
      static_cast<std::size_t>(kThreads * kJobsPerThread));
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const int job = t * kJobsPerThread + j;
        futures[static_cast<std::size_t>(job)] =
            session.run_async(sv_request(circuit, reps, 2, kSeed + job));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (int job = 0; job < kThreads * kJobsPerThread; ++job) {
    EXPECT_EQ(futures[static_cast<std::size_t>(job)]
                  .get()
                  .measurements.histogram("m"),
              reference[static_cast<std::size_t>(job)])
        << "job " << job << " diverged from its synchronous reference";
  }
}

TEST(BatchEngineAsync, AsyncWorksOnSingleThreadEngine) {
  const int n = 2;
  const Circuit circuit = with_terminal_measurement(ghz_circuit(n), n, "m");
  Session session;
  const Counts sync =
      session.run(sv_request(circuit, 300, 1)).measurements.histogram("m");
  EXPECT_EQ(session.run_async(sv_request(circuit, 300, 1))
                .get()
                .measurements.histogram("m"),
            sync);
}

TEST(BatchEngineAsync, JobOutlivesTheEngineThatSubmittedIt) {
  const Circuit circuit = trajectory_workload(3);
  Counts sync;
  std::future<RunResult> future;
  {
    Session session;
    sync = session.run(sv_request(circuit, 150, 2)).measurements.histogram("m");
    future = session.run_async(sv_request(circuit, 150, 2));
    // The session dies here; the job holds its own copy of it.
  }
  EXPECT_EQ(future.get().measurements.histogram("m"), sync);
}

TEST(BatchEngineAsync, TrajectoryShardExceptionPropagatesThroughFuture) {
  // Mid-circuit measurement + feed-forward forces the per-trajectory
  // path, so the throw happens inside pool shards.
  const Circuit circuit = feed_forward_workload();
  ThrowingSession throwing;
  Session& session = *throwing.session;
  auto future = session.run_async(
      sv_request(circuit, 50, 2).with_backend("throwing-apply"));
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool stays usable after a failed job.
  EXPECT_THROW(
      (void)session.run(sv_request(circuit, 50, 2).with_backend(
          "throwing-apply")),
      std::runtime_error);
  EXPECT_EQ(session.run(sv_request(circuit, 50, 2))
                .measurements.repetitions(),
            50u);
}

TEST(BatchEngineAsync, BatchedEvolutionExceptionPropagatesThroughFuture) {
  // A unitary terminal-measurement circuit takes the dictionary path;
  // the evolution throw must surface from the future.
  const Circuit circuit = with_terminal_measurement(ghz_circuit(2), 2, "m");
  ThrowingSession throwing;
  auto future = throwing.session->run_async(
      sv_request(circuit, 100, 2).with_backend("throwing-apply"));
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(BatchEngineAsync, SnapshotPathExceptionPropagatesThroughFuture) {
  // A throw from the dictionary path's resampling shards (the
  // probability hook) must surface from the future, and a run without
  // measurements must fail at submission.
  const Circuit circuit = batched_workload(4);
  ThrowingSession throwing;
  Session& session = *throwing.session;
  auto future = session.run_async(
      sv_request(circuit, 5000, 2).with_backend("throwing-probability"));
  EXPECT_THROW(future.get(), std::runtime_error);
  EXPECT_THROW((void)session.run_async(sv_request(ghz_circuit(2), 100, 2)),
               ValueError);
  EXPECT_THROW((void)session.run_async(sv_request(ghz_circuit(2), 0, 2)),
               ValueError);
  // The session stays usable afterwards.
  EXPECT_EQ(session.run(sv_request(circuit, 50, 2)).measurements.repetitions(),
            50u);
}

TEST(EngineContext, SharedCacheReturnsOnePoolPerThreadCount) {
  const std::shared_ptr<EngineContext> a = EngineContext::shared(3);
  const std::shared_ptr<EngineContext> b = EngineContext::shared(3);
  const std::shared_ptr<EngineContext> c = EngineContext::shared(5);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->num_threads(), 3);
  // num_threads - 1 workers; the synchronous caller is the +1.
  EXPECT_EQ(a->pool().size(), 2);
  EXPECT_EQ(EngineContext::shared(1)->pool().size(), 1);
}

}  // namespace
}  // namespace bgls
