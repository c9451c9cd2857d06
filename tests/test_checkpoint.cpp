/// \file test_checkpoint.cpp
/// Checkpoint/resume (core/checkpoint.h): the crash-safety invariant —
/// resuming from a checkpoint captured at ANY boundary and finishing
/// produces a final histogram and byte-stable report counters identical
/// to the uninterrupted run — pinned on the trajectory path at threads
/// {1, 2, 8} and across thread counts (1 -> 8, 8 -> 1, 2 -> 8), and
/// through the runtime Session on all four builtin backends; that a
/// snapshot always holds work and the dictionary path takes none; plus
/// the JSON round trip, version-1 rejection and mismatch rejection
/// (another seed, total, or path).

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/checkpoint.h"
#include "engine_test_helpers.h"
#include "util/json_parser.h"

namespace bgls {
namespace {

using testing::batched_workload;
using testing::trajectory_workload;
using testing::with_terminal_measurement;

/// Thread-safe collector for every checkpoint a run emits.
class Checkpoints {
 public:
  void operator()(const RunCheckpoint& checkpoint) {
    const std::lock_guard<std::mutex> lock(mutex_);
    all_.push_back(checkpoint);
  }

  std::function<void(const RunCheckpoint&)> sink() {
    return [this](const RunCheckpoint& c) { (*this)(c); };
  }

  [[nodiscard]] const std::vector<RunCheckpoint>& all() const { return all_; }

 private:
  std::mutex mutex_;
  std::vector<RunCheckpoint> all_;
};

void expect_same_run(const RunResult& resumed, const RunResult& baseline,
                     const std::string& context) {
  EXPECT_EQ(resumed.measurements.histogram("m"),
            baseline.measurements.histogram("m"))
      << context;
  const RunCounters& a = resumed.stats;
  const RunCounters& b = baseline.stats;
  EXPECT_EQ(a.state_applications, b.state_applications) << context;
  EXPECT_EQ(a.probability_evaluations, b.probability_evaluations) << context;
  EXPECT_EQ(a.max_dictionary_size, b.max_dictionary_size) << context;
  EXPECT_EQ(a.trajectories, b.trajectories) << context;
  EXPECT_EQ(a.monomial_moves, b.monomial_moves) << context;
  EXPECT_EQ(resumed.backend_name, baseline.backend_name) << context;
}

/// Runs `request` uninterrupted, then resumes from EVERY checkpoint it
/// emitted (including the complete final one) and asserts each resumed
/// run reproduces the baseline exactly.
void check_resume_at_every_boundary(const RunRequest& prototype,
                                    std::uint64_t every) {
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = prototype;
  instrumented.checkpoint.every = every;
  instrumented.checkpoint.sink = checkpoints.sink();
  const RunResult baseline = session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), 2u);

  for (std::size_t i = 0; i < checkpoints.all().size(); ++i) {
    RunRequest resume_request = prototype;
    resume_request.resume =
        std::make_shared<const RunCheckpoint>(checkpoints.all()[i]);
    const RunResult resumed = session.run(std::move(resume_request));
    expect_same_run(resumed, baseline,
                    "checkpoint " + std::to_string(i) + "/" +
                        std::to_string(checkpoints.all().size()));
  }
}

RunRequest trajectory_request(int threads) {
  return RunRequest()
      .with_circuit(trajectory_workload(3, 0.05))
      .with_repetitions(120)
      .with_seed(7)
      .with_threads(threads);
}

RunRequest batched_request(int threads) {
  return RunRequest()
      .with_circuit(batched_workload(4, 21, 8, 0.9))
      .with_repetitions(200)
      .with_seed(9)
      .with_threads(threads);
}

TEST(Checkpoint, SerialTrajectoryResumeAtEveryBoundary) {
  check_resume_at_every_boundary(trajectory_request(1), 20);
}

TEST(Checkpoint, EngineTrajectoryResumeAtEveryBoundaryTwoThreads) {
  check_resume_at_every_boundary(trajectory_request(2), 25);
}

TEST(Checkpoint, EngineTrajectoryResumeAtEveryBoundaryEightThreads) {
  check_resume_at_every_boundary(trajectory_request(8), 25);
}

TEST(Checkpoint, FreshTrajectoryRunSnapshotsHoldWork) {
  // A snapshot with nothing done would resume to exactly a rerun, so a
  // fresh run's first one waits until a shard has done some work.
  Session session;
  for (const int threads : {1, 4}) {
    Checkpoints checkpoints;
    RunRequest instrumented = trajectory_request(threads);
    instrumented.checkpoint.every = 3;
    instrumented.checkpoint.sink = checkpoints.sink();
    (void)session.run(std::move(instrumented));
    ASSERT_FALSE(checkpoints.all().empty()) << threads << " threads";
    for (const RunCheckpoint& checkpoint : checkpoints.all()) {
      EXPECT_GT(checkpoint.completed_repetitions(), 0u)
          << threads << " threads";
    }
  }
}

TEST(Checkpoint, DictionaryRunTakesNoSnapshot) {
  // The dictionary path completes every repetition at the final gate,
  // so a rerun reproduces any snapshot it could take.
  Session session;
  for (const int threads : {1, 4}) {
    Checkpoints checkpoints;
    RunRequest instrumented = batched_request(threads);
    instrumented.checkpoint.every = 50;
    instrumented.checkpoint.sink = checkpoints.sink();
    const RunResult result = session.run(std::move(instrumented));
    EXPECT_TRUE(result.stats.used_sample_parallelization);
    EXPECT_TRUE(checkpoints.all().empty()) << threads << " threads";
  }
}

TEST(Checkpoint, EngineResumeOnDifferentThreadCount) {
  // Checkpoints record per-shard cursors and the run key, not threads:
  // a snapshot produced on one thread count resumes on any other
  // bit-identical, the single-threaded run included.
  Session session;
  for (const auto& [from, to] :
       std::vector<std::pair<int, int>>{{1, 8}, {8, 1}, {2, 8}}) {
    const RunResult baseline = session.run(trajectory_request(from));
    Checkpoints checkpoints;
    RunRequest instrumented = trajectory_request(from);
    instrumented.checkpoint.every = 3;
    instrumented.checkpoint.sink = checkpoints.sink();
    (void)session.run(std::move(instrumented));
    ASSERT_GE(checkpoints.all().size(), 2u);
    const auto middle = std::make_shared<const RunCheckpoint>(
        checkpoints.all()[checkpoints.all().size() / 2]);
    const std::string context = "resume " + std::to_string(from) + "->" +
                                std::to_string(to) + " threads";
    expect_same_run(session.run(trajectory_request(to).with_resume(middle)),
                    baseline, context);
  }
}

TEST(Checkpoint, SessionResumesOnEveryBuiltinBackend) {
  // Pure-Clifford GHZ so the stabilizer backend qualifies; the
  // per-trajectory path on every backend via no-batch.
  const Circuit circuit = with_terminal_measurement(ghz_circuit(3), 3);
  for (const BackendId backend :
       {BackendId::kStateVector, BackendId::kDensityMatrix,
        BackendId::kStabilizer, BackendId::kMps}) {
    RunRequest prototype = RunRequest()
                               .with_circuit(circuit)
                               .with_repetitions(80)
                               .with_seed(5)
                               .with_backend(backend)
                               .with_sample_parallelization(false);
    check_resume_at_every_boundary(prototype, 16);
  }
}

TEST(Checkpoint, JsonRoundTripPreservesEverything) {
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = trajectory_request(2);
  instrumented.checkpoint.every = 30;
  instrumented.checkpoint.sink = checkpoints.sink();
  const RunResult baseline = session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), 2u);
  const RunCheckpoint& original =
      checkpoints.all()[checkpoints.all().size() / 2];

  const std::string json = original.to_json();
  const RunCheckpoint decoded = RunCheckpoint::parse(json);
  EXPECT_EQ(decoded.to_json(), json);  // byte-stable round trip
  EXPECT_EQ(decoded.total_repetitions, original.total_repetitions);
  EXPECT_EQ(decoded.completed_repetitions(),
            original.completed_repetitions());
  ASSERT_EQ(decoded.shards.size(), original.shards.size());
  EXPECT_EQ(decoded.run_key, original.run_key);
  for (std::size_t i = 0; i < decoded.shards.size(); ++i) {
    EXPECT_EQ(decoded.shards[i].total, original.shards[i].total);
    EXPECT_EQ(decoded.shards[i].completed, original.shards[i].completed);
    EXPECT_EQ(decoded.shards[i].histograms, original.shards[i].histograms);
  }

  // The decoded checkpoint is a working resume point.
  const RunResult resumed = session.run(trajectory_request(2).with_resume(
      std::make_shared<const RunCheckpoint>(decoded)));
  expect_same_run(resumed, baseline, "resume from JSON round trip");
}

TEST(Checkpoint, MalformedJsonIsRejected) {
  EXPECT_THROW((void)RunCheckpoint::parse("not json"), ParseError);
  // Parses as JSON but is not a checkpoint (missing 'shards').
  EXPECT_THROW((void)RunCheckpoint::parse("{\"version\":1}"), ValueError);
}

TEST(Checkpoint, VersionOneIsRejected) {
  // The version-1 format carried per-stream RNG state, which keyed
  // draws cannot continue: reading one is a ParseError, never a resume.
  const std::string v1 =
      "{\"version\":1,\"mode\":\"engine\",\"total\":120,\"stats\":{},"
      "\"shards\":[{\"total\":120,\"completed\":20,\"rng\":[1,2,3,4],"
      "\"histograms\":{\"m\":{\"0\":20}}}]}";
  EXPECT_THROW((void)RunCheckpoint::parse(v1), ParseError);

  // The same snapshot in the current format reads fine.
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = trajectory_request(1);
  instrumented.checkpoint.every = 20;
  instrumented.checkpoint.sink = checkpoints.sink();
  (void)session.run(std::move(instrumented));
  ASSERT_FALSE(checkpoints.all().empty());
  EXPECT_NO_THROW(
      (void)RunCheckpoint::parse(checkpoints.all().back().to_json()));
}

TEST(Checkpoint, MismatchedResumeIsRejected) {
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = trajectory_request(1);
  instrumented.checkpoint.every = 20;
  instrumented.checkpoint.sink = checkpoints.sink();
  (void)session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), 1u);
  const auto checkpoint =
      std::make_shared<const RunCheckpoint>(checkpoints.all().front());

  // Wrong total repetitions.
  EXPECT_THROW((void)session.run(trajectory_request(1)
                                     .with_repetitions(121)
                                     .with_resume(checkpoint)),
               ValueError);
  // Another seed: the checkpoint's run key belongs to another run.
  EXPECT_THROW((void)session.run(
                   trajectory_request(1).with_seed(8).with_resume(checkpoint)),
               ValueError);
  // Wrong path: a trajectory checkpoint cannot resume a dictionary run.
  EXPECT_THROW(
      (void)session.run(batched_request(1)
                            .with_repetitions(120)
                            .with_seed(7)
                            .with_resume(checkpoint)),
      ValueError);
}

}  // namespace
}  // namespace bgls
