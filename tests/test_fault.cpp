/// \file test_fault.cpp
/// Deterministic fault injection (util/fault.h): arming semantics,
/// reproducible fire subsequences, the BGLS_FAULT_INJECT env spec, and
/// the "shard_run" abort hook feeding the checkpoint/resume recovery
/// path end to end.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "api/session.h"
#include "core/checkpoint.h"
#include "engine_test_helpers.h"
#include "util/fault.h"

namespace bgls {
namespace {

using testing::trajectory_workload;

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::disarm_all();
    ::unsetenv("BGLS_FAULT_INJECT");
  }
};

TEST_F(FaultTest, UnarmedPointNeverFires) {
  fault::disarm_all();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::should_fail("nonexistent_point"));
  }
  EXPECT_EQ(fault::fire_count("nonexistent_point"), 0u);
}

TEST_F(FaultTest, CertainProbabilityFiresEveryCall) {
  fault::arm("p", 1.0, 3);
  EXPECT_TRUE(fault::should_fail("p"));
  EXPECT_TRUE(fault::should_fail("p"));
  EXPECT_EQ(fault::fire_count("p"), 2u);
  // Other points stay inert.
  EXPECT_FALSE(fault::should_fail("q"));
}

TEST_F(FaultTest, MaxFiresBoundsTotalFires) {
  fault::arm("p", 1.0, 3, 2);
  EXPECT_TRUE(fault::should_fail("p"));
  EXPECT_TRUE(fault::should_fail("p"));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fault::should_fail("p"));
  EXPECT_EQ(fault::fire_count("p"), 2u);
}

TEST_F(FaultTest, FireSubsequenceIsReproducible) {
  const auto pattern = [] {
    std::vector<bool> fires;
    fires.reserve(200);
    for (int i = 0; i < 200; ++i) fires.push_back(fault::should_fail("p"));
    return fires;
  };
  fault::arm("p", 0.25, 99);
  const std::vector<bool> first = pattern();
  fault::arm("p", 0.25, 99);  // re-arm resets the point's Rng
  EXPECT_EQ(pattern(), first);
  // A different seed fires at a different subsequence.
  fault::arm("p", 0.25, 100);
  EXPECT_NE(pattern(), first);
}

TEST_F(FaultTest, ThrowIfFailsRaisesFaultInjectedError) {
  fault::arm("p", 1.0, 1, 1);
  EXPECT_THROW(fault::throw_if_fails("p"), FaultInjectedError);
  // The single allowed fire is spent.
  EXPECT_NO_THROW(fault::throw_if_fails("p"));
}

TEST_F(FaultTest, EnvSpecParsesAndMalformedEntriesAreIgnored) {
  ::setenv("BGLS_FAULT_INJECT",
           "alpha:1.0:7,garbage,beta:notanumber:3,:1.0:4,gamma:1.0:", 1);
  fault::reload_from_env();
  EXPECT_TRUE(fault::should_fail("alpha"));
  EXPECT_FALSE(fault::should_fail("garbage"));
  EXPECT_FALSE(fault::should_fail("beta"));
  EXPECT_FALSE(fault::should_fail("gamma"));

  // Clearing the variable disarms everything on the next reload.
  ::unsetenv("BGLS_FAULT_INJECT");
  fault::reload_from_env();
  EXPECT_FALSE(fault::should_fail("alpha"));
}

/// The crash-recovery core loop in miniature: a run aborted by an
/// injected mid-shard fault resumes from its last checkpoint and
/// finishes bit-identical to the uninterrupted run.
TEST_F(FaultTest, ShardRunAbortThenCheckpointResumeIsBitIdentical) {
  const auto request = [] {
    return RunRequest()
        .with_circuit(trajectory_workload(3, 0.05))
        .with_repetitions(300)
        .with_seed(17)
        .with_threads(2);
  };
  Session session;
  const RunResult baseline = session.run(request());

  std::mutex mutex;
  std::shared_ptr<const RunCheckpoint> latest;
  RunRequest doomed = request().with_checkpoint(
      25, [&](const RunCheckpoint& checkpoint) {
        const std::lock_guard<std::mutex> lock(mutex);
        latest = std::make_shared<const RunCheckpoint>(checkpoint);
      });
  // Fires once, somewhere mid-run (deterministically for this seed).
  fault::arm("shard_run", 0.02, 11, 1);
  EXPECT_THROW((void)session.run(std::move(doomed)), FaultInjectedError);
  fault::disarm_all();
  ASSERT_NE(latest, nullptr);

  const RunResult resumed = session.run(request().with_resume(latest));
  EXPECT_EQ(resumed.measurements.histogram("m"),
            baseline.measurements.histogram("m"));
  const RunCounters& resumed_counters = resumed.stats;
  const RunCounters& baseline_counters = baseline.stats;
  EXPECT_EQ(resumed_counters, baseline_counters);
}

}  // namespace
}  // namespace bgls
