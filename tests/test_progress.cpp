/// \file test_progress.cpp
/// Streaming partial histograms (core/progress.h): the canonical
/// update sequence is deterministic for a fixed seed — positions and
/// contents identical across thread counts — every update is a prefix
/// of the next, and the final update is exactly the run's histogram.

#include <gtest/gtest.h>

#include <vector>

#include "api/session.h"
#include "engine_test_helpers.h"

namespace bgls {
namespace {

using testing::batched_workload;
using testing::trajectory_workload;

/// Collects updates synchronously (the sink is invoked serially).
struct Recorder {
  std::vector<ProgressUpdate> updates;

  ProgressFn sink() {
    return [this](const ProgressUpdate& update) { updates.push_back(update); };
  }
};

/// a <= b pointwise (every count of `a` present in `b` with >= count).
bool is_prefix_of(const std::map<std::string, Counts>& a,
                  const std::map<std::string, Counts>& b) {
  for (const auto& [key, counts] : a) {
    const auto key_it = b.find(key);
    if (key_it == b.end()) return false;
    for (const auto& [bits, count] : counts) {
      const auto bit_it = key_it->second.find(bits);
      if (bit_it == key_it->second.end() || bit_it->second < count) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t total_counts(const ProgressUpdate& update,
                           const std::string& key) {
  std::uint64_t total = 0;
  const auto it = update.histograms.find(key);
  if (it == update.histograms.end()) return 0;
  for (const auto& [bits, count] : it->second) total += count;
  return total;
}

RunRequest streaming_request(Circuit circuit, std::uint64_t reps,
                             std::uint64_t every, int threads,
                             Recorder& recorder) {
  return RunRequest()
      .with_circuit(std::move(circuit))
      .with_repetitions(reps)
      .with_seed(17)
      .with_threads(threads)
      .with_progress(every, recorder.sink());
}

void check_stream_invariants(const std::vector<ProgressUpdate>& updates,
                             const RunResult& result, std::uint64_t reps) {
  ASSERT_FALSE(updates.empty());
  // Monotone prefixes, final flag only on the last update.
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].total_repetitions, reps);
    EXPECT_EQ(updates[i].final, i + 1 == updates.size());
    EXPECT_EQ(total_counts(updates[i], "m"),
              updates[i].completed_repetitions);
    if (i > 0) {
      EXPECT_LT(updates[i - 1].completed_repetitions,
                updates[i].completed_repetitions);
      EXPECT_TRUE(is_prefix_of(updates[i - 1].histograms,
                               updates[i].histograms));
    }
  }
  // The final update IS the run's histogram.
  const ProgressUpdate& last = updates.back();
  EXPECT_EQ(last.completed_repetitions, reps);
  EXPECT_EQ(last.histograms.at("m"), result.measurements.histogram("m"));
}

TEST(Progress, SerialTrajectoryStreamsEveryK) {
  Recorder recorder;
  Session session;
  const std::uint64_t reps = 100;
  const RunResult result = session.run(streaming_request(
      trajectory_workload(3, 0.05), reps, 10, /*threads=*/1, recorder));
  // Updates at exactly 10, 20, ..., 100 of the canonical prefix,
  // whatever the shard split.
  ASSERT_EQ(recorder.updates.size(), 10u);
  for (std::size_t i = 0; i < recorder.updates.size(); ++i) {
    EXPECT_EQ(recorder.updates[i].completed_repetitions, 10 * (i + 1));
  }
  check_stream_invariants(recorder.updates, result, reps);
}

TEST(Progress, EngineTrajectorySequenceIdenticalAcrossThreadCounts) {
  const std::uint64_t reps = 400;
  std::vector<std::vector<ProgressUpdate>> sequences;
  RunResult reference;
  for (const int threads : {1, 2, 8}) {
    Recorder recorder;
    Session session;
    reference = session.run(streaming_request(trajectory_workload(3, 0.05),
                                              reps, 25, threads, recorder));
    check_stream_invariants(recorder.updates, reference, reps);
    sequences.push_back(std::move(recorder.updates));
  }
  // Determinism: not just the final histogram — every update of the
  // stream matches position for position across thread counts.
  ASSERT_EQ(sequences[0].size(), reps / 25);
  for (std::size_t t = 1; t < sequences.size(); ++t) {
    ASSERT_EQ(sequences[0].size(), sequences[t].size());
    for (std::size_t i = 0; i < sequences[0].size(); ++i) {
      EXPECT_EQ(sequences[0][i].completed_repetitions,
                sequences[t][i].completed_repetitions);
      EXPECT_EQ(sequences[0][i].histograms, sequences[t][i].histograms);
    }
  }
}

TEST(Progress, StreamingIsObservationOnly) {
  // The same request without a sink yields bit-identical records.
  const std::uint64_t reps = 400;
  Recorder recorder;
  Session session;
  const RunResult streamed = session.run(streaming_request(
      trajectory_workload(3, 0.05), reps, 25, /*threads=*/2, recorder));
  Recorder unused;
  RunRequest plain = streaming_request(trajectory_workload(3, 0.05), reps, 25,
                                       /*threads=*/2, unused);
  plain.progress = {};
  const RunResult bare = session.run(plain);
  EXPECT_EQ(streamed.measurements.histogram("m"),
            bare.measurements.histogram("m"));
}

TEST(Progress, BatchedPathEmitsShardPrefixes) {
  // Dictionary batching completes all repetitions at the final gate:
  // on more than one thread too, the stream degenerates to the one
  // final update carrying the exact histogram.
  Recorder recorder;
  Session session;
  const std::uint64_t reps = 1000;
  RunRequest request = streaming_request(batched_workload(4, 11, 10, 0.8),
                                         reps, 100, /*threads=*/2, recorder);
  request.with_backend(BackendId::kStateVector);
  const RunResult result = session.run(request);
  EXPECT_TRUE(result.stats.used_sample_parallelization);
  check_stream_invariants(recorder.updates, result, reps);
  EXPECT_EQ(recorder.updates.size(), 1u);
}

TEST(Progress, SerialBatchedEmitsSingleFinalUpdate) {
  Recorder recorder;
  Session session;
  const RunResult result = session.run(
      streaming_request(batched_workload(4, 11, 10, 0.8), 500, 50,
                        /*threads=*/1, recorder)
          .with_backend(BackendId::kStateVector));
  ASSERT_EQ(recorder.updates.size(), 1u);
  check_stream_invariants(recorder.updates, result, 500);
}

TEST(Progress, ZeroRepetitionsEmitsEmptyFinalUpdate) {
  Recorder recorder;
  Session session;
  const RunResult result = session.run(streaming_request(
      trajectory_workload(3, 0.05), 0, 10, /*threads=*/1, recorder));
  ASSERT_EQ(recorder.updates.size(), 1u);
  EXPECT_TRUE(recorder.updates[0].final);
  EXPECT_EQ(recorder.updates[0].completed_repetitions, 0u);
  EXPECT_EQ(result.measurements.repetitions(), 0u);
}

TEST(Progress, CustomHookFallbackStreamsShardCompletions) {
  // Custom hooks resample on the calling thread; the dictionary path
  // still streams its one final update with the exact histogram.
  const Circuit circuit = batched_workload(3, 5, 8, 0.9);
  Recorder recorder;
  SimulatorOptions options;
  options.num_threads = 2;
  options.progress.every = 50;
  options.progress.sink = recorder.sink();
  Simulator<StateVectorState> sim(
      StateVectorState(3),
      [](const Operation& op, StateVectorState& state, Rng& rng) {
        apply_op(op, state, rng);
      },
      [](const StateVectorState& state, Bitstring b) {
        return compute_probability(state, b);
      },
      options);
  Rng rng(13);
  const Result result = sim.run(circuit, 300, rng);
  ASSERT_FALSE(recorder.updates.empty());
  EXPECT_TRUE(recorder.updates.back().final);
  EXPECT_EQ(recorder.updates.back().histograms.at("m"),
            result.histogram("m"));
}

TEST(ProgressCollector, NextCheckpointSchedule) {
  EXPECT_EQ(ProgressCollector::next_checkpoint(0, 100, 30), 30u);
  EXPECT_EQ(ProgressCollector::next_checkpoint(90, 100, 30), 100u);
  EXPECT_EQ(ProgressCollector::next_checkpoint(0, 10, 30), 10u);
  EXPECT_EQ(ProgressCollector::next_checkpoint(0, 0, 30), 0u);
  EXPECT_EQ(ProgressCollector::next_checkpoint(100, 100, 30), 100u);
}

}  // namespace
}  // namespace bgls
