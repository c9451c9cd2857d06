/// \file checkpoint.h
/// Crash-safe checkpoint/resume for trajectory runs.
///
/// A RunCheckpoint captures everything a run needs to continue from a
/// shard boundary: the run key, each shard's completed-repetition
/// cursor and the cumulative per-key histograms of its completed
/// prefix, and the run's exact counters for that prefix. It carries no
/// RNG state: every draw of a run is keyed to the run key and the
/// repetition (see core/simulator.h), so the resumed run re-derives the
/// draws of the repetitions it still owes. Finishing a resumed run
/// therefore produces a final histogram — and the byte-stable report
/// counters — bit-identical to the uninterrupted run, on any thread
/// count.
///
/// Only the trajectory path checkpoints, and only once a shard has done
/// work: a snapshot with nothing done, or one of the dictionary path
/// (Sec. 3.2.3, which completes every repetition at its final gate),
/// would resume to exactly what a rerun produces. Production:
/// Simulator::run emits checkpoints through CheckpointOptions::sink
/// every `every` completed repetitions within a shard, plus at shard
/// completion. Consumption: SimulatorOptions::resume /
/// RunRequest::with_resume re-enter the same run mid-stream; a resume
/// under another seed (another run key), or of a dictionary run, fails
/// with ValueError. The service scheduler resumes retried jobs from
/// checkpoints, and the daemon journals them
/// (service/journal.h) so a killed process resumes its jobs on restart.
///
/// Thread count is not part of a checkpoint. Version 3 is the keyed
/// format sampled with exact monomial updates (core/simulator.h).
/// Earlier versions are rejected with ParseError, so their jobs rerun:
/// version 1 held per-stream RNG state, and a version-2 prefix was
/// sampled by the earlier rule (a resample after every gate), so a
/// resumed run would match neither build's uninterrupted run. Version 2
/// also covers the dictionary-path snapshots (`"mode":"dictionary"`)
/// that some builds wrote.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace bgls {

class JsonValue;
class JsonWriter;
class Result;

/// A run's exact counters: one seed gives the same values at every
/// thread count, resumed or not. RunStats (core/simulator.h) adds what
/// scheduling decides; per_shard and RunCheckpoint::stats hold these.
struct RunCounters {
  /// Gates applied across all trajectories: one per gate, also where
  /// the dictionary path applies a group of diagonal gates in one pass
  /// or never applies trailing ones (core/simulator.h). The kernels'
  /// apply counters count passes.
  std::size_t state_applications = 0;
  /// Number of compute_probability invocations, plus one per (Kraus
  /// branch, candidate) weight of each channel step, also where that
  /// weight is read from the candidates' amplitudes.
  std::size_t probability_evaluations = 0;
  /// Peak unique-bitstring dictionary size (≤ 2^n; Sec. 3.2.3).
  std::size_t max_dictionary_size = 0;
  /// Number of independent state evolutions (1 on the dictionary path).
  std::size_t trajectories = 0;
  /// Bitstring updates made by moving through a diagonal or
  /// permutation gate instead of resampling (core/simulator.h).
  std::size_t monomial_moves = 0;

  /// Sums the counters; the dictionary peak takes the max.
  RunCounters& operator+=(const RunCounters& other) {
    state_applications += other.state_applications;
    probability_evaluations += other.probability_evaluations;
    max_dictionary_size =
        std::max(max_dictionary_size, other.max_dictionary_size);
    trajectories += other.trajectories;
    monomial_moves += other.monomial_moves;
    return *this;
  }

  bool operator==(const RunCounters&) const = default;
};

/// One shard's progress: how many of its repetitions are done and what
/// they produced.
struct ShardCheckpoint {
  /// Repetitions assigned to this shard by the run's split.
  std::uint64_t total = 0;
  /// Repetitions completed (<= total; == total when the shard is done).
  std::uint64_t completed = 0;
  /// Cumulative per-measurement-key packed-outcome counts for the
  /// completed prefix.
  std::map<std::string, Counts> histograms;
};

/// A resumable snapshot of a whole run.
struct RunCheckpoint {
  /// The format version this build writes and reads.
  static constexpr std::uint64_t kVersion = 3;

  /// The key every draw of the run derives from (drawn from the
  /// caller's Rng, so fixed by the seed).
  std::uint64_t run_key = 0;
  /// Total repetitions of the run (must match the resuming request).
  std::uint64_t total_repetitions = 0;
  /// Per-shard progress in shard order.
  std::vector<ShardCheckpoint> shards;
  /// Run-level counters for the completed prefix (summed over shards).
  RunCounters stats;

  /// Repetitions completed across all shards.
  [[nodiscard]] std::uint64_t completed_repetitions() const;

  /// Compact single-line JSON (journal-record friendly).
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json(). Throws ValueError on a document that is not
  /// a checkpoint, ParseError on malformed fields or another version.
  [[nodiscard]] static RunCheckpoint from_json(const JsonValue& value);
  [[nodiscard]] static RunCheckpoint parse(std::string_view text);
};

/// Throws ValueError unless `checkpoint` matches the resuming run's
/// shape: same run key (same seed), same total repetitions, the same
/// split into `shard_sizes`, and per-shard completed <= total. A
/// mismatch means the checkpoint was produced by another request.
void validate_resume(const RunCheckpoint& checkpoint, std::uint64_t run_key,
                     const std::vector<std::uint64_t>& shard_sizes);

/// Writes per-key histograms as one JSON object, {key: {decimal packed
/// outcome: count}}: a checkpoint shard's histograms and a streamed
/// progress frame's (service/protocol.h).
void write_key_histograms(JsonWriter& json,
                          const std::map<std::string, Counts>& histograms);

/// Replays per-key histograms into a Result as add_records calls (keys
/// must already be declared). Record *order* differs from the original
/// run; histograms — the byte-stable report content — are identical.
void restore_result_histograms(Result& result,
                               const std::map<std::string, Counts>& histograms);

/// Checkpointing knobs carried by SimulatorOptions / RunRequest.
/// Observation-only on the emitting run: capture never changes what the
/// run samples.
struct CheckpointOptions {
  /// Capture cadence in repetitions within a shard (plus shard
  /// completion); 0 disables checkpointing.
  std::uint64_t every = 0;
  /// Destination for snapshots. Invoked serially under an internal
  /// lock, possibly from worker threads; must not call back into the
  /// emitting run.
  std::function<void(const RunCheckpoint&)> sink;

  [[nodiscard]] bool enabled() const { return every > 0 && sink != nullptr; }
};

/// Run-side merger: shards record their progress as they reach
/// checkpoint boundaries (concurrently, in any order) and the collector
/// emits a consistent whole-run snapshot per record. Seeded with a base
/// checkpoint (the split with nothing done, or the checkpoint a resumed
/// run continues from) so re-checkpointing after a resume stays
/// correct.
class CheckpointCollector {
 public:
  CheckpointCollector(CheckpointOptions options, RunCheckpoint base);

  /// Shard `shard` has completed `completed` of its repetitions (base
  /// prefix included); `cumulative` holds its prefix histograms and
  /// `delta` the counters for the work done *since this run began* (the
  /// base checkpoint's share is accounted separately).
  void record(std::size_t shard, std::uint64_t completed,
              const std::map<std::string, Counts>& cumulative,
              const RunCounters& delta);

 private:
  CheckpointOptions options_;
  std::mutex mutex_;
  RunCheckpoint current_;
  RunCounters base_stats_;
  std::vector<RunCounters> deltas_;
};

}  // namespace bgls
