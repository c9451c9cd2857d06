/// \file checkpoint.h
/// Crash-safe checkpoint/resume for sampling runs.
///
/// A RunCheckpoint captures everything a run needs to continue from a
/// shard boundary: the run key, each shard's completed-repetition
/// cursor and the cumulative per-key histograms of its completed
/// prefix, and the run-level instrumentation counters for that prefix.
/// It carries no RNG state: every draw of a run is keyed to the run key
/// and its position (repetition r, or dictionary entry and gate; see
/// core/simulator.h), so the resumed run re-derives the draws of the
/// repetitions it still owes. Finishing a resumed run therefore
/// produces a final histogram — and the byte-stable report counters —
/// bit-identical to the uninterrupted run, on any thread count.
///
/// Production: Simulator::run emits checkpoints through
/// CheckpointOptions::sink every `every` completed repetitions within a
/// shard, plus at shard completion. Consumption: SimulatorOptions::resume
/// / RunRequest::with_resume re-enter the same run mid-stream; a resume
/// under another seed (another run key) fails with ValueError. The
/// service scheduler uses checkpoints for preemption and retry, and the
/// daemon journals them (service/journal.h) so a killed process resumes
/// its jobs on restart.
///
/// Checkpoints are mode-tagged: the trajectory and dictionary paths
/// checkpoint differently, so a checkpoint only resumes the path that
/// produced it. Thread count is not part of a checkpoint. Version 2 is
/// the keyed format; version 1 (per-stream RNG state) is rejected with
/// ParseError.

#pragma once

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
class Result;
struct RunStats;

/// The subset of RunStats counters a resumed run must reproduce exactly
/// (the byte-stable report fields, core/report-visible). Wall times and
/// per-stream breakdowns are scheduling-dependent and excluded.
struct CheckpointStats {
  std::uint64_t state_applications = 0;
  std::uint64_t probability_evaluations = 0;
  std::uint64_t max_dictionary_size = 0;
  std::uint64_t trajectories = 0;
  std::uint64_t diagonal_updates_skipped = 0;
};

/// Extracts the checkpointed counters from a run's RunStats.
[[nodiscard]] CheckpointStats checkpoint_stats_from(const RunStats& stats);

/// Folds checkpointed prefix counters into a (post-resume) RunStats:
/// counters sum, the dictionary peak maxes.
void apply_checkpoint_stats(RunStats& stats, const CheckpointStats& prefix);

/// Sums `delta` into `into` (counters add, dictionary peak maxes).
void add_checkpoint_stats(CheckpointStats& into, const CheckpointStats& delta);

/// Which sampling path produced a checkpoint (see file comment).
enum class CheckpointMode {
  /// Per-trajectory path: shards advance independently and checkpoint
  /// every `every` repetitions.
  kTrajectory,
  /// Dictionary path (Sec. 3.2.3): one shard that completes atomically
  /// at the final gate.
  kDictionary,
};

[[nodiscard]] std::string_view checkpoint_mode_name(CheckpointMode mode);
[[nodiscard]] CheckpointMode parse_checkpoint_mode(std::string_view name);

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
  static constexpr std::uint64_t kVersion = 2;

  CheckpointMode mode = CheckpointMode::kTrajectory;
  /// The key every draw of the run derives from (drawn from the
  /// caller's Rng, so fixed by the seed).
  std::uint64_t run_key = 0;
  /// Total repetitions of the run (must match the resuming request).
  std::uint64_t total_repetitions = 0;
  /// Per-shard progress in shard order.
  std::vector<ShardCheckpoint> shards;
  /// Run-level counters for the completed prefix (summed over shards).
  CheckpointStats stats;

  /// Repetitions completed across all shards.
  [[nodiscard]] std::uint64_t completed_repetitions() const;
  /// True when every shard has finished.
  [[nodiscard]] bool complete() const;

  /// Compact single-line JSON (journal-record friendly).
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json(). Throws ValueError on a document that is not
  /// a checkpoint, ParseError on malformed fields or another version.
  [[nodiscard]] static RunCheckpoint from_json(const JsonValue& value);
  [[nodiscard]] static RunCheckpoint parse(std::string_view text);
};

/// Throws ValueError unless `checkpoint` matches the resuming run's
/// shape: same mode, same run key (same seed), same total repetitions,
/// same shard count, and per-shard completed <= total. A mismatch means
/// the checkpoint was produced by a different sampling path or request.
void validate_resume(const RunCheckpoint& checkpoint, CheckpointMode mode,
                     std::uint64_t total_repetitions, std::size_t shards,
                     std::uint64_t run_key);

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
/// checkpoint (the initial split, or the checkpoint a resumed run
/// continues from) so re-checkpointing after a resume stays correct.
class CheckpointCollector {
 public:
  CheckpointCollector(CheckpointOptions options, RunCheckpoint base);

  /// Shard `shard` has completed `completed` of its repetitions (base
  /// prefix included); `cumulative` holds its prefix histograms and
  /// `delta` the counters for the work done *since this run began* (the
  /// base checkpoint's share is accounted separately).
  void record(std::size_t shard, std::uint64_t completed,
              const std::map<std::string, Counts>& cumulative,
              const CheckpointStats& delta);

  /// Emits the current snapshot to the sink (used for the initial
  /// checkpoint of a fresh run).
  void emit();

 private:
  CheckpointOptions options_;
  std::mutex mutex_;
  RunCheckpoint current_;
  CheckpointStats base_stats_;
  std::vector<CheckpointStats> deltas_;
};

}  // namespace bgls
