/// \file progress.h
/// Streaming partial histograms for long-running sampling jobs.
///
/// A run configured with ProgressOptions emits ProgressUpdate values as
/// repetitions complete: cumulative per-measurement-key histograms over
/// a *canonical prefix* of the run's repetitions — repetitions 0..k-1 in
/// order, whichever shard and thread ran them. Updates fire at every
/// multiple of `every` plus at the end of the run. Every repetition's
/// outcome is fixed by the seed and its index (core/simulator.h), so the
/// emitted update *sequence* — positions and contents — is bit-identical
/// across thread counts and scheduling: threads only change when an
/// update is delivered, never what it says. The final update carries
/// the complete histogram of the run.
///
/// On the dictionary path (Sec. 3.2.3) all repetitions complete
/// together at the final gate, so streaming degenerates to the one
/// final update; per-trajectory workloads (channels, mid-circuit
/// measurement, or RunRequest::with_sample_parallelization(false))
/// stream throughout.
///
/// ProgressCollector is the run-side merger: shards (contiguous ranges
/// of repetitions) report their cumulative histograms at the prefix
/// positions inside their range and at their end, possibly out of order
/// across shards, and the collector buffers and flushes updates strictly
/// in canonical order.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace bgls {

/// One streamed snapshot: cumulative histograms over the canonical
/// prefix of `completed_repetitions` repetitions.
struct ProgressUpdate {
  /// Repetitions covered by this update (canonical prefix length).
  std::uint64_t completed_repetitions = 0;
  /// Total repetitions of the run.
  std::uint64_t total_repetitions = 0;
  /// True for the last update of the run (the complete histogram).
  bool final = false;
  /// Cumulative outcome counts per measurement key for the prefix.
  std::map<std::string, Counts> histograms;
};

/// Callback receiving updates. Invoked serially (updates never race or
/// arrive out of canonical order) from worker threads; it must not call
/// back into the emitting run.
using ProgressFn = std::function<void(const ProgressUpdate&)>;

/// Streaming knobs carried by SimulatorOptions / RunRequest.
struct ProgressOptions {
  /// Emission cadence in repetitions (within a shard); 0 disables
  /// streaming entirely.
  std::uint64_t every = 0;
  /// Destination for updates; streaming is off when empty.
  ProgressFn sink;

  [[nodiscard]] bool enabled() const { return every > 0 && sink != nullptr; }
};

/// Merges per-shard reports into the canonical update sequence (see
/// file comment). Thread-safe: shards report concurrently; updates are
/// emitted under the internal lock, strictly in canonical order.
class ProgressCollector {
 public:
  /// `shard_reps[i]` is shard i's repetition count; shard i covers the
  /// repetitions after shards 0..i-1.
  ProgressCollector(ProgressOptions options,
                    std::vector<std::uint64_t> shard_reps);

  /// The next multiple of `every` after `done`, capped at `total` (and
  /// `total` once done >= total). Shared by the collector and the
  /// sampling loop so both walk the identical schedule.
  [[nodiscard]] static std::uint64_t next_checkpoint(std::uint64_t done,
                                                     std::uint64_t total,
                                                     std::uint64_t every);

  /// Shard `shard` has completed `done` of its repetitions; `cumulative`
  /// holds its per-key counts for those repetitions. Must be called
  /// exactly where the shard's range meets a multiple of `every` and at
  /// the shard's end, in order within the shard (shards may interleave
  /// freely).
  void report(std::size_t shard, std::uint64_t done,
              std::map<std::string, Counts> cumulative);

 private:
  /// Emits every update whose canonical predecessors have all arrived.
  void flush_locked();

  struct ShardSlot {
    /// Buffered reports (done -> cumulative histograms) not yet
    /// consumed by the canonical cursor.
    std::map<std::uint64_t, std::map<std::string, Counts>> pending;
  };

  ProgressOptions options_;
  std::vector<std::uint64_t> shard_reps_;
  std::uint64_t total_ = 0;

  std::mutex mutex_;
  std::vector<ShardSlot> slots_;
  /// Canonical cursor: next shard to consume, the report expected
  /// from it, and the repetitions of fully consumed shards.
  std::size_t cursor_shard_ = 0;
  std::uint64_t cursor_done_ = 0;
  std::uint64_t prefix_base_ = 0;
  /// Merged histograms of fully consumed shards (the prefix base).
  std::map<std::string, Counts> base_histograms_;
  /// Whether the final update went out (an empty run still owes one).
  bool final_emitted_ = false;
};

/// Adds every count of `delta` into `into` (prefix accumulation).
void merge_histograms(std::map<std::string, Counts>& into,
                      const std::map<std::string, Counts>& delta);

}  // namespace bgls
