#include "core/progress.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace bgls {

void merge_histograms(std::map<std::string, Counts>& into,
                      const std::map<std::string, Counts>& delta) {
  for (const auto& [key, counts] : delta) {
    Counts& target = into[key];
    for (const auto& [bits, count] : counts) target[bits] += count;
  }
}

ProgressCollector::ProgressCollector(ProgressOptions options,
                                     std::vector<std::uint64_t> shard_reps)
    : options_(std::move(options)),
      shard_reps_(std::move(shard_reps)),
      slots_(shard_reps_.size()) {
  BGLS_REQUIRE(options_.enabled(),
               "ProgressCollector needs enabled ProgressOptions");
  BGLS_REQUIRE(!shard_reps_.empty(), "ProgressCollector needs >= 1 shard");
  for (const std::uint64_t reps : shard_reps_) total_ += reps;
}

std::uint64_t ProgressCollector::next_checkpoint(std::uint64_t done,
                                                 std::uint64_t total,
                                                 std::uint64_t every) {
  if (done >= total) return total;
  return std::min(done + (every - done % every), total);
}

void ProgressCollector::report(std::size_t shard, std::uint64_t done,
                               std::map<std::string, Counts> cumulative) {
  const std::lock_guard<std::mutex> lock(mutex_);
  BGLS_REQUIRE(shard < slots_.size(), "progress report from unknown shard ",
               shard);
  slots_[shard].pending.emplace(done, std::move(cumulative));
  flush_locked();
}

void ProgressCollector::flush_locked() {
  while (cursor_shard_ < slots_.size()) {
    const std::uint64_t reps = shard_reps_[cursor_shard_];
    // Reports land where the canonical prefix crosses a multiple of
    // `every`, or at the shard's end.
    const std::uint64_t expected =
        next_checkpoint(prefix_base_ + cursor_done_, prefix_base_ + reps,
                        options_.every) -
        prefix_base_;
    auto& pending = slots_[cursor_shard_].pending;
    const auto it = pending.find(expected);
    if (it == pending.end()) return;  // canonical predecessor still running

    std::map<std::string, Counts> cumulative = std::move(it->second);
    pending.erase(it);

    const std::uint64_t completed = prefix_base_ + expected;
    const bool shard_complete = expected == reps;
    const bool final = shard_complete && cursor_shard_ + 1 == slots_.size();
    // A shard's end between two multiples only carries the prefix base;
    // the rule depends on canonical positions alone, never on timing.
    if ((completed % options_.every == 0 && completed > 0) ||
        (final && !final_emitted_)) {
      ProgressUpdate update;
      update.completed_repetitions = completed;
      update.total_repetitions = total_;
      update.final = final;
      update.histograms = base_histograms_;
      merge_histograms(update.histograms, cumulative);
      options_.sink(update);
      final_emitted_ = final;
    }

    if (shard_complete) {
      merge_histograms(base_histograms_, cumulative);
      prefix_base_ += reps;
      ++cursor_shard_;
      cursor_done_ = 0;
    } else {
      cursor_done_ = expected;
    }
  }
}

}  // namespace bgls
