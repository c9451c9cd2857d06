#include "core/checkpoint.h"

#include <optional>
#include <sstream>
#include <string>

#include "core/result.h"
#include "util/error.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/parse.h"

namespace bgls {

std::uint64_t RunCheckpoint::completed_repetitions() const {
  std::uint64_t done = 0;
  for (const ShardCheckpoint& shard : shards) done += shard.completed;
  return done;
}

std::string RunCheckpoint::to_json() const {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("version").value(kVersion);
  json.key("run_key").value(run_key);
  json.key("total").value(total_repetitions);
  json.key("stats").begin_object();
  json.key("state_applications").value(stats.state_applications);
  json.key("probability_evaluations").value(stats.probability_evaluations);
  json.key("max_dictionary_size").value(stats.max_dictionary_size);
  json.key("trajectories").value(stats.trajectories);
  json.key("monomial_moves").value(stats.monomial_moves);
  json.end_object();
  json.key("shards").begin_array();
  for (const ShardCheckpoint& shard : shards) {
    json.begin_object();
    json.key("total").value(shard.total);
    json.key("completed").value(shard.completed);
    json.key("histograms");
    write_key_histograms(json, shard.histograms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return out.str();
}

namespace {

RunCounters stats_from_json(const JsonValue& value) {
  RunCounters stats;
  stats.state_applications = value.u64_or("state_applications", 0);
  stats.probability_evaluations = value.u64_or("probability_evaluations", 0);
  stats.max_dictionary_size = value.u64_or("max_dictionary_size", 0);
  stats.trajectories = value.u64_or("trajectories", 0);
  stats.monomial_moves = value.u64_or("monomial_moves", 0);
  return stats;
}

std::uint64_t parse_u64_key(const std::string& text) {
  // Checked parse (util/parse.h): std::stoull would throw raw
  // std::invalid_argument/std::out_of_range — not a bgls error type —
  // on a corrupt checkpoint, and accept a leading '-' by wrapping.
  const std::optional<std::uint64_t> parsed = util::try_parse_u64(text);
  BGLS_REQUIRE(parsed.has_value(), "malformed histogram key '", text, "'");
  return *parsed;
}

}  // namespace

RunCheckpoint RunCheckpoint::from_json(const JsonValue& value) {
  BGLS_REQUIRE(value.kind() == JsonValue::Kind::kObject,
               "checkpoint JSON must be an object");
  const JsonValue* shards = value.find("shards");
  BGLS_REQUIRE(shards != nullptr, "checkpoint JSON missing 'shards'");
  const std::uint64_t version = value.u64_or("version", 1);
  if (version != RunCheckpoint::kVersion) {
    detail::throw_error<ParseError>(
        "checkpoint version ", version,
        " is not supported (this build reads version ",
        RunCheckpoint::kVersion, "); rerun the job from the start");
  }
  RunCheckpoint checkpoint;
  const JsonValue* run_key = value.find("run_key");
  BGLS_REQUIRE(run_key != nullptr, "checkpoint JSON missing 'run_key'");
  checkpoint.run_key = run_key->as_u64();
  checkpoint.total_repetitions = value.u64_or("total", 0);
  const JsonValue* stats = value.find("stats");
  if (stats != nullptr) checkpoint.stats = stats_from_json(*stats);
  for (const JsonValue& entry : shards->items()) {
    ShardCheckpoint shard;
    shard.total = entry.u64_or("total", 0);
    shard.completed = entry.u64_or("completed", 0);
    BGLS_REQUIRE(shard.completed <= shard.total,
                 "checkpoint shard completed > total");
    if (const JsonValue* histograms = entry.find("histograms")) {
      for (const auto& [key, counts] : histograms->members()) {
        Counts& into = shard.histograms[key];
        for (const auto& [bits, count] : counts.members()) {
          into[parse_u64_key(bits)] = count.as_u64();
        }
      }
    }
    checkpoint.shards.push_back(std::move(shard));
  }
  return checkpoint;
}

RunCheckpoint RunCheckpoint::parse(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

void validate_resume(const RunCheckpoint& checkpoint, std::uint64_t run_key,
                     const std::vector<std::uint64_t>& shard_sizes) {
  BGLS_REQUIRE(checkpoint.run_key == run_key,
               "checkpoint belongs to another run (run key ",
               checkpoint.run_key, ", this run's is ", run_key,
               "); resume with the original seed");
  std::uint64_t total_repetitions = 0;
  for (const std::uint64_t size : shard_sizes) total_repetitions += size;
  BGLS_REQUIRE(checkpoint.total_repetitions == total_repetitions,
               "checkpoint covers ", checkpoint.total_repetitions,
               " repetitions but the run asks for ", total_repetitions);
  BGLS_REQUIRE(checkpoint.shards.size() == shard_sizes.size(),
               "checkpoint has ", checkpoint.shards.size(),
               " shards but the run splits into ", shard_sizes.size());
  for (std::size_t i = 0; i < shard_sizes.size(); ++i) {
    BGLS_REQUIRE(checkpoint.shards[i].total == shard_sizes[i],
                 "checkpoint shard sizes do not match this run's split");
    BGLS_REQUIRE(checkpoint.shards[i].completed <= shard_sizes[i],
                 "checkpoint shard completed > total");
  }
}

void write_key_histograms(JsonWriter& json,
                          const std::map<std::string, Counts>& histograms) {
  json.begin_object();
  for (const auto& [key, counts] : histograms) {
    json.key(key).begin_object();
    for (const auto& [bits, count] : counts) {
      json.key(std::to_string(bits)).value(count);
    }
    json.end_object();
  }
  json.end_object();
}

void restore_result_histograms(
    Result& result, const std::map<std::string, Counts>& histograms) {
  for (const auto& [key, counts] : histograms) {
    for (const auto& [value, count] : counts) {
      result.add_records(key, value, count);
    }
  }
}

CheckpointCollector::CheckpointCollector(CheckpointOptions options,
                                         RunCheckpoint base)
    : options_(std::move(options)),
      current_(std::move(base)),
      base_stats_(current_.stats),
      deltas_(current_.shards.size()) {}

void CheckpointCollector::record(std::size_t shard, std::uint64_t completed,
                                 const std::map<std::string, Counts>& cumulative,
                                 const RunCounters& delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ShardCheckpoint& slot = current_.shards.at(shard);
  slot.completed = completed;
  slot.histograms = cumulative;
  deltas_.at(shard) = delta;
  current_.stats = base_stats_;
  for (const RunCounters& d : deltas_) current_.stats += d;
  if (options_.sink) options_.sink(current_);
}

}  // namespace bgls
