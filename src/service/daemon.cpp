#include "service/daemon.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/error.h"
#include "util/json_writer.h"
#include "util/timing.h"

namespace bgls::service {
namespace {

using namespace std::chrono_literals;

/// Builds one compact journal record body via a filler callback.
template <typename Fill>
std::string journal_record(std::string_view type, std::uint64_t job,
                           Fill fill) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("type").value(type);
  json.key("job").value(job);
  fill(json);
  json.end_object();
  return os.str();
}

std::string submit_record(std::uint64_t job, const std::string& line) {
  return journal_record("submit", job, [&](JsonWriter& json) {
    json.key("line").value(line);
  });
}

std::string checkpoint_record(std::uint64_t job,
                              const std::string& checkpoint_json) {
  // `checkpoint_json` is already compact JSON (RunCheckpoint::to_json),
  // spliced in verbatim.
  std::string body = "{\"type\":\"checkpoint\",\"job\":";
  body += std::to_string(job);
  body += ",\"data\":";
  body += checkpoint_json;
  body += "}";
  return body;
}

std::string evict_record(std::uint64_t job) {
  return journal_record("evict", job, [](JsonWriter&) {});
}

}  // namespace

ServiceDaemon::ServiceDaemon(DaemonOptions options)
    : options_(std::move(options)),
      scheduler_(hooked_scheduler_options()),
      server_({.name = "daemon",
               .max_connections = kWorkerMaxConnections,
               .slow_request_ms = options_.slow_request_ms,
               .trace_of = [this](std::uint64_t job) { return trace_of(job); }},
              handlers()) {}

LineServer::Handlers ServiceDaemon::handlers() {
  return {
      {"submit", [this](const Request& r) { handle_submit(r); }},
      {"status", [this](const Request& r) { handle_status(r); }},
      {"cancel", [this](const Request& r) { handle_cancel(r); }},
      {"result", [this](const Request& r) { handle_result_or_wait(r, false); }},
      {"wait", [this](const Request& r) { handle_result_or_wait(r, true); }},
      {"stream", [this](const Request& r) { handle_stream(r); }},
      {"stats", [this](const Request& r) { handle_stats(r); }},
      {"metrics", [this](const Request& r) { handle_metrics(r); }},
      {"trace", [this](const Request& r) { handle_trace(r); }},
  };
}

SchedulerOptions& ServiceDaemon::hooked_scheduler_options() {
  SchedulerOptions& scheduler = options_.scheduler;
  if (options_.journal_path.empty()) return scheduler;
  scheduler.on_terminal = [this](const JobInfo& info) {
    if (!journal_.is_open()) return;
    journal_.append(terminal_record(info.id, outcome_of(info)));
  };
  scheduler.on_checkpoint = [this](std::uint64_t id,
                                   std::shared_ptr<const RunCheckpoint> ckpt) {
    if (!journal_.is_open() || ckpt == nullptr) return;
    journal_.append(checkpoint_record(id, ckpt->to_json()));
  };
  scheduler.on_evict = [this](std::uint64_t id) {
    if (!journal_.is_open()) return;
    journal_.append(evict_record(id));
  };
  return scheduler;
}

ServiceDaemon::TerminalOutcome ServiceDaemon::outcome_of(const JobInfo& info) {
  TerminalOutcome outcome;
  outcome.state = info.state;
  outcome.error = info.error;
  if (info.state == JobState::kDone) {
    outcome.backend = info.result->backend_name;
    outcome.selection_reason = info.result->selection_reason;
    outcome.report = run_report_string(info.report_context, *info.result);
  }
  return outcome;
}

void ServiceDaemon::send_outcome(std::uint64_t id,
                                 const TerminalOutcome& outcome,
                                 Socket& socket, const std::string& type) {
  const bool done = outcome.state == JobState::kDone;
  const std::string_view state = job_state_name(outcome.state);
  socket.write_all(response_line(done, [&](JsonWriter& json) {
    if (!type.empty()) json.key("type").value(type);
    json.key("job").value(id);
    if (!done) json.key("code").value(state);
    json.key("state").value(state);
    if (done) {
      json.key("backend").value(outcome.backend);
      json.key("selection_reason").value(outcome.selection_reason);
      json.key("report").value(outcome.report);
    } else {
      json.key("error").value(outcome.error);
    }
  }));
}

std::string ServiceDaemon::terminal_record(std::uint64_t id,
                                           const TerminalOutcome& outcome) {
  return journal_record("terminal", id, [&](JsonWriter& json) {
    json.key("state").value(job_state_name(outcome.state));
    if (outcome.state == JobState::kDone) {
      json.key("backend").value(outcome.backend);
      json.key("selection_reason").value(outcome.selection_reason);
      json.key("report").value(outcome.report);
    } else {
      json.key("error").value(outcome.error);
    }
  });
}

ServiceDaemon::~ServiceDaemon() { stop(); }

void ServiceDaemon::start() {
  if (!options_.journal_path.empty() && !journal_.is_open()) {
    replay_journal();
  }
  server_.start(options_.endpoint);
}

void ServiceDaemon::replay_journal() {
  const Stopwatch replay_watch;
  // Lines that fail their frame or CRC check: a record torn by a crash
  // mid-append, or a corrupt one.
  std::size_t unreadable_lines = 0;
  const std::vector<JsonValue> records =
      Journal::replay_file(options_.journal_path, &unreadable_lines);

  // Fold the event stream into per-job final state. Records after an
  // evict (or for ids never submitted *and* never terminal) are
  // dropped; the last checkpoint wins.
  struct Pending {
    std::string line;
    std::shared_ptr<const RunCheckpoint> checkpoint;
    std::string checkpoint_json;
    bool terminal = false;
    TerminalOutcome outcome;
  };
  std::map<std::uint64_t, Pending> pending;
  std::uint64_t max_id = 0;
  std::uint64_t unreadable_checkpoints = 0;
  for (const JsonValue& record : records) {
    const std::string type = record.string_or("type", "");
    const std::uint64_t id = record.u64_or("job", 0);
    if (id == 0) continue;
    max_id = std::max(max_id, id);
    if (type == "evict") {
      pending.erase(id);
      continue;
    }
    Pending& job = pending[id];
    if (type == "submit") {
      job.line = record.string_or("line", "");
    } else if (type == "checkpoint") {
      try {
        const JsonValue* data = record.find("data");
        BGLS_REQUIRE(data != nullptr, "checkpoint record without 'data'");
        RunCheckpoint parsed = RunCheckpoint::from_json(*data);
        job.checkpoint_json = parsed.to_json();
        job.checkpoint =
            std::make_shared<const RunCheckpoint>(std::move(parsed));
      } catch (const Error& e) {
        // Corrupt, or in a format this build cannot continue (another
        // checkpoint version, a dictionary-path snapshot): the job
        // resumes from its previous snapshot, or reruns from scratch —
        // determinism makes the rerun byte-identical.
        ++unreadable_checkpoints;
        obs::log(obs::LogLevel::kWarn, "daemon",
                 "journal checkpoint unreadable; skipped",
                 {{"job", id}, {"error", e.what()}});
      }
    } else if (type == "terminal") {
      job.terminal = true;
      TerminalOutcome& outcome = job.outcome;
      const std::string state = record.string_or("state", "failed");
      outcome.state = state == "done"        ? JobState::kDone
                      : state == "cancelled" ? JobState::kCancelled
                      : state == "timeout"   ? JobState::kTimedOut
                                             : JobState::kFailed;
      outcome.error = record.string_or("error", "");
      outcome.backend = record.string_or("backend", "");
      outcome.selection_reason = record.string_or("selection_reason", "");
      outcome.report = record.string_or("report", "");
    }
  }

  scheduler_.reserve_ids_through(max_id);

  // The retention bound, as the scheduler applies it to live jobs: keep
  // the newest max_retained_jobs terminal jobs (ids grow across
  // restarts) and forget the older ones.
  std::uint64_t terminal_jobs = 0;
  for (const auto& [id, job] : pending) terminal_jobs += job.terminal ? 1 : 0;
  std::uint64_t evicted = 0;
  for (auto it = pending.begin();
       terminal_jobs > options_.scheduler.max_retained_jobs;) {
    if (it->second.terminal) {
      it = pending.erase(it);
      --terminal_jobs;
      ++evicted;
    } else {
      ++it;
    }
  }

  // Compact to the live set — terminal records (so results survive any
  // number of restarts) plus submit+latest-checkpoint for incomplete
  // jobs — then reopen for appending.
  std::vector<std::string> compacted;
  for (const auto& [id, job] : pending) {
    if (job.terminal) {
      compacted.push_back(terminal_record(id, job.outcome));
    } else if (!job.line.empty()) {
      compacted.push_back(submit_record(id, job.line));
      if (job.checkpoint != nullptr) {
        compacted.push_back(checkpoint_record(id, job.checkpoint_json));
      }
    }
  }
  Journal::compact_file(options_.journal_path, compacted);
  journal_.open(options_.journal_path);

  // Re-enqueue incomplete jobs under their journaled ids (the journal
  // is open first, so their terminal events are recorded), and answer
  // queries for terminal ones from memory.
  std::uint64_t resubmitted = 0;
  std::uint64_t dropped = 0;
  for (auto& [id, job] : pending) {
    if (job.terminal) {
      const std::lock_guard<std::mutex> lock(replayed_mutex_);
      replayed_.emplace(id, std::move(job.outcome));
      continue;
    }
    if (job.line.empty()) continue;  // checkpoint without submit
    try {
      RunRequest request = parse_submit(JsonValue::parse(job.line));
      if (job.checkpoint != nullptr) request.resume = job.checkpoint;
      scheduler_.resubmit(std::move(request), id);
      ++resubmitted;
    } catch (const std::exception&) {
      // A submit line that no longer parses (or a duplicate id): drop
      // the job rather than refuse to start.
      ++dropped;
    }
  }
  const double replay_seconds = replay_watch.seconds();
  record_journal_replay_seconds(replay_seconds);
  obs::log(obs::LogLevel::kInfo, "daemon", "journal replayed",
           {{"terminal_jobs", terminal_jobs},
            {"evicted", evicted},
            {"resubmitted", resubmitted},
            {"dropped", dropped},
            {"unreadable_lines", unreadable_lines},
            {"unreadable_checkpoints", unreadable_checkpoints},
            {"seconds", replay_seconds}});
}

void ServiceDaemon::stop() {
  server_.stop();
  // Durability barrier: every acknowledged record is on disk before we
  // report stopped. The journal stays open — scheduler runners may
  // still finish (and journal) jobs until ~JobScheduler joins them.
  if (journal_.is_open()) journal_.flush();
}

void ServiceDaemon::wait_for_shutdown() { server_.wait_for_shutdown(); }

void ServiceDaemon::request_shutdown() { server_.request_shutdown(); }

std::uint64_t ServiceDaemon::trace_of(std::uint64_t job) const {
  try {
    return scheduler_.info(job).trace->id();
  } catch (const std::exception&) {
    return 0;  // unknown/evicted job — log without correlation
  }
}

void ServiceDaemon::handle_submit(const Request& r) {
  const std::uint64_t id = scheduler_.submit(parse_submit(r.message));
  // Journal-before-ack: once the client sees the job id, a crash-and-
  // restart daemon still knows the job. On a journal failure the job
  // keeps running but the client gets journal_error and must retry —
  // the orphan's terminal record still answers its id after a restart.
  if (journal_.is_open()) journal_.append(submit_record(id, r.line));
  // Cache hits are born terminal — report the real state so clients
  // can skip straight to `result` without polling.
  JobState state = JobState::kQueued;
  bool from_cache = false;
  try {
    const JobInfo info = scheduler_.info(id);
    state = info.state;
    from_cache = info.from_cache;
  } catch (const ValueError&) {
    // Evicted already (pathologically small retention) — keep kQueued.
  }
  r.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("state").value(job_state_name(state));
    if (from_cache) json.key("from_cache").value(true);
  }));
}

std::optional<ServiceDaemon::TerminalOutcome> ServiceDaemon::replayed(
    std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(replayed_mutex_);
  const auto it = replayed_.find(id);
  if (it == replayed_.end()) return std::nullopt;
  return it->second;
}

bool ServiceDaemon::send_replayed(std::uint64_t id, Socket& socket,
                                  const std::string& type) {
  const std::optional<TerminalOutcome> outcome = replayed(id);
  if (!outcome) return false;
  send_outcome(id, *outcome, socket, type);
  return true;
}

void ServiceDaemon::handle_status(const Request& r) {
  const std::uint64_t id = job_field(r.message);
  JobInfo info;
  try {
    info = scheduler_.info(id);
  } catch (const ValueError&) {
    const std::optional<TerminalOutcome> outcome = replayed(id);
    if (!outcome) throw;
    r.socket.write_all(response_line(true, [&](JsonWriter& json) {
      json.key("job").value(id);
      json.key("state").value(job_state_name(outcome->state));
      if (!outcome->error.empty()) json.key("error").value(outcome->error);
      if (!outcome->backend.empty()) {
        json.key("backend").value(outcome->backend);
        json.key("selection_reason").value(outcome->selection_reason);
      }
    }));
    return;
  }
  r.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(info.id);
    json.key("state").value(job_state_name(info.state));
    json.key("priority").value(info.priority);
    json.key("completed").value(info.completed_repetitions);
    json.key("total").value(info.total_repetitions);
    json.key("updates").value(
        static_cast<std::uint64_t>(info.progress_updates));
    // Scheduling timings (milliseconds; live jobs report so-far values).
    // Not byte-pinned — unlike the `result` report, status is a
    // monitoring endpoint and may grow fields.
    json.key("queue_ms").value(info.queue_seconds * 1000.0);
    json.key("run_ms").value(info.run_seconds * 1000.0);
    if (!info.error.empty()) json.key("error").value(info.error);
    if (info.result) {
      json.key("backend").value(info.result->backend_name);
      json.key("selection_reason").value(info.result->selection_reason);
      const RunStats& stats = info.result->stats;
      json.key("queue_wait_ms").value(stats.queue_wait_ms);
      json.key("optimize_ms").value(stats.optimize_ms);
      json.key("evolve_ms").value(stats.evolve_ms);
      json.key("sample_ms").value(stats.sample_ms);
    }
  }));
}

void ServiceDaemon::handle_cancel(const Request& r) {
  const std::uint64_t id = job_field(r.message);
  const bool cancelled = scheduler_.cancel(id);
  r.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("cancelled").value(cancelled);
  }));
}

void ServiceDaemon::send_result(const JobInfo& info, Socket& socket,
                                const std::string& type) {
  if (!is_terminal(info.state)) {
    socket.write_all(error_line(
        "not_done", "job " + std::to_string(info.id) + " is " +
                        std::string(job_state_name(info.state))));
    return;
  }
  send_outcome(info.id, outcome_of(info), socket, type);
}

void ServiceDaemon::handle_result_or_wait(const Request& r, bool wait) {
  const std::uint64_t id = job_field(r.message);
  JobInfo info;
  try {
    info = scheduler_.info(id);
  } catch (const ValueError&) {
    if (send_replayed(id, r.socket, "")) return;
    throw;
  }
  if (wait) {
    // Bounded waits keep stop() responsive: poll the scheduler in
    // slices instead of blocking unboundedly on the condition variable.
    const double timeout_ms =
        static_cast<double>(r.message.u64_or("timeout_ms", 0));
    const Stopwatch waited;
    while (!is_terminal(info.state) && !server_.stopping()) {
      if (timeout_ms > 0 && waited.seconds() * 1000.0 >= timeout_ms) break;
      info = scheduler_.wait(id, 200ms);
    }
  }
  send_result(info, r.socket, "");
}

void ServiceDaemon::handle_stream(const Request& r) {
  const std::uint64_t id = job_field(r.message);
  Socket& socket = r.socket;
  if (send_replayed(id, socket, "result")) return;
  std::size_t cursor = 0;
  while (true) {
    for (const ProgressUpdate& update : scheduler_.progress_since(id, cursor)) {
      ++cursor;
      socket.write_all(response_line(true, [&](JsonWriter& json) {
        json.key("type").value("progress");
        json.key("job").value(id);
        json.key("completed").value(update.completed_repetitions);
        json.key("total").value(update.total_repetitions);
        json.key("final").value(update.final);
        json.key("histograms");
        write_key_histograms(json, update.histograms);
      }));
    }
    const JobInfo info = scheduler_.info(id);
    if (is_terminal(info.state) &&
        scheduler_.progress_since(id, cursor).empty()) {
      send_result(info, socket, "result");
      return;
    }
    if (server_.stopping()) {
      send_result(info, socket, "result");
      return;
    }
    scheduler_.wait_progress(id, cursor, 200ms);
  }
}

void ServiceDaemon::handle_stats(const Request& r) {
  const SchedulerStats stats = scheduler_.stats();
  r.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("submitted").value(stats.submitted);
    json.key("rejected").value(stats.rejected);
    json.key("completed").value(stats.completed);
    json.key("failed").value(stats.failed);
    json.key("cancelled").value(stats.cancelled);
    json.key("timed_out").value(stats.timed_out);
    json.key("evicted").value(stats.evicted);
    json.key("retried").value(stats.retried);
    json.key("resumed").value(stats.resumed);
    json.key("queue_depth").value(
        static_cast<std::uint64_t>(stats.queue_depth));
    json.key("running").value(static_cast<std::uint64_t>(stats.running));
    json.key("cache_hits").value(stats.cache_hits);
    json.key("completed_per_backend").begin_object();
    for (const auto& [backend, count] : stats.completed_per_backend) {
      json.key(backend).value(count);
    }
    json.end_object();
    json.key("completed_per_tenant").begin_object();
    for (const auto& [tenant, count] : stats.completed_per_tenant) {
      json.key(tenant).value(count);
    }
    json.end_object();
  }));
}

void ServiceDaemon::handle_metrics(const Request& r) {
  // The whole process-wide registry, not just daemon series: a scrape
  // sees kernel/engine/pool/scheduler series from the same snapshot.
  const std::string text =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  r.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("metrics").value(text);
  }));
}

void ServiceDaemon::handle_trace(const Request& r) {
  const std::uint64_t id = job_field(r.message);
  const JobInfo info = scheduler_.info(id);  // throws on unknown id
  r.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("trace_id").value(info.trace->id());
    json.key("spans");
    write_spans(json, info.trace->spans());  // sorted (name, index, id)
  }));
}

}  // namespace bgls::service
