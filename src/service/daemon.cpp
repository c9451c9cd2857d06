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

namespace bgls::service {
namespace {

using namespace std::chrono_literals;

/// Daemon series. Per-op counters are pre-registered (the map is
/// read-only after construction), so the request path only touches
/// relaxed atomics.
struct DaemonMetrics {
  std::map<std::string, obs::Counter, std::less<>> requests;
  obs::Counter unknown_requests;
  obs::Histogram request_seconds;
  obs::Counter connections;
  obs::Gauge open_connections;

  DaemonMetrics() {
    auto& registry = obs::MetricsRegistry::global();
    const char* help = "Requests handled, by op";
    for (const char* op : {"submit", "status", "cancel", "result", "wait",
                           "stream", "stats", "metrics", "trace", "logs",
                           "shutdown"}) {
      requests.emplace(
          op, registry.counter("bgls_daemon_requests_total{op=\"" +
                                   std::string(op) + "\"}",
                               help));
    }
    unknown_requests =
        registry.counter("bgls_daemon_requests_total{op=\"other\"}", help);
    request_seconds = registry.histogram(
        "bgls_daemon_request_seconds",
        "Wall time handling one request line (stream/wait ops include "
        "the time spent following the job)");
    connections = registry.counter("bgls_daemon_connections_total",
                                   "Client connections accepted");
    open_connections = registry.gauge("bgls_daemon_open_connections",
                                      "Client connections currently open");
  }

  void count(std::string_view op) {
    const auto it = requests.find(op);
    (it != requests.end() ? it->second : unknown_requests).add();
  }

  static DaemonMetrics& instance() {
    static DaemonMetrics metrics;
    return metrics;
  }
};

/// Builds one compact response line ({"ok":...,...}\n) via a filler
/// callback receiving the open JsonWriter object scope.
template <typename Fill>
std::string response_line(bool ok, Fill fill) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("ok").value(ok);
  fill(json);
  json.end_object();
  os << "\n";
  return os.str();
}

std::string error_line(const std::string& code, const std::string& message) {
  return response_line(false, [&](JsonWriter& json) {
    json.key("code").value(code);
    json.key("error").value(message);
  });
}

/// Maps a terminal non-done job state onto its wire error code.
std::string state_error_code(JobState state) {
  return std::string(job_state_name(state));
}

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
  return journal_record("submit", job,
                        [&](JsonWriter& json) { json.key("line").value(line); });
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
    : options_(std::move(options)), scheduler_(hooked_scheduler_options()) {}

SchedulerOptions& ServiceDaemon::hooked_scheduler_options() {
  SchedulerOptions& scheduler = options_.scheduler;
  if (options_.journal_path.empty()) return scheduler;
  scheduler.on_terminal = [this](const JobInfo& info) {
    journal_terminal(info);
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

void ServiceDaemon::journal_terminal(const JobInfo& info) {
  if (!journal_.is_open()) return;
  std::string record;
  if (info.state == JobState::kDone && info.result != nullptr) {
    RunReportContext context;
    bool have_context = false;
    {
      const std::lock_guard<std::mutex> lock(contexts_mutex_);
      const auto it = contexts_.find(info.id);
      if (it != contexts_.end()) {
        context = it->second;
        have_context = true;
      }
    }
    if (!have_context) return;  // evicted side table; nothing to journal
    record = journal_record("terminal", info.id, [&](JsonWriter& json) {
      json.key("state").value(job_state_name(info.state));
      json.key("backend").value(info.result->backend_name);
      json.key("selection_reason").value(info.result->selection_reason);
      json.key("report").value(run_report_string(context, *info.result));
    });
  } else {
    record = journal_record("terminal", info.id, [&](JsonWriter& json) {
      json.key("state").value(job_state_name(info.state));
      json.key("error").value(info.error);
    });
  }
  journal_.append(record);
}

ServiceDaemon::~ServiceDaemon() { stop(); }

void ServiceDaemon::start() {
  BGLS_REQUIRE(!started_, "daemon already started");
  if (!options_.journal_path.empty() && !journal_.is_open()) {
    replay_journal();
  }
  server_.listen_on(options_.endpoint);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ServiceDaemon::replay_journal() {
  const auto replay_start = std::chrono::steady_clock::now();
  std::size_t skipped = 0;
  const std::vector<JsonValue> records =
      Journal::replay_file(options_.journal_path, &skipped);

  // Fold the event stream into per-job final state. Records after an
  // evict (or for ids never submitted *and* never terminal) are
  // dropped; the last checkpoint wins.
  struct Pending {
    std::string line;
    std::shared_ptr<const RunCheckpoint> checkpoint;
    std::string checkpoint_json;
    bool terminal = false;
    ReplayedResult result;
  };
  std::map<std::uint64_t, Pending> pending;
  std::uint64_t max_id = 0;
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
      const JsonValue* data = record.find("data");
      if (data != nullptr &&
          data->u64_or("version", 1) < RunCheckpoint::kVersion) {
        // An older checkpoint format (version 1 carried per-stream RNG
        // state) cannot continue under this build's keyed draws: drop
        // every snapshot so far and rerun the job from scratch.
        obs::log(obs::LogLevel::kWarn, "daemon",
                 "journal checkpoint has an old format; rerunning the job "
                 "from scratch",
                 {{"job", id}, {"version", data->u64_or("version", 1)}});
        job.checkpoint = nullptr;
        job.checkpoint_json.clear();
      } else if (data != nullptr) {
        try {
          RunCheckpoint parsed = RunCheckpoint::from_json(*data);
          job.checkpoint_json = parsed.to_json();
          job.checkpoint =
              std::make_shared<const RunCheckpoint>(std::move(parsed));
        } catch (const Error&) {
          // Unreadable snapshot: resume from the previous one (or from
          // scratch — determinism makes the re-run byte-identical).
        }
      }
    } else if (type == "terminal") {
      job.terminal = true;
      ReplayedResult& result = job.result;
      const std::string state = record.string_or("state", "failed");
      result.state = state == "done"        ? JobState::kDone
                     : state == "cancelled" ? JobState::kCancelled
                     : state == "timeout"   ? JobState::kTimedOut
                                            : JobState::kFailed;
      result.error = record.string_or("error", "");
      result.backend = record.string_or("backend", "");
      result.selection_reason = record.string_or("selection_reason", "");
      result.report = record.string_or("report", "");
    }
  }

  scheduler_.reserve_ids_through(max_id);

  // Compact to the live set — terminal records (so results survive any
  // number of restarts) plus submit+latest-checkpoint for incomplete
  // jobs — then reopen for appending.
  std::vector<std::string> compacted;
  for (const auto& [id, job] : pending) {
    if (job.terminal) {
      const ReplayedResult& result = job.result;
      compacted.push_back(journal_record(
          "terminal", id, [&](JsonWriter& json) {
            json.key("state").value(job_state_name(result.state));
            if (result.state == JobState::kDone) {
              json.key("backend").value(result.backend);
              json.key("selection_reason").value(result.selection_reason);
              json.key("report").value(result.report);
            } else {
              json.key("error").value(result.error);
            }
          }));
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
  std::uint64_t terminal_jobs = 0;
  std::uint64_t resubmitted = 0;
  std::uint64_t dropped = 0;
  for (auto& [id, job] : pending) {
    if (job.terminal) {
      const std::lock_guard<std::mutex> lock(replayed_mutex_);
      replayed_.emplace(id, std::move(job.result));
      ++terminal_jobs;
      continue;
    }
    if (job.line.empty()) continue;  // checkpoint without submit
    try {
      RunRequest request = parse_submit(JsonValue::parse(job.line));
      const RunReportContext context =
          report_context(request, request.circuit.num_qubits());
      if (job.checkpoint != nullptr) request.resume = job.checkpoint;
      {
        const std::lock_guard<std::mutex> lock(contexts_mutex_);
        contexts_.emplace(id, context);
      }
      scheduler_.resubmit(std::move(request), id);
      ++resubmitted;
    } catch (const std::exception&) {
      // A submit line that no longer parses (or a duplicate id): drop
      // the job rather than refuse to start.
      ++dropped;
    }
  }
  const double replay_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    replay_start)
                                    .count();
  record_journal_replay_seconds(replay_seconds);
  obs::log(obs::LogLevel::kInfo, "daemon", "journal replayed",
           {{"terminal_jobs", terminal_jobs},
            {"resubmitted", resubmitted},
            {"dropped", dropped},
            {"seconds", replay_seconds}});
}

void ServiceDaemon::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  server_.close();
  if (acceptor_.joinable()) acceptor_.join();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    // Unblock handler threads stuck in read_line; fds are released when
    // the Connection objects die below, after the joins.
    for (auto& connection : connections_) connection->socket.shutdown_both();
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  // Durability barrier: every acknowledged record is on disk before we
  // report stopped. The journal stays open — scheduler runners may
  // still finish (and journal) jobs until ~JobScheduler joins them.
  if (journal_.is_open()) journal_.flush();
  started_ = false;
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void ServiceDaemon::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

void ServiceDaemon::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void ServiceDaemon::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket socket = server_.accept();
    if (!socket.valid()) break;  // close()d
    reap_connections();
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { handle_connection(*raw); });
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(connection));
  }
}

void ServiceDaemon::reap_connections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServiceDaemon::handle_connection(Connection& connection) {
  DaemonMetrics& metrics = DaemonMetrics::instance();
  metrics.connections.add();
  metrics.open_connections.add(1);
  std::string line;
  try {
    while (connection.socket.read_line(line)) {
      if (line.empty()) continue;
      handle_line(line, connection.socket);
    }
  } catch (const IoError&) {
    // Peer vanished mid-request/response — normal client churn.
  }
  metrics.open_connections.sub(1);
  connection.done.store(true, std::memory_order_release);
}

void ServiceDaemon::handle_line(const std::string& line, Socket& socket) {
  JsonValue message;
  try {
    message = JsonValue::parse(line);
  } catch (const ParseError& e) {
    socket.write_all(error_line("parse_error", e.what()));
    return;
  }
  std::string op;
  const auto request_start = std::chrono::steady_clock::now();
  try {
    op = message.string_or("op", "");
    DaemonMetrics::instance().count(op);
    if (op == "submit") {
      handle_submit(message, line, socket);
    } else if (op == "status") {
      handle_status(message, socket);
    } else if (op == "cancel") {
      handle_cancel(message, socket);
    } else if (op == "result") {
      handle_result_or_wait(message, socket, /*wait=*/false);
    } else if (op == "wait") {
      handle_result_or_wait(message, socket, /*wait=*/true);
    } else if (op == "stream") {
      handle_stream(message, socket);
    } else if (op == "stats") {
      handle_stats(socket);
    } else if (op == "metrics") {
      handle_metrics(socket);
    } else if (op == "trace") {
      handle_trace(message, socket);
    } else if (op == "logs") {
      handle_logs(message, socket);
    } else if (op == "shutdown") {
      socket.write_all(response_line(true, [](JsonWriter&) {}));
      {
        const std::lock_guard<std::mutex> lock(shutdown_mutex_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
    } else {
      socket.write_all(
          error_line("unknown_op", "unknown op '" + op + "'"));
    }
  } catch (const IoError&) {
    throw;  // connection-level: let the handler loop exit
  } catch (const QueueFullError& e) {
    socket.write_all(error_line("queue_full", e.what()));
  } catch (const TenantQuotaError& e) {
    // Retryable like queue_full: the tenant's backlog drains.
    socket.write_all(error_line("tenant_quota", e.what()));
  } catch (const CostBudgetError& e) {
    // Retryable only for the backlog budget; a per-job over-budget
    // rejection re-fails identically, but the slug lets clients decide.
    socket.write_all(error_line("over_budget", e.what()));
  } catch (const JournalError& e) {
    // Transient durability failure: the client should back off and
    // retry (bgls_client --retries does).
    socket.write_all(error_line("journal_error", e.what()));
  } catch (const ParseError& e) {
    socket.write_all(error_line("parse_error", e.what()));
  } catch (const std::exception& e) {
    // Unknown job ids, malformed fields, capability errors, ...
    socket.write_all(error_line("bad_request", e.what()));
  }
  const double request_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    request_start)
          .count();
  DaemonMetrics::instance().request_seconds.observe(request_seconds);
  if (options_.slow_request_ms > 0 &&
      request_seconds * 1000.0 >=
          static_cast<double>(options_.slow_request_ms)) {
    // Resolve the request's trace id for correlation: submits carry it
    // inline; job ops go through the job's trace.
    const std::uint64_t job_id = message.u64_or("job", 0);
    std::uint64_t trace_id = message.u64_or("trace_id", 0);
    if (trace_id == 0 && job_id != 0) {
      try {
        const JobInfo info = scheduler_.info(job_id);
        if (info.trace != nullptr) trace_id = info.trace->id();
      } catch (const std::exception&) {
        // Unknown/evicted job — log without correlation.
      }
    }
    obs::log(obs::LogLevel::kWarn, "daemon", "slow request",
             {{"op", op}, {"ms", request_seconds * 1000.0}}, trace_id, job_id);
  }
}

void ServiceDaemon::handle_submit(const JsonValue& message,
                                  const std::string& line, Socket& socket) {
  RunRequest request = parse_submit(message);
  // Same width the CLI reports (no clamping) — the report must match
  // bgls_run byte for byte.
  const RunReportContext context =
      report_context(request, request.circuit.num_qubits());
  const std::uint64_t id = scheduler_.submit(std::move(request));
  {
    // Store this job's report context and prune entries for jobs the
    // scheduler's retention bound has evicted, so the daemon's side
    // table stays bounded alongside jobs_.
    const std::uint64_t min_retained = scheduler_.min_retained_id();
    const std::lock_guard<std::mutex> lock(contexts_mutex_);
    contexts_.emplace(id, context);
    contexts_.erase(contexts_.begin(),
                    contexts_.lower_bound(min_retained));
  }
  // Journal-before-ack: once the client sees the job id, a crash-and-
  // restart daemon still knows the job. On a journal failure the job
  // keeps running but the client gets journal_error and must retry —
  // the orphan's terminal record is dropped at the next replay.
  if (journal_.is_open()) journal_.append(submit_record(id, line));
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
  socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("state").value(job_state_name(state));
    if (from_cache) json.key("from_cache").value(true);
  }));
}

std::uint64_t ServiceDaemon::job_field(const JsonValue& message) const {
  const JsonValue* job = message.find("job");
  BGLS_REQUIRE(job != nullptr, "request needs a 'job' field");
  return job->as_u64();
}

bool ServiceDaemon::find_replayed(std::uint64_t id,
                                  ReplayedResult& out) const {
  const std::lock_guard<std::mutex> lock(replayed_mutex_);
  const auto it = replayed_.find(id);
  if (it == replayed_.end()) return false;
  out = it->second;
  return true;
}

bool ServiceDaemon::send_replayed(std::uint64_t id, Socket& socket,
                                  const std::string& type) {
  ReplayedResult replayed;
  if (!find_replayed(id, replayed)) return false;
  // Same wire shape as send_result, rebuilt from the journaled report.
  if (replayed.state == JobState::kDone) {
    socket.write_all(response_line(true, [&](JsonWriter& json) {
      if (!type.empty()) json.key("type").value(type);
      json.key("job").value(id);
      json.key("state").value(job_state_name(replayed.state));
      json.key("backend").value(replayed.backend);
      json.key("selection_reason").value(replayed.selection_reason);
      json.key("report").value(replayed.report);
    }));
    return true;
  }
  socket.write_all(response_line(false, [&](JsonWriter& json) {
    if (!type.empty()) json.key("type").value(type);
    json.key("job").value(id);
    json.key("code").value(state_error_code(replayed.state));
    json.key("state").value(job_state_name(replayed.state));
    json.key("error").value(replayed.error);
  }));
  return true;
}

void ServiceDaemon::handle_status(const JsonValue& message, Socket& socket) {
  const std::uint64_t id = job_field(message);
  JobInfo info;
  try {
    info = scheduler_.info(id);
  } catch (const ValueError&) {
    ReplayedResult replayed;
    if (!find_replayed(id, replayed)) throw;
    socket.write_all(response_line(true, [&](JsonWriter& json) {
      json.key("job").value(id);
      json.key("state").value(job_state_name(replayed.state));
      if (!replayed.error.empty()) json.key("error").value(replayed.error);
      if (!replayed.backend.empty()) {
        json.key("backend").value(replayed.backend);
        json.key("selection_reason").value(replayed.selection_reason);
      }
    }));
    return;
  }
  socket.write_all(response_line(true, [&](JsonWriter& json) {
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

void ServiceDaemon::handle_cancel(const JsonValue& message, Socket& socket) {
  const std::uint64_t id = job_field(message);
  const bool cancelled = scheduler_.cancel(id);
  socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("cancelled").value(cancelled);
  }));
}

void ServiceDaemon::send_result(const JobInfo& info, Socket& socket,
                                const std::string& type) {
  if (info.state == JobState::kDone) {
    RunReportContext context;
    {
      const std::lock_guard<std::mutex> lock(contexts_mutex_);
      const auto it = contexts_.find(info.id);
      if (it == contexts_.end()) {
        // Evicted by retention between the info() snapshot and here.
        socket.write_all(error_line(
            "unknown_job", "job " + std::to_string(info.id) +
                               " was evicted by the retention bound"));
        return;
      }
      context = it->second;
    }
    const std::string report = run_report_string(context, *info.result);
    socket.write_all(response_line(true, [&](JsonWriter& json) {
      if (!type.empty()) json.key("type").value(type);
      json.key("job").value(info.id);
      json.key("state").value(job_state_name(info.state));
      json.key("backend").value(info.result->backend_name);
      json.key("selection_reason").value(info.result->selection_reason);
      json.key("report").value(report);
    }));
    return;
  }
  if (!is_terminal(info.state)) {
    socket.write_all(error_line(
        "not_done", "job " + std::to_string(info.id) + " is " +
                        std::string(job_state_name(info.state))));
    return;
  }
  socket.write_all(response_line(false, [&](JsonWriter& json) {
    if (!type.empty()) json.key("type").value(type);
    json.key("job").value(info.id);
    json.key("code").value(state_error_code(info.state));
    json.key("state").value(job_state_name(info.state));
    json.key("error").value(info.error);
  }));
}

void ServiceDaemon::handle_result_or_wait(const JsonValue& message,
                                          Socket& socket, bool wait) {
  const std::uint64_t id = job_field(message);
  JobInfo info;
  try {
    info = scheduler_.info(id);
  } catch (const ValueError&) {
    if (send_replayed(id, socket, "")) return;
    throw;
  }
  if (wait) {
    // Bounded waits keep stop() responsive: poll the scheduler in
    // slices instead of blocking unboundedly on the condition variable.
    const std::uint64_t timeout_ms = message.u64_or("timeout_ms", 0);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!is_terminal(info.state) &&
           !stopping_.load(std::memory_order_acquire)) {
      if (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      info = scheduler_.wait(id, 200ms);
    }
  }
  send_result(info, socket, "");
}

void ServiceDaemon::handle_stream(const JsonValue& message, Socket& socket) {
  const std::uint64_t id = job_field(message);
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
        write_progress_histograms(json, update);
      }));
    }
    const JobInfo info = scheduler_.info(id);
    if (is_terminal(info.state) &&
        scheduler_.progress_since(id, cursor).empty()) {
      send_result(info, socket, "result");
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      send_result(info, socket, "result");
      return;
    }
    scheduler_.wait_progress(id, cursor, 200ms);
  }
}

void ServiceDaemon::handle_stats(Socket& socket) {
  const SchedulerStats stats = scheduler_.stats();
  socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("submitted").value(stats.submitted);
    json.key("rejected").value(stats.rejected);
    json.key("completed").value(stats.completed);
    json.key("failed").value(stats.failed);
    json.key("cancelled").value(stats.cancelled);
    json.key("timed_out").value(stats.timed_out);
    json.key("evicted").value(stats.evicted);
    json.key("retried").value(stats.retried);
    json.key("preempted").value(stats.preempted);
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

void ServiceDaemon::handle_metrics(Socket& socket) {
  // The whole process-wide registry, not just daemon series: a scrape
  // sees kernel/engine/pool/scheduler series from the same snapshot.
  const std::string text =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("metrics").value(text);
  }));
}

void ServiceDaemon::handle_trace(const JsonValue& message, Socket& socket) {
  const std::uint64_t id = job_field(message);
  const JobInfo info = scheduler_.info(id);  // throws on unknown id
  std::uint64_t trace_id = 0;
  std::vector<obs::SpanRecord> spans;
  if (info.trace != nullptr) {
    trace_id = info.trace->id();
    spans = info.trace->spans();  // sorted (name, index, id)
  }
  socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("trace_id").value(trace_id);
    json.key("spans");
    write_spans(json, spans);
  }));
}

void ServiceDaemon::handle_logs(const JsonValue& message, Socket& socket) {
  const std::string level_name = message.string_or("level", "debug");
  obs::LogLevel min_level = obs::LogLevel::kDebug;
  BGLS_REQUIRE(obs::parse_log_level(level_name, &min_level),
               "unknown log level '", level_name,
               "' (expected debug/info/warn/error)");
  const std::uint64_t trace_id = message.u64_or("trace_id", 0);
  const std::uint64_t limit = message.u64_or("limit", 100);
  const std::vector<obs::LogRecord> records = obs::Logger::global().tail(
      static_cast<std::size_t>(limit), min_level, trace_id);
  socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("count").value(static_cast<std::uint64_t>(records.size()));
    json.key("lines").begin_array();
    for (const obs::LogRecord& record : records) {
      json.value(obs::format_log_line(record));
    }
    json.end_array();
  }));
}

}  // namespace bgls::service
