/// \file daemon.h
/// ServiceDaemon — the long-lived sampling service process behind
/// `bgls_serve` (tools/): a JobScheduler fronted by an ndjson socket
/// protocol (service/protocol.h) over a Unix-domain or TCP endpoint.
///
/// The daemon is a handler table plus its state (scheduler, journal,
/// journal-replayed outcomes); LineServer (service/line_server.h) owns
/// the socket and the threads: one acceptor, one handler thread per
/// connection.
/// The daemon is embeddable: tests and examples/service_client.cpp
/// start one in-process with start()/stop() and drive it through
/// ServiceClient over a real socket, which is exactly the code path the
/// standalone binary runs.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "service/journal.h"
#include "service/line_server.h"
#include "service/report.h"
#include "service/scheduler.h"
#include "service/socket.h"
#include "util/json_parser.h"

namespace bgls::service {

/// Construction knobs for the daemon.
struct DaemonOptions {
  /// Where to listen (unix:/path or tcp:host:port; tcp port 0 picks an
  /// ephemeral port, readable from endpoint() after start()).
  Endpoint endpoint;
  /// Scheduler sizing (runner threads, queue depth).
  SchedulerOptions scheduler{};
  /// Write-ahead journal path (service/journal.h); empty = no journal.
  /// start() replays it (answering queries for journaled terminal jobs
  /// from memory, re-enqueueing incomplete jobs from their last
  /// checkpoint), compacts it, then appends every subsequent
  /// submit/terminal/checkpoint/evict event fsync-before-ack.
  std::string journal_path;
  /// Request lines slower than this emit a structured warn log line
  /// (obs/log.h) carrying the op and, when resolvable, the job's trace
  /// id. 0 disables. Wait/stream ops include time spent following the
  /// job, so thresholds below the typical job runtime flag every wait.
  std::uint64_t slow_request_ms = 0;
};

/// The service process: scheduler + journal behind a LineServer.
class ServiceDaemon {
 public:
  explicit ServiceDaemon(DaemonOptions options);

  /// stop()s if still running.
  ~ServiceDaemon();

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  /// Binds the endpoint and starts accepting. Throws IoError on bind
  /// failures.
  void start();

  /// Stops accepting, disconnects every client, and joins all handler
  /// threads. Jobs already submitted keep their state (the scheduler
  /// lives until destruction). Idempotent.
  void stop();

  /// Blocks until a client sent the `shutdown` op (or stop() ran).
  /// The bgls_serve main loop: start(); wait_for_shutdown(); stop().
  void wait_for_shutdown();

  /// Makes wait_for_shutdown() return — the graceful-exit trigger for
  /// signal handlers (bgls_serve's SIGTERM/SIGINT watcher).
  void request_shutdown();

  /// The bound endpoint (TCP: with the resolved ephemeral port).
  [[nodiscard]] const Endpoint& endpoint() const {
    return server_.endpoint();
  }

  [[nodiscard]] JobScheduler& scheduler() { return scheduler_; }

 private:
  using Request = LineServer::Request;

  [[nodiscard]] LineServer::Handlers handlers();

  void handle_submit(const Request& request);
  void handle_status(const Request& request);
  void handle_cancel(const Request& request);
  void handle_result_or_wait(const Request& request, bool wait);
  void handle_stream(const Request& request);
  void handle_stats(const Request& request);
  /// Prometheus text exposition of the process-wide telemetry registry,
  /// embedded as the "metrics" string field of the response line.
  void handle_metrics(const Request& request);
  /// The job's span tree ({"trace_id":...,"spans":[...]}); a fleet
  /// front stitches these worker spans with its own placement spans.
  void handle_trace(const Request& request);

  /// What a terminal job hands back: the canonical report on kDone, the
  /// error otherwise. Live jobs convert from JobInfo (outcome_of); jobs
  /// that ended in an earlier life are restored from the journal.
  struct TerminalOutcome {
    JobState state = JobState::kDone;
    std::string error;
    std::string backend;
    std::string selection_reason;
    std::string report;
  };

  /// A terminal live job's outcome (its report built from the job's
  /// report context).
  [[nodiscard]] static TerminalOutcome outcome_of(const JobInfo& info);
  /// Writes the terminal frame of result/wait/stream: the report on
  /// kDone, the state as error code otherwise. `type` tags stream
  /// frames ("result") and is omitted when empty.
  static void send_outcome(std::uint64_t id, const TerminalOutcome& outcome,
                           Socket& socket, const std::string& type);
  /// The journal's `terminal` record for a job.
  [[nodiscard]] static std::string terminal_record(
      std::uint64_t id, const TerminalOutcome& outcome);

  /// send_outcome for a live job, or `not_done` while it is not
  /// terminal.
  void send_result(const JobInfo& info, Socket& socket,
                   const std::string& type);

  /// The job's trace id for slow-request logs (0 when unknown).
  [[nodiscard]] std::uint64_t trace_of(std::uint64_t job) const;

  /// Installs the journal event hooks on options_.scheduler (must run
  /// before scheduler_ is constructed — see the member order below).
  [[nodiscard]] SchedulerOptions& hooked_scheduler_options();
  /// Replays + compacts the journal, opens it for appending, and
  /// re-enqueues incomplete jobs (called from start()).
  void replay_journal();
  /// The outcome of a job that ended in an earlier life, if `id` is one.
  [[nodiscard]] std::optional<TerminalOutcome> replayed(std::uint64_t id) const;
  /// Answers a request for a journal-replayed terminal job; false when
  /// the id is not one.
  bool send_replayed(std::uint64_t id, Socket& socket,
                     const std::string& type);

  DaemonOptions options_;
  /// Declared before scheduler_ so it outlives it: scheduler runner
  /// threads append through the hooks until ~JobScheduler joins them.
  Journal journal_;
  JobScheduler scheduler_;

  /// Journal-replayed terminal jobs, at most max_retained_jobs of them
  /// (start() fills it; read-mostly).
  mutable std::mutex replayed_mutex_;
  std::map<std::uint64_t, TerminalOutcome> replayed_;

  /// Declared last: its handler threads use every member above, and
  /// stop() joins them before any of those is destroyed.
  LineServer server_;
};

}  // namespace bgls::service
