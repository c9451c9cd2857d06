/// \file fleet.h
/// FleetDaemon — a load-balancing front for N `bgls_serve` workers.
///
/// One fleet process listens on a single endpoint and speaks the exact
/// client protocol (service/protocol.h); behind it, each worker is an
/// independent bgls_serve daemon with its own scheduler, journal, and
/// telemetry. Horizontal scale without a shared-state control plane:
///
///  - `submit` is routed to the live, undrained worker with the fewest
///    in-flight fleet jobs (ties broken round-robin). The worker's job
///    id is mapped to a fleet-global id, so clients see one id space
///    regardless of placement. Determinism makes placement invisible:
///    the same submission returns a byte-identical report from every
///    worker.
///  - Job-addressed ops (`status`/`cancel`/`result`/`wait`/`stream`)
///    are proxied to the owning worker with the ids translated both
///    ways. Ops for jobs on a dead worker fail with the retryable
///    `worker_down` slug.
///  - `stats` aggregates every live worker's counters (summed, with
///    per-backend/per-tenant maps merged); `fleet` (a fleet-only op)
///    reports per-worker health/draining/in-flight.
///  - `drain`/`undrain` (fleet-only, {"worker":N}) stop/resume routing
///    *new* submissions to a worker; in-flight jobs keep being proxied,
///    so a drained worker can finish its work and be restarted without
///    failing clients.
///  - A health thread pings each worker's `stats` endpoint; a worker
///    that stops answering is marked dead (skipped for placement, its
///    jobs answer `worker_down`) and rejoins automatically when it
///    answers again.
///
/// `shutdown` stops the fleet front only — workers have their own
/// lifecycles (that is what draining is for).
///
/// The front is a handler table plus its state (workers, routes, the
/// health thread); LineServer (service/line_server.h) owns the socket
/// and the threads, one per client connection. Each connection opens
/// its own link to a worker on first use, so a blocking op (wait,
/// stream) held by one client never stalls another's traffic.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "service/line_server.h"
#include "service/socket.h"
#include "util/json_parser.h"

namespace bgls::service {

/// Construction knobs for the fleet front.
struct FleetOptions {
  /// Where the fleet listens (the clients' single endpoint).
  Endpoint endpoint;
  /// The worker daemons' endpoints (at least one).
  std::vector<Endpoint> workers;
  /// Cadence of the health thread's per-worker stats pings.
  std::chrono::milliseconds health_interval{500};
  /// Request lines slower than this emit a structured warn log line
  /// (obs/log.h) with the op and the job's trace id when known. 0
  /// disables. Wait/stream ops include the proxied follow time.
  std::uint64_t slow_request_ms = 0;
};

/// The fleet process: proxy handlers behind a LineServer, plus the
/// health checker (see file comment).
class FleetDaemon {
 public:
  explicit FleetDaemon(FleetOptions options);

  /// stop()s if still running.
  ~FleetDaemon();

  FleetDaemon(const FleetDaemon&) = delete;
  FleetDaemon& operator=(const FleetDaemon&) = delete;

  /// Binds the endpoint and starts accepting + health checks. Throws
  /// IoError on bind failures.
  void start();

  /// Stops accepting, disconnects every client, joins all threads.
  /// Idempotent.
  void stop();

  /// Blocks until a client sent `shutdown` (or stop()/
  /// request_shutdown() ran).
  void wait_for_shutdown();

  /// Makes wait_for_shutdown() return (signal handlers).
  void request_shutdown();

  /// The bound endpoint (TCP: with the resolved ephemeral port).
  [[nodiscard]] const Endpoint& endpoint() const {
    return server_.endpoint();
  }

  /// Point-in-time per-worker view (the `fleet` op's payload).
  struct WorkerStatus {
    Endpoint endpoint;
    bool alive = true;
    bool draining = false;
    /// Fleet jobs currently placed on the worker and not yet observed
    /// terminal.
    std::uint64_t in_flight = 0;
    /// Total submissions routed to the worker.
    std::uint64_t placed = 0;
  };
  [[nodiscard]] std::vector<WorkerStatus> workers() const;

 private:
  /// Shared per-worker state. alive/draining are owned by the health
  /// thread / drain ops; counters by the placement path.
  struct Worker {
    Endpoint endpoint;
    std::atomic<bool> alive{true};
    std::atomic<bool> draining{false};
    std::atomic<std::uint64_t> in_flight{0};
    std::atomic<std::uint64_t> placed{0};
  };

  /// Where a fleet-global job id lives.
  struct Route {
    std::size_t worker = 0;
    std::uint64_t remote_id = 0;
    /// Set once a terminal response was proxied (drops in_flight).
    bool finished = false;
    /// The fleet side of the job's distributed trace: fleet.place /
    /// fleet.proxy spans, stitched with the worker's spans by the
    /// `trace` op.
    std::shared_ptr<obs::Trace> trace;
  };

  using Request = LineServer::Request;

  [[nodiscard]] LineServer::Handlers handlers();

  void handle_submit(const Request& request);
  /// status/cancel/result/wait/stream: proxied with ids translated.
  void handle_job_op(const Request& request);
  void handle_stats(const Request& request);
  /// Fleet-wide Prometheus scrape: every live worker's exposition with
  /// a worker="N" label injected into each series, plus the fleet's
  /// own registry — one scrape sees the whole fleet.
  void handle_metrics(const Request& request);
  /// The merged span tree: the route's fleet spans stitched with the
  /// owning worker's spans under one trace id.
  void handle_trace(const Request& request);
  void handle_fleet(const Request& request);
  /// drain/undrain, by the request's op.
  void handle_drain(const Request& request);
  void health_loop();
  /// Sends `line` (when non-empty) to `worker` over this connection's
  /// link, connected on first use, and returns the worker's next answer
  /// line. A worker that cannot be reached or hangs up has its link
  /// closed and is marked down; the request fails with worker_down. A
  /// worker that refuses the link (too_many_connections, line_too_long)
  /// stays up: its answer is returned and the link closed. A line over
  /// the cap, or a front out of descriptors, fails without touching the
  /// link (line_too_long, too_many_connections).
  std::string call(std::vector<Socket>& links, std::size_t worker,
                   std::string_view line);
  /// Every live worker's ok answer to `op`, by worker index; a worker
  /// that fails is marked down and left out.
  std::vector<std::pair<std::size_t, JsonValue>> ask_live_workers(
      std::vector<Socket>& links, const std::string& op);
  /// The job's route; fails with unknown_job for an id never routed and
  /// with worker_down when its worker is down.
  [[nodiscard]] Route live_route(std::uint64_t global_id) const;
  /// Least-loaded live undrained worker, or npos.
  [[nodiscard]] std::size_t pick_worker_locked() const;
  /// Marks a terminal proxied response against the route's in_flight
  /// and, on the first terminal frame, records the route's fleet.proxy
  /// span with `proxy_seconds` (time spent proxying the op that
  /// observed the terminal state).
  void note_finished(std::uint64_t global_id, const JsonValue& response,
                     double proxy_seconds);
  /// The job's fleet trace id for slow-request logs (0 when unknown).
  [[nodiscard]] std::uint64_t trace_of(std::uint64_t global_id) const;

  FleetOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex routes_mutex_;
  std::map<std::uint64_t, Route> routes_;
  std::uint64_t next_global_id_ = 1;
  /// Round-robin cursor for placement ties.
  std::size_t placement_cursor_ = 0;

  /// Declared after the state its handler threads use; stop() joins
  /// them (and health_) before any of it is destroyed.
  LineServer server_;
  std::thread health_;
};

}  // namespace bgls::service
