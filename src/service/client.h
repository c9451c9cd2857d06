/// \file client.h
/// ServiceClient — a thin typed wrapper over the bgls service protocol
/// (service/protocol.h), used by the `bgls_client` CLI, the service
/// example, and the end-to-end tests. One client owns one connection;
/// requests are synchronous (send a line, read the response line).
/// Not thread-safe: use one client per thread (connections are cheap).

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "service/protocol.h"
#include "service/socket.h"
#include "util/json_parser.h"

namespace bgls::service {

/// Synchronous protocol client (see file comment).
class ServiceClient {
 public:
  /// Connects immediately; throws IoError on failure.
  explicit ServiceClient(const Endpoint& endpoint);

  /// Sends one raw request line and returns the parsed response
  /// (ok=true or ok=false alike). Throws IoError on transport errors.
  JsonValue roundtrip(const std::string& line);

  /// roundtrip() without the parse: the response line verbatim (no
  /// trailing newline). Drives server-specific ops the typed API does
  /// not cover (the fleet front's `fleet`/`drain`/`undrain`).
  std::string roundtrip_text(const std::string& line);

  /// Submits a job; returns its id. Throws ServiceError on rejection.
  std::uint64_t submit(const SubmitArgs& args);

  /// One status snapshot ({"state": ..., "completed": ..., ...}).
  JsonValue status(std::uint64_t job);

  /// Blocks server-side until the job is terminal (or timeout_ms
  /// passed; 0 = no timeout) and returns the raw response.
  JsonValue wait(std::uint64_t job, std::uint64_t timeout_ms = 0);

  /// The canonical bgls_run report of a finished job — byte-identical
  /// to the CLI output for the same input/seed. Throws ServiceError
  /// with code "cancelled"/"timeout"/"failed"/"not_done" otherwise.
  std::string result_report(std::uint64_t job);

  /// Like result_report but waits for completion first.
  std::string wait_report(std::uint64_t job, std::uint64_t timeout_ms = 0);

  /// Requests cancellation; true when the job was still cancellable.
  bool cancel(std::uint64_t job);

  /// Streams the job: `on_progress` fires per progress frame; returns
  /// the final report on success, throws ServiceError otherwise.
  std::string stream(std::uint64_t job,
                     const std::function<void(const JsonValue&)>& on_progress);

  /// The scheduler's aggregate counters.
  JsonValue stats();

  /// Prometheus text exposition of the server's telemetry registry
  /// (kernel/engine/scheduler/daemon series).
  std::string metrics_text();

  /// The job's span tree (the `trace` op): a response carrying
  /// "trace_id" and a "spans" array — parse with parse_spans(). Against
  /// a fleet front this is the merged fleet+worker tree.
  JsonValue trace(std::uint64_t job);

  /// Tails the server's structured-log ring (the `logs` op): response
  /// carries "lines", an array of ndjson strings. `level` filters
  /// ("debug"/"info"/"warn"/"error"), trace_id nonzero filters to one
  /// trace, limit caps the tail length (0 = server default of 100).
  JsonValue logs(const std::string& level = "debug",
                 std::uint64_t trace_id = 0, std::uint64_t limit = 0);

  /// Asks the daemon to shut down (it still answers ok first).
  void shutdown_server();

 private:
  /// Throws ServiceError when `response` has ok=false.
  static void require_ok(const JsonValue& response);
  /// Extracts the "report" field of a terminal response (or throws the
  /// mapped ServiceError).
  static std::string extract_report(const JsonValue& response);

  Socket socket_;
};

}  // namespace bgls::service
