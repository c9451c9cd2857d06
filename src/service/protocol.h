/// \file protocol.h
/// The bgls service wire protocol, shared by the `bgls_serve` daemon,
/// the `bgls_client` tool/library, and the tests.
///
/// Transport: newline-delimited JSON (ndjson) over a Unix-domain or TCP
/// stream socket — one request object per line, one response object per
/// line (the `stream` op additionally emits one progress object per
/// line before its final response). Requests carry an "op" field:
///
///   {"op":"submit","qasm":"...", "reps":N, "seed":N, "backend":"auto",
///    "threads":N, "optimize":false, "no_batch":false,
///    "priority":N, "tenant":"...", "deadline_ms":N, "progress_every":N}
///   {"op":"status","job":N}        {"op":"cancel","job":N}
///   {"op":"wait","job":N,"timeout_ms":N}
///   {"op":"result","job":N}        {"op":"stream","job":N}
///   {"op":"stats"}                 {"op":"shutdown"}
///   {"op":"metrics"}   — Prometheus text exposition of the telemetry
///                        registry (obs/), escaped in "metrics"
///   {"op":"trace","job":N}  — the job's span tree: "trace_id" plus a
///                        "spans" array of {id,parent,name,index,
///                        seconds}. A fleet front stitches its own
///                        placement/proxy spans with the worker's.
///   {"op":"logs","level":"warn","trace_id":N,"limit":N} — tails the
///                        server's structured-log ring (obs/log.h) as
///                        a "lines" array of ndjson strings; level and
///                        trace_id filter, limit caps (default 100).
///
/// Submit additionally accepts optional "trace_id"/"parent_span_id"
/// fields — the cross-process trace context. The job's spans derive
/// their IDs from trace_id and hang under parent_span_id, so a caller
/// (fleet front, client) can stitch the worker's spans into its own
/// trace. Observation-only: context never changes sampled output or
/// result-cache identity.
///
/// Every response carries "ok" (bool); failures add "code" (a stable
/// slug) and "error" (a human-readable message). The slugs:
///   request:   parse_error, unknown_op, bad_request, unknown_job,
///              not_done, line_too_long (the connection then closes,
///              unless a front found only the forwarded line too long),
///              too_many_connections (sent in place of serving, or by a
///              front with no descriptor left for a worker link)
///   admission: queue_full, tenant_quota, over_budget, journal_error
///   job state: cancelled, timeout, failed
///   fleet:     worker_down (unknown_job is the fleet's answer for an
///              id it never routed; a worker answers bad_request)
/// `result`/`wait` responses embed the canonical bgls_run report
/// (service/report.h) as an escaped string in "report", so clients can
/// reproduce the CLI's byte-exact output. Job lifecycle states on the
/// wire are job_state_name() strings: queued → running → done | failed
/// | cancelled | timeout.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/run_types.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace bgls::service {

/// A request that failed with a protocol error code ("cancelled",
/// "worker_down", ...). Clients throw it when a server answered
/// ok=false; server handlers throw it to answer with that code.
class ServiceError : public Error {
 public:
  ServiceError(std::string code, const std::string& message)
      : Error(message), code_(std::move(code)) {}

  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Client-side submission knobs (the JSON fields of the submit op).
struct SubmitArgs {
  std::string qasm;
  std::string backend = "auto";
  std::uint64_t repetitions = 1024;
  std::uint64_t seed = 0;
  int threads = 1;
  bool optimize = false;
  /// Disable dictionary batching (per-trajectory sampling): the knob
  /// that makes unitary circuits stream partial histograms and react
  /// to cancellation at repetition granularity.
  bool no_batch = false;
  int priority = 0;
  /// Owning tenant for quotas and weighted-fair scheduling; "" = the
  /// anonymous default tenant (the field is omitted from the wire).
  std::string tenant;
  std::uint64_t deadline_ms = 0;
  std::uint64_t progress_every = 0;
  /// Cross-process trace context (0 = none; fields omitted from the
  /// wire). parent_span_id only travels alongside a nonzero trace_id.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// Serializes a submit request as one ndjson line (with trailing \n).
[[nodiscard]] std::string submit_request_line(const SubmitArgs& args);

/// One-field request lines ({"op":...,"job":...}).
[[nodiscard]] std::string job_request_line(const std::string& op,
                                           std::uint64_t job);
[[nodiscard]] std::string wait_request_line(std::uint64_t job,
                                            std::uint64_t timeout_ms);
[[nodiscard]] std::string op_request_line(const std::string& op);
[[nodiscard]] std::string logs_request_line(const std::string& level,
                                            std::uint64_t trace_id,
                                            std::uint64_t limit);

/// Server-side: the request's required "job" id. Throws ValueError when
/// it is absent or not an unsigned integer.
[[nodiscard]] std::uint64_t job_field(const JsonValue& message);

/// Daemon-side: builds the RunRequest for a parsed submit message
/// (parses the embedded QASM). Throws ParseError/ValueError with the
/// offending field.
[[nodiscard]] RunRequest parse_submit(const JsonValue& message);

/// Serializes spans as an array value (caller writes the "spans" key):
/// [{"id":...,"parent":...,"name":"...","index":...,"seconds":...}].
/// IDs are u64 — JsonWriter/JsonValue round-trip them exactly.
void write_spans(JsonWriter& json, const std::vector<obs::SpanRecord>& spans);

/// Parses a trace response's "spans" array (absent → empty).
[[nodiscard]] std::vector<obs::SpanRecord> parse_spans(
    const JsonValue& response);

}  // namespace bgls::service
