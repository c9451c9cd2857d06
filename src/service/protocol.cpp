#include "service/protocol.h"

#include <limits>
#include <sstream>

#include "qasm/qasm.h"
#include "util/error.h"

namespace bgls::service {
namespace {

/// A negative-friendly integer field ("priority" may be negative; JSON
/// numbers parse as doubles there). Range-checked *before* the cast:
/// socket input is untrusted, and casting an out-of-range double to
/// int is undefined behavior.
int int_field_or(const JsonValue& message, const std::string& key,
                 int fallback) {
  const JsonValue* value = message.find(key);
  if (value == nullptr || value->is_null()) return fallback;
  const double number = value->as_double();
  BGLS_REQUIRE(number >= static_cast<double>(std::numeric_limits<int>::min()) &&
                   number <= static_cast<double>(std::numeric_limits<int>::max()),
               "field '", key, "' is out of integer range");
  const int as_int = static_cast<int>(number);
  BGLS_REQUIRE(static_cast<double>(as_int) == number, "field '", key,
               "' must be an integer");
  return as_int;
}

}  // namespace

std::string submit_request_line(const SubmitArgs& args) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("op").value("submit");
  json.key("qasm").value(args.qasm);
  json.key("backend").value(args.backend);
  json.key("reps").value(args.repetitions);
  json.key("seed").value(args.seed);
  json.key("threads").value(args.threads);
  json.key("optimize").value(args.optimize);
  json.key("no_batch").value(args.no_batch);
  json.key("priority").value(args.priority);
  if (!args.tenant.empty()) json.key("tenant").value(args.tenant);
  json.key("deadline_ms").value(args.deadline_ms);
  json.key("progress_every").value(args.progress_every);
  if (args.trace_id != 0) {
    json.key("trace_id").value(args.trace_id);
    if (args.parent_span_id != 0) {
      json.key("parent_span_id").value(args.parent_span_id);
    }
  }
  json.end_object();
  os << "\n";
  return os.str();
}

std::string job_request_line(const std::string& op, std::uint64_t job) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("op").value(op);
  json.key("job").value(job);
  json.end_object();
  os << "\n";
  return os.str();
}

std::string wait_request_line(std::uint64_t job, std::uint64_t timeout_ms) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("op").value("wait");
  json.key("job").value(job);
  if (timeout_ms > 0) json.key("timeout_ms").value(timeout_ms);
  json.end_object();
  os << "\n";
  return os.str();
}

std::string op_request_line(const std::string& op) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("op").value(op);
  json.end_object();
  os << "\n";
  return os.str();
}

std::string logs_request_line(const std::string& level, std::uint64_t trace_id,
                              std::uint64_t limit) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("op").value("logs");
  if (!level.empty()) json.key("level").value(level);
  if (trace_id != 0) json.key("trace_id").value(trace_id);
  if (limit != 0) json.key("limit").value(limit);
  json.end_object();
  os << "\n";
  return os.str();
}

std::uint64_t job_field(const JsonValue& message) {
  const JsonValue* job = message.find("job");
  BGLS_REQUIRE(job != nullptr, "request needs a 'job' field");
  return job->as_u64();
}

RunRequest parse_submit(const JsonValue& message) {
  const JsonValue* qasm = message.find("qasm");
  BGLS_REQUIRE(qasm != nullptr, "submit needs a 'qasm' field");
  RunRequest request =
      RunRequest()
          .with_circuit(parse_qasm(qasm->as_string()))
          .with_repetitions(message.u64_or("reps", 1024))
          .with_seed(message.u64_or("seed", 0))
          .with_threads(int_field_or(message, "threads", 1))
          .with_optimization(message.bool_or("optimize", false))
          .with_sample_parallelization(!message.bool_or("no_batch", false))
          .with_priority(int_field_or(message, "priority", 0))
          .with_tenant(message.string_or("tenant", ""))
          .with_deadline_ms(message.u64_or("deadline_ms", 0));
  request.progress.every = message.u64_or("progress_every", 0);
  request.with_trace_context(message.u64_or("trace_id", 0),
                             message.u64_or("parent_span_id", 0));
  const std::string backend = message.string_or("backend", "auto");
  // "auto" keeps the RunRequest default (kAuto routing); anything else
  // is a registry name — same contract as the bgls_run CLI.
  if (detail::ascii_lower(backend) != "auto") {
    request.with_backend(backend);
  }
  return request;
}

void write_spans(JsonWriter& json, const std::vector<obs::SpanRecord>& spans) {
  json.begin_array();
  for (const obs::SpanRecord& span : spans) {
    json.begin_object();
    json.key("id").value(span.id);
    json.key("parent").value(span.parent);
    json.key("name").value(span.name);
    json.key("index").value(span.index);
    json.key("seconds").value(span.seconds);
    json.end_object();
  }
  json.end_array();
}

std::vector<obs::SpanRecord> parse_spans(const JsonValue& response) {
  std::vector<obs::SpanRecord> spans;
  const JsonValue* array = response.find("spans");
  if (array == nullptr) return spans;
  for (const JsonValue& item : array->items()) {
    obs::SpanRecord span;
    span.id = item.u64_or("id", 0);
    span.parent = item.u64_or("parent", 0);
    span.name = item.string_or("name", "");
    span.index = item.u64_or("index", 0);
    const JsonValue* seconds = item.find("seconds");
    span.seconds = seconds != nullptr ? seconds->as_double() : 0.0;
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace bgls::service
