/// \file log.h
/// Structured, leveled ndjson logging for the serving stack.
///
/// One log line is one JSON object: wall-clock timestamp, level,
/// component, optional trace/job correlation IDs, a message, and
/// free-form key=value fields. Lines land in a bounded in-memory ring
/// buffer (tail-able over the wire via the `logs` protocol op) and,
/// optionally, on stderr and/or an append-mode file sink. The file
/// sink reopens on demand (SIGHUP in the tools) so external log
/// rotation works without restarting the daemon.
///
/// Contract, matching the rest of src/obs/:
///  - observation-only: logging never reads or advances RNG state, so
///    sampled histograms are bit-identical with logging on or off;
///  - runtime-gated on obs::enabled() and the configured level, with
///    the level check a single relaxed atomic load on the fast path;
///  - never throws: a failed sink write is dropped, not propagated
///    into the serving path.
///
/// The wall clock is deliberate — log lines are for correlation with
/// the outside world (rotated files, other services) — and is why
/// src/obs/ is on the lint nondet-source allowlist: timestamps never
/// feed sampling.

#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"  // enabled()

namespace bgls::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" / "info" / "warn" / "error".
[[nodiscard]] std::string_view log_level_name(LogLevel level) noexcept;

/// Inverse of log_level_name; returns false (and leaves *out alone)
/// for an unrecognized spelling.
[[nodiscard]] bool parse_log_level(std::string_view text,
                                   LogLevel* out) noexcept;

/// One key=value attachment. The value keeps its JSON type (string,
/// integer, or double) through serialization.
struct LogField {
  enum class Kind { kString, kUint, kInt, kDouble };

  LogField(std::string_view k, std::string_view v)
      : key(k), text(v), kind(Kind::kString) {}
  LogField(std::string_view k, const char* v)
      : key(k), text(v), kind(Kind::kString) {}
  LogField(std::string_view k, const std::string& v)
      : key(k), text(v), kind(Kind::kString) {}
  LogField(std::string_view k, std::uint64_t v)
      : key(k), uint_value(v), kind(Kind::kUint) {}
  LogField(std::string_view k, std::uint32_t v)
      : key(k), uint_value(v), kind(Kind::kUint) {}
  LogField(std::string_view k, int v)
      : key(k), int_value(v), kind(Kind::kInt) {}
  LogField(std::string_view k, std::int64_t v)
      : key(k), int_value(v), kind(Kind::kInt) {}
  LogField(std::string_view k, double v)
      : key(k), double_value(v), kind(Kind::kDouble) {}

  std::string key;
  std::string text;
  std::uint64_t uint_value = 0;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  Kind kind;
};

/// One emitted record, as stored in the ring buffer.
struct LogRecord {
  double ts = 0.0;  // seconds since the Unix epoch (wall clock)
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::uint64_t trace_id = 0;  // 0 = not request-scoped
  std::uint64_t job_id = 0;    // 0 = not job-scoped
  std::string message;
  std::vector<LogField> fields;
};

/// Serializes one record as a single compact ndjson line (no trailing
/// newline): {"ts":...,"level":"warn","component":"scheduler",
/// "trace_id":...,"job_id":...,"msg":"...","fields":{...}}.
/// trace_id/job_id are omitted when 0; "fields" is omitted when empty.
/// Pure function — the golden-line test pins its output.
[[nodiscard]] std::string format_log_line(const LogRecord& record);

/// Process-wide logger: bounded ring + optional stderr/file sinks.
/// All methods are thread-safe.
class Logger {
 public:
  static Logger& global();

  /// Drops records below `level`. Default kInfo.
  void set_level(LogLevel level) noexcept;
  [[nodiscard]] LogLevel level() const noexcept;

  /// Ring capacity in records (default 1024). Shrinking evicts oldest.
  void set_capacity(std::size_t capacity);

  /// Mirror emitted lines to stderr (off by default).
  void set_stderr_sink(bool on);

  /// Opens `path` in append mode as the file sink (closing any
  /// previous one). Returns false if the file cannot be opened.
  bool open_file(const std::string& path);

  /// Reopens the current file-sink path, for SIGHUP-driven rotation.
  /// No-op when no file sink is configured.
  void reopen();

  void close_file();

  /// Records and emits, subject to enabled() and the level gate.
  void log(LogLevel level, std::string_view component,
           std::string_view message, std::vector<LogField> fields = {},
           std::uint64_t trace_id = 0, std::uint64_t job_id = 0) noexcept;

  /// Newest-last slice of the ring: up to `max_records` most recent
  /// records at or above `min_level`, and matching `trace_id` when
  /// nonzero.
  [[nodiscard]] std::vector<LogRecord> tail(std::size_t max_records,
                                            LogLevel min_level,
                                            std::uint64_t trace_id = 0) const;

  /// Total records accepted (post-gate) since construction/reset.
  [[nodiscard]] std::uint64_t emitted() const noexcept;

  /// Tests only: empty ring, level kInfo, sinks closed, counter zeroed.
  void reset_for_testing();

 private:
  Logger() = default;
  ~Logger();

  mutable std::mutex mutex_;
  std::deque<LogRecord> ring_;
  std::size_t capacity_ = 1024;
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::uint64_t emitted_ = 0;
  bool stderr_sink_ = false;
  std::FILE* file_ = nullptr;
  std::string file_path_;
};

/// Convenience front door: Logger::global().log(...).
inline void log(LogLevel level, std::string_view component,
                std::string_view message, std::vector<LogField> fields = {},
                std::uint64_t trace_id = 0, std::uint64_t job_id = 0) noexcept {
  Logger::global().log(level, component, message, std::move(fields), trace_id,
                       job_id);
}

}  // namespace bgls::obs
