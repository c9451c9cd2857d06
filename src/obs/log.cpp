#include "obs/log.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "util/json_writer.h"

namespace bgls::obs {

std::string_view log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

bool parse_log_level(std::string_view text, LogLevel* out) noexcept {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn" || text == "warning") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

std::string format_log_line(const LogRecord& record) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("ts").value(record.ts);
  json.key("level").value(log_level_name(record.level));
  json.key("component").value(record.component);
  if (record.trace_id != 0) json.key("trace_id").value(record.trace_id);
  if (record.job_id != 0) json.key("job_id").value(record.job_id);
  json.key("msg").value(record.message);
  if (!record.fields.empty()) {
    // Nested object keeps caller keys from colliding with the
    // envelope's ("msg", "level", ...).
    json.key("fields").begin_object();
    for (const LogField& field : record.fields) {
      json.key(field.key);
      switch (field.kind) {
        case LogField::Kind::kString:
          json.value(field.text);
          break;
        case LogField::Kind::kUint:
          json.value(field.uint_value);
          break;
        case LogField::Kind::kInt:
          json.value(field.int_value);
          break;
        case LogField::Kind::kDouble:
          json.value(field.double_value);
          break;
      }
    }
    json.end_object();
  }
  json.end_object();
  return os.str();
}

Logger& Logger::global() {
  static Logger* instance = new Logger();  // leaked: outlives all threads
  return *instance;
}

Logger::~Logger() { close_file(); }

void Logger::set_level(LogLevel level) noexcept {
  level_.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel Logger::level() const noexcept {
  return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
}

void Logger::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

void Logger::set_stderr_sink(bool on) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stderr_sink_ = on;
}

bool Logger::open_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  file_path_ = path;
  return true;
}

void Logger::reopen() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_path_.empty()) return;
  if (file_ != nullptr) std::fclose(file_);
  // If rotation raced us out of the directory, drop the sink rather
  // than crash-loop on every line; the ring keeps collecting.
  file_ = std::fopen(file_path_.c_str(), "a");
}

void Logger::close_file() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  file_path_.clear();
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message, std::vector<LogField> fields,
                 std::uint64_t trace_id, std::uint64_t job_id) noexcept {
  if (!enabled()) return;
  if (static_cast<int>(level) < level_.load(std::memory_order_relaxed)) {
    return;
  }
  try {
    LogRecord record;
    record.ts = std::chrono::duration<double>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count();
    record.level = level;
    record.component = std::string(component);
    record.trace_id = trace_id;
    record.job_id = job_id;
    record.message = std::string(message);
    record.fields = std::move(fields);

    std::string line;
    bool to_stderr = false;
    std::FILE* file = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      to_stderr = stderr_sink_;
      file = file_;
      if (to_stderr || file != nullptr) line = format_log_line(record);
      ring_.push_back(std::move(record));
      while (ring_.size() > capacity_) ring_.pop_front();
      ++emitted_;
      // Sinks write under the lock: interleaved lines from concurrent
      // emitters would corrupt the ndjson stream, and per-line flush
      // keeps rotation (reopen) and tail -f honest. Logging is warm
      // path at most — never inside sampling loops.
      if (file != nullptr) {
        std::fputs(line.c_str(), file);
        std::fputc('\n', file);
        std::fflush(file);
      }
    }
    if (to_stderr) {
      line.push_back('\n');
      std::fputs(line.c_str(), stderr);
    }
  } catch (...) {
    // Logging must never take down the serving path.
  }
}

std::vector<LogRecord> Logger::tail(std::size_t max_records, LogLevel min_level,
                                    std::uint64_t trace_id) const {
  std::vector<LogRecord> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < max_records;
       ++it) {
    if (static_cast<int>(it->level) < static_cast<int>(min_level)) continue;
    if (trace_id != 0 && it->trace_id != trace_id) continue;
    out.push_back(*it);
  }
  std::reverse(out.begin(), out.end());  // chronological, newest last
  return out;
}

std::uint64_t Logger::emitted() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

void Logger::reset_for_testing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  capacity_ = 1024;
  emitted_ = 0;
  stderr_sink_ = false;
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  file_path_.clear();
  level_.store(static_cast<int>(LogLevel::kInfo), std::memory_order_relaxed);
}

}  // namespace bgls::obs
