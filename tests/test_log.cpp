/// \file test_log.cpp
/// The structured logger (obs/log.h): ndjson golden lines, level
/// parsing and filtering, ring-buffer bounds and tail filters, file
/// sink + reopen (rotation). The suite runs under TSan in CI (the
/// logger is hammered from many threads by the serving stack).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/json_parser.h"

namespace bgls {
namespace {

using obs::LogField;
using obs::Logger;
using obs::LogLevel;
using obs::LogRecord;

/// Resets the process-global logger around every test so suites cannot
/// leak ring contents or sink configuration into each other.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::global().reset_for_testing(); }
  void TearDown() override { Logger::global().reset_for_testing(); }
};

TEST(LogLevelNames, RoundTripAndAliases) {
  EXPECT_EQ(obs::log_level_name(LogLevel::kDebug), "debug");
  EXPECT_EQ(obs::log_level_name(LogLevel::kInfo), "info");
  EXPECT_EQ(obs::log_level_name(LogLevel::kWarn), "warn");
  EXPECT_EQ(obs::log_level_name(LogLevel::kError), "error");

  LogLevel level = LogLevel::kDebug;
  ASSERT_TRUE(obs::parse_log_level("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  ASSERT_TRUE(obs::parse_log_level("warning", &level));  // alias
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_FALSE(obs::parse_log_level("verbose", &level));
  EXPECT_EQ(level, LogLevel::kWarn);  // untouched on failure
}

TEST(FormatLogLine, GoldenLine) {
  // format_log_line is pure, so the full envelope is pinned byte for
  // byte (ts chosen exactly representable in binary so %.17g prints it
  // back verbatim).
  LogRecord record;
  record.ts = 1723111845.25;
  record.level = LogLevel::kWarn;
  record.component = "scheduler";
  record.trace_id = 424242;
  record.job_id = 7;
  record.message = "admission rejected";
  record.fields.emplace_back("reason", "queue_full");
  record.fields.emplace_back("depth", std::uint64_t{64});
  record.fields.emplace_back("delta", -2);
  record.fields.emplace_back("seconds", 0.5);
  EXPECT_EQ(obs::format_log_line(record),
            "{\"ts\":1723111845.25,\"level\":\"warn\","
            "\"component\":\"scheduler\",\"trace_id\":424242,\"job_id\":7,"
            "\"msg\":\"admission rejected\",\"fields\":{"
            "\"reason\":\"queue_full\",\"depth\":64,\"delta\":-2,"
            "\"seconds\":0.5}}");
}

TEST(FormatLogLine, OmitsZeroIdsAndEmptyFields) {
  LogRecord record;
  record.ts = 2.0;
  record.level = LogLevel::kInfo;
  record.component = "daemon";
  record.message = "ready";
  EXPECT_EQ(obs::format_log_line(record),
            "{\"ts\":2,\"level\":\"info\",\"component\":\"daemon\","
            "\"msg\":\"ready\"}");
}

TEST(FormatLogLine, EscapesMessageAndParsesBack) {
  LogRecord record;
  record.ts = 1.0;
  record.component = "fleet";
  record.message = "worker \"w0\"\nretired";
  record.fields.emplace_back("endpoint", "unix:/tmp/w0.sock");
  const std::string line = obs::format_log_line(record);
  // Every emitted line must be one valid, newline-free JSON document —
  // the ndjson contract.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const JsonValue parsed = JsonValue::parse(line);
  EXPECT_EQ(parsed.string_or("msg", ""), "worker \"w0\"\nretired");
  EXPECT_EQ(parsed.find("fields")->string_or("endpoint", ""),
            "unix:/tmp/w0.sock");
}

TEST_F(LogTest, LevelGateFiltersRecords) {
  Logger& logger = Logger::global();
  logger.set_level(LogLevel::kWarn);
  logger.log(LogLevel::kDebug, "t", "dropped");
  logger.log(LogLevel::kInfo, "t", "dropped too");
  logger.log(LogLevel::kWarn, "t", "kept");
  logger.log(LogLevel::kError, "t", "kept too");
  EXPECT_EQ(logger.emitted(), 2u);
  const std::vector<LogRecord> all = logger.tail(100, LogLevel::kDebug);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].message, "kept");
  EXPECT_EQ(all[1].message, "kept too");
}

TEST_F(LogTest, RingEvictsOldestBeyondCapacity) {
  Logger& logger = Logger::global();
  logger.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    logger.log(LogLevel::kInfo, "t", "m" + std::to_string(i));
  }
  EXPECT_EQ(logger.emitted(), 10u);  // all accepted...
  const std::vector<LogRecord> kept = logger.tail(100, LogLevel::kDebug);
  ASSERT_EQ(kept.size(), 4u);  // ...only the newest retained
  EXPECT_EQ(kept.front().message, "m6");
  EXPECT_EQ(kept.back().message, "m9");

  // Shrinking evicts immediately.
  logger.set_capacity(2);
  EXPECT_EQ(logger.tail(100, LogLevel::kDebug).size(), 2u);
}

TEST_F(LogTest, TailFiltersByLevelTraceAndCount) {
  Logger& logger = Logger::global();
  logger.set_level(LogLevel::kDebug);
  logger.log(LogLevel::kInfo, "t", "a", {}, /*trace_id=*/11);
  logger.log(LogLevel::kWarn, "t", "b", {}, /*trace_id=*/22);
  logger.log(LogLevel::kInfo, "t", "c", {}, /*trace_id=*/22);
  logger.log(LogLevel::kError, "t", "d", {}, /*trace_id=*/22);

  const std::vector<LogRecord> warns = logger.tail(100, LogLevel::kWarn);
  ASSERT_EQ(warns.size(), 2u);
  EXPECT_EQ(warns[0].message, "b");
  EXPECT_EQ(warns[1].message, "d");

  const std::vector<LogRecord> traced =
      logger.tail(100, LogLevel::kDebug, /*trace_id=*/22);
  ASSERT_EQ(traced.size(), 3u);
  EXPECT_EQ(traced[0].message, "b");

  // The cap keeps the *newest* matches, still in chronological order.
  const std::vector<LogRecord> last_two =
      logger.tail(2, LogLevel::kDebug, /*trace_id=*/22);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[0].message, "c");
  EXPECT_EQ(last_two[1].message, "d");
}

TEST_F(LogTest, RuntimeDisableDropsRecords) {
  Logger& logger = Logger::global();
  {
    obs::EnabledScope disabled(false);
    logger.log(LogLevel::kError, "t", "invisible");
  }
  EXPECT_EQ(logger.emitted(), 0u);
  logger.log(LogLevel::kError, "t", "visible");
  EXPECT_EQ(logger.emitted(), 1u);
}

TEST_F(LogTest, FileSinkWritesNdjsonAndReopens) {
  Logger& logger = Logger::global();
  const std::string path =
      ::testing::TempDir() + "/bgls_log_sink_test.ndjson";
  std::remove(path.c_str());
  ASSERT_TRUE(logger.open_file(path));
  logger.log(LogLevel::kInfo, "t", "one", {{"k", std::uint64_t{1}}});

  // Simulate external rotation: move the file away, SIGHUP-style
  // reopen, keep logging into a fresh file at the same path.
  const std::string rotated = path + ".1";
  std::remove(rotated.c_str());
  ASSERT_EQ(std::rename(path.c_str(), rotated.c_str()), 0);
  logger.reopen();
  logger.log(LogLevel::kInfo, "t", "two");
  logger.close_file();

  const auto read_lines = [](const std::string& file) {
    std::ifstream in(file);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  };
  const std::vector<std::string> old_lines = read_lines(rotated);
  const std::vector<std::string> new_lines = read_lines(path);
  ASSERT_EQ(old_lines.size(), 1u);
  ASSERT_EQ(new_lines.size(), 1u);
  EXPECT_EQ(JsonValue::parse(old_lines[0]).string_or("msg", ""), "one");
  EXPECT_EQ(JsonValue::parse(new_lines[0]).string_or("msg", ""), "two");
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST_F(LogTest, ConcurrentEmittersLoseNothing) {
  Logger& logger = Logger::global();
  logger.set_capacity(100'000);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&logger, t] {
      for (int i = 0; i < kPerThread; ++i) {
        logger.log(LogLevel::kInfo, "stress", "m",
                   {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(logger.emitted(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(logger.tail(200'000, LogLevel::kDebug).size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace bgls
