/// \file test_journal.cpp
/// The write-ahead scheduler journal (service/journal.h): CRC framing,
/// append/replay round trips, torn-record tolerance (the kill -9
/// case), compaction, the "journal_write" fault-injection path that
/// tears an append on purpose, daemon replay of a journal holding a
/// version-1, version-2 or dictionary-path checkpoint (warn, then rerun
/// from scratch), and the replay summary's count of torn lines.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/session.h"
#include "obs/log.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/report.h"
#include "util/fault.h"
#include "util/json_writer.h"

namespace bgls {
namespace {

using service::Journal;
using service::JournalError;

/// A unique journal path per test, removed on teardown.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    path_ = "/tmp/bgls_test_journal_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".ndjson";
  }

  void TearDown() override {
    fault::disarm_all();
    std::remove(path_.c_str());
    std::remove((path_ + ".compact.tmp").c_str());
  }

  std::string read_raw() const {
    std::ifstream file(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(file),
            std::istreambuf_iterator<char>()};
  }

  std::string path_;
};

/// True when the daemon warn-logged that it skipped job `job`'s
/// unreadable journal checkpoint with an error naming `cause`.
bool warned_unreadable_checkpoint(std::uint64_t job, std::string_view cause) {
  for (const obs::LogRecord& record :
       obs::Logger::global().tail(100, obs::LogLevel::kWarn)) {
    if (record.component != "daemon" ||
        record.message.find("unreadable") == std::string::npos) {
      continue;
    }
    bool same_job = false;
    bool names_cause = false;
    for (const obs::LogField& field : record.fields) {
      same_job |= field.key == "job" && field.uint_value == job;
      names_cause |= field.key == "error" &&
                     field.text.find(cause) != std::string::npos;
    }
    if (same_job && names_cause) return true;
  }
  return false;
}

TEST_F(JournalTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Journal::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Journal::crc32(""), 0u);
}

TEST_F(JournalTest, AppendReplayRoundTrip) {
  Journal journal;
  journal.open(path_);
  journal.append(R"({"type":"submit","job":1,"line":"abc"})");
  journal.append(R"({"type":"terminal","job":1,"state":"done"})");
  EXPECT_EQ(journal.records_written(), 2u);
  journal.close();

  std::size_t skipped = 7;
  const std::vector<JsonValue> records = Journal::replay_file(path_, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].string_or("type", ""), "submit");
  EXPECT_EQ(records[0].u64_or("job", 0), 1u);
  EXPECT_EQ(records[0].string_or("line", ""), "abc");
  EXPECT_EQ(records[1].string_or("state", ""), "done");
}

TEST_F(JournalTest, MissingFileReplaysEmpty) {
  std::size_t skipped = 7;
  EXPECT_TRUE(Journal::replay_file(path_, &skipped).empty());
  EXPECT_EQ(skipped, 0u);
}

TEST_F(JournalTest, TornTailIsSkipped) {
  {
    Journal journal;
    journal.open(path_);
    journal.append(R"({"type":"submit","job":1})");
    journal.append(R"({"type":"submit","job":2})");
  }
  // Simulate kill -9 mid-append: truncate the file inside the last
  // record (newline included in the cut).
  std::string raw = read_raw();
  raw.resize(raw.size() - 10);
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << raw;

  std::size_t skipped = 0;
  const std::vector<JsonValue> records = Journal::replay_file(path_, &skipped);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].u64_or("job", 0), 1u);
}

TEST_F(JournalTest, CorruptedMiddleRecordIsSkippedOthersSurvive) {
  {
    Journal journal;
    journal.open(path_);
    journal.append(R"({"type":"submit","job":1})");
    journal.append(R"({"type":"submit","job":2})");
    journal.append(R"({"type":"submit","job":3})");
  }
  // Flip one byte inside the middle record's body: its CRC no longer
  // matches, but line framing is intact so the third record survives.
  std::string raw = read_raw();
  const std::size_t at = raw.find("\"job\":2");
  ASSERT_NE(at, std::string::npos);
  raw[at + 6] = '9';
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << raw;

  std::size_t skipped = 0;
  const std::vector<JsonValue> records = Journal::replay_file(path_, &skipped);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].u64_or("job", 0), 1u);
  EXPECT_EQ(records[1].u64_or("job", 0), 3u);
}

TEST_F(JournalTest, CompactionRewritesToLiveSet) {
  {
    Journal journal;
    journal.open(path_);
    for (int job = 1; job <= 5; ++job) {
      journal.append(R"({"type":"submit","job":)" + std::to_string(job) + "}");
    }
  }
  Journal::compact_file(path_, {R"({"type":"submit","job":4})",
                                R"({"type":"submit","job":5})"});
  std::size_t skipped = 0;
  const std::vector<JsonValue> records = Journal::replay_file(path_, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].u64_or("job", 0), 4u);
  EXPECT_EQ(records[1].u64_or("job", 0), 5u);
  // The compacted file stays appendable.
  Journal journal;
  journal.open(path_);
  journal.append(R"({"type":"submit","job":6})");
  journal.close();
  EXPECT_EQ(Journal::replay_file(path_).size(), 3u);
}

TEST_F(JournalTest, InjectedTornWriteThrowsAndNextAppendRecovers) {
  Journal journal;
  journal.open(path_);
  journal.append(R"({"type":"submit","job":1})");

  // One guaranteed tear: a partial prefix hits the file, the append
  // reports JournalError (the daemon surfaces it as a retryable
  // journal_error response).
  fault::arm("journal_write", 1.0, 42, 1);
  EXPECT_THROW(journal.append(R"({"type":"submit","job":2})"), JournalError);
  EXPECT_EQ(journal.records_written(), 1u);

  // The tear must stay confined to its own line: the next append lands
  // intact and replay sees records 1 and 3 with exactly one skip.
  journal.append(R"({"type":"submit","job":3})");
  journal.close();
  std::size_t skipped = 0;
  const std::vector<JsonValue> records = Journal::replay_file(path_, &skipped);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].u64_or("job", 0), 1u);
  EXPECT_EQ(records[1].u64_or("job", 0), 3u);
}

TEST_F(JournalTest, ReopenAppendsAfterExistingRecords) {
  {
    Journal journal;
    journal.open(path_);
    journal.append(R"({"type":"submit","job":1})");
  }
  {
    Journal journal;
    journal.open(path_);
    journal.append(R"({"type":"submit","job":2})");
    EXPECT_TRUE(journal.is_open());
    EXPECT_EQ(journal.path(), path_);
  }
  const std::vector<JsonValue> records = Journal::replay_file(path_);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].u64_or("job", 0), 2u);
}

TEST_F(JournalTest, ReplayRerunsVersionOneCheckpointFromScratch) {
  // A journal left by a build whose checkpoints were version 1 (per-
  // stream RNG state): one submitted job plus a mid-run snapshot. Keyed
  // draws cannot continue that snapshot, so replay logs a warning and
  // reruns the job from the start, to the bytes a fresh run produces.
  service::SubmitArgs args;
  args.qasm =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
      "h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n";
  args.repetitions = 300;
  args.seed = 23;
  args.no_batch = true;
  std::string line = service::submit_request_line(args);
  line.pop_back();  // the trailing newline
  {
    std::ostringstream submit;
    JsonWriter json(submit, JsonWriter::Style::kCompact);
    json.begin_object();
    json.key("type").value("submit");
    json.key("job").value(std::uint64_t{1});
    json.key("line").value(line);
    json.end_object();
    Journal journal;
    journal.open(path_);
    journal.append(submit.str());
    journal.append(
        R"({"type":"checkpoint","job":1,"data":{"version":1,"mode":"engine",)"
        R"("total":300,"stats":{},"shards":[{"total":300,"completed":100,)"
        R"("rng":[1,2,3,4],"histograms":{"c":{"0":50,"3":50}}}]}})");
  }

  obs::Logger::global().reset_for_testing();
  service::DaemonOptions options;
  options.endpoint = service::Endpoint::unix_socket(path_ + ".sock");
  options.journal_path = path_;
  service::ServiceDaemon daemon(options);
  daemon.start();
  service::ServiceClient client(daemon.endpoint());
  const std::string report = client.wait_report(1);
  daemon.stop();
  std::remove((path_ + ".sock").c_str());

  const RunRequest request = service::parse_submit(JsonValue::parse(line));
  Session session;
  EXPECT_EQ(report, service::run_report_string(
                        service::report_context(request,
                                                request.circuit.num_qubits()),
                        session.run(request)));
  EXPECT_TRUE(warned_unreadable_checkpoint(1, "version 1"));
}

TEST_F(JournalTest, ReplayRerunsVersionTwoCheckpointFromScratch) {
  // A journal left by a build that wrote version-2 checkpoints: one
  // trajectory job plus a snapshot of work it had done. That prefix was
  // sampled by the earlier rule (a resample after every gate), so a
  // resumed run would match neither build's uninterrupted run. Replay
  // logs a warning and reruns the job from the start, to the bytes a
  // fresh run produces.
  service::SubmitArgs args;
  args.qasm =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
      "h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n";
  args.repetitions = 300;
  args.seed = 23;
  args.no_batch = true;
  std::string line = service::submit_request_line(args);
  line.pop_back();  // the trailing newline
  const RunRequest request = service::parse_submit(JsonValue::parse(line));

  // The request's first snapshot, relabeled as version 2.
  std::string snapshot;
  {
    RunRequest checkpointed = request;
    checkpointed.with_checkpoint(100, [&](const RunCheckpoint& checkpoint) {
      if (snapshot.empty()) snapshot = checkpoint.to_json();
    });
    (void)Session().run(checkpointed);
  }
  const std::string version =
      "{\"version\":" + std::to_string(RunCheckpoint::kVersion) + ",";
  ASSERT_EQ(snapshot.rfind(version, 0), 0u) << snapshot;
  snapshot.replace(0, version.size(), "{\"version\":2,");
  {
    std::ostringstream submit;
    JsonWriter json(submit, JsonWriter::Style::kCompact);
    json.begin_object();
    json.key("type").value("submit");
    json.key("job").value(std::uint64_t{1});
    json.key("line").value(line);
    json.end_object();
    Journal journal;
    journal.open(path_);
    journal.append(submit.str());
    journal.append(R"({"type":"checkpoint","job":1,"data":)" + snapshot + "}");
  }

  obs::Logger::global().reset_for_testing();
  service::DaemonOptions options;
  options.endpoint = service::Endpoint::unix_socket(path_ + ".sock");
  options.journal_path = path_;
  service::ServiceDaemon daemon(options);
  daemon.start();
  service::ServiceClient client(daemon.endpoint());
  const std::string report = client.wait_report(1);
  EXPECT_EQ(daemon.scheduler().stats().resumed, 0u);
  daemon.stop();
  std::remove((path_ + ".sock").c_str());

  Session session;
  EXPECT_EQ(report, service::run_report_string(
                        service::report_context(request,
                                                request.circuit.num_qubits()),
                        session.run(request)));
  EXPECT_TRUE(warned_unreadable_checkpoint(1, "version 2"));
}

TEST_F(JournalTest, ReplaySummaryCountsTornLines) {
  // kill -9 mid-append leaves a torn final record. Replay drops it and
  // says so: the "journal replayed" summary counts it as an unreadable
  // line, beside the job it still restores.
  service::SubmitArgs args;
  args.qasm =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
      "h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n";
  args.repetitions = 100;
  args.seed = 5;
  std::string line = service::submit_request_line(args);
  line.pop_back();  // the trailing newline
  {
    std::ostringstream submit;
    JsonWriter json(submit, JsonWriter::Style::kCompact);
    json.begin_object();
    json.key("type").value("submit");
    json.key("job").value(std::uint64_t{1});
    json.key("line").value(line);
    json.end_object();
    Journal journal;
    journal.open(path_);
    journal.append(submit.str());
    journal.append(R"({"type":"submit","job":2,"line":"torn"})");
  }
  std::string raw = read_raw();
  raw.resize(raw.size() - 10);  // cut inside the last record
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << raw;

  obs::Logger::global().reset_for_testing();
  service::DaemonOptions options;
  options.endpoint = service::Endpoint::unix_socket(path_ + ".sock");
  options.journal_path = path_;
  service::ServiceDaemon daemon(options);
  daemon.start();
  service::ServiceClient client(daemon.endpoint());
  client.wait_report(1);
  daemon.stop();
  std::remove((path_ + ".sock").c_str());

  bool summarized = false;
  for (const obs::LogRecord& record :
       obs::Logger::global().tail(100, obs::LogLevel::kInfo)) {
    if (record.component != "daemon" || record.message != "journal replayed") {
      continue;
    }
    summarized = true;
    std::optional<std::uint64_t> unreadable;
    std::optional<std::uint64_t> resubmitted;
    for (const obs::LogField& field : record.fields) {
      if (field.key == "unreadable_lines") unreadable = field.uint_value;
      if (field.key == "resubmitted") resubmitted = field.uint_value;
    }
    EXPECT_EQ(unreadable, std::optional<std::uint64_t>{1});
    EXPECT_EQ(resubmitted, std::optional<std::uint64_t>{1});
  }
  EXPECT_TRUE(summarized);
}

TEST_F(JournalTest, ReplayRerunsDictionaryModeCheckpointFromScratch) {
  // A journal left by a build that checkpointed the dictionary path: one
  // batched job plus the snapshot such a build wrote first (its key and
  // split with nothing done). Those builds wrote version 2, which this
  // build reads as unusable, so replay logs a warning and reruns the
  // job from the start, to the bytes a fresh run produces.
  service::SubmitArgs args;
  args.qasm =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
      "h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n";
  args.repetitions = 300;
  args.seed = 23;
  std::string line = service::submit_request_line(args);
  line.pop_back();  // the trailing newline
  {
    std::ostringstream submit;
    JsonWriter json(submit, JsonWriter::Style::kCompact);
    json.begin_object();
    json.key("type").value("submit");
    json.key("job").value(std::uint64_t{1});
    json.key("line").value(line);
    json.end_object();
    Journal journal;
    journal.open(path_);
    journal.append(submit.str());
    journal.append(
        R"({"type":"checkpoint","job":1,"data":{"version":2,)"
        R"("mode":"dictionary","run_key":7707246786203363646,"total":300,)"
        R"("stats":{"state_applications":0,"probability_evaluations":0,)"
        R"("max_dictionary_size":0,"trajectories":0},)"
        R"("shards":[{"total":300,)"
        R"("completed":0,"histograms":{}}]}})");
  }

  obs::Logger::global().reset_for_testing();
  service::DaemonOptions options;
  options.endpoint = service::Endpoint::unix_socket(path_ + ".sock");
  options.journal_path = path_;
  service::ServiceDaemon daemon(options);
  daemon.start();
  service::ServiceClient client(daemon.endpoint());
  const std::string report = client.wait_report(1);
  EXPECT_EQ(daemon.scheduler().stats().resumed, 0u);
  daemon.stop();
  std::remove((path_ + ".sock").c_str());

  const RunRequest request = service::parse_submit(JsonValue::parse(line));
  Session session;
  EXPECT_EQ(report, service::run_report_string(
                        service::report_context(request,
                                                request.circuit.num_qubits()),
                        session.run(request)));
  EXPECT_TRUE(warned_unreadable_checkpoint(1, "version 2"));
}

TEST_F(JournalTest, AppendOnClosedJournalThrows) {
  Journal journal;
  EXPECT_FALSE(journal.is_open());
  EXPECT_THROW(journal.append(R"({"x":1})"), JournalError);
}

}  // namespace
}  // namespace bgls
