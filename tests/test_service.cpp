/// \file test_service.cpp
/// End-to-end protocol tests for the service daemon (service/daemon.h)
/// and the fleet front (service/fleet.h): in-process servers on private
/// Unix sockets, driven by ServiceClient over the real wire — the same
/// code path the standalone bgls_serve/bgls_fleet/bgls_client binaries
/// run. Pins the acceptance contract: daemon reports byte-identical to
/// the CLI path, bounded cancellation, deadline → timeout,
/// deterministic streaming, and protocol error handling and request
/// bounds on both servers (service/line_server.h). Runs under TSan in
/// CI.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "qasm/qasm.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/fleet.h"
#include "service/journal.h"
#include "service/line_server.h"
#include "service/report.h"
#include "service/result_cache.h"

namespace bgls {
namespace {

using namespace std::chrono_literals;
using namespace bgls::service;

const char kGhzQasm[] =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[3];\n"
    "creg c[3];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "measure q -> c;\n";

const char kX0Qasm[] =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[2];\n"
    "creg c[2];\n"
    "x q[0];\n"
    "measure q -> c;\n";

/// The report bgls_run would print for the same submission — built
/// through the identical library path (Session + shared writer).
std::string direct_report(const SubmitArgs& args) {
  RunRequest request = RunRequest()
                           .with_circuit(parse_qasm(args.qasm))
                           .with_repetitions(args.repetitions)
                           .with_seed(args.seed)
                           .with_threads(args.threads)
                           .with_optimization(args.optimize)
                           .with_sample_parallelization(!args.no_batch);
  if (args.backend != "auto") request.with_backend(args.backend);
  const RunReportContext context =
      report_context(request, request.circuit.num_qubits());
  Session session;
  return run_report_string(context, session.run(std::move(request)));
}

/// A unique private Unix socket path.
std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/bgls_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A journal path private to this process and `name`, removed first.
std::string fresh_journal_path(const std::string& name) {
  const std::string path = "/tmp/bgls_test_journal_" +
                           std::to_string(::getpid()) + "_" + name + ".ndjson";
  std::remove(path.c_str());
  return path;
}

/// Number of records of `type` in the journal at `path`.
std::size_t journal_records(const std::string& path, const std::string& type) {
  std::size_t count = 0;
  for (const JsonValue& record : Journal::replay_file(path)) {
    if (record.string_or("type", "") == type) ++count;
  }
  return count;
}

/// Daemon fixture: one in-process daemon per test on a unique socket.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DaemonOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    options.scheduler.max_concurrent_jobs = 2;
    configure(options);
    daemon_ = std::make_unique<ServiceDaemon>(options);
    daemon_->start();
  }

  virtual void configure(DaemonOptions& options) { (void)options; }

  void TearDown() override { daemon_->stop(); }

  std::unique_ptr<ServiceDaemon> daemon_;
};

/// The daemon with every request slow-logged (bgls_serve --slow-ms 1).
class SlowLogServiceTest : public ServiceTest {
 protected:
  void configure(DaemonOptions& options) override {
    options.slow_request_ms = 1;
  }
};

/// A fleet front over the fixture's daemon, both slow-logging every
/// request: the wiring bgls_fleet runs, with one worker.
class FleetFrontTest : public SlowLogServiceTest {
 protected:
  void SetUp() override {
    SlowLogServiceTest::SetUp();
    FleetOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    options.workers.push_back(daemon_->endpoint());
    options.slow_request_ms = 1;
    fleet_ = std::make_unique<FleetDaemon>(options);
    fleet_->start();
  }

  void TearDown() override {
    fleet_->stop();
    SlowLogServiceTest::TearDown();
  }

  std::unique_ptr<FleetDaemon> fleet_;
};

/// Submits a small job over `client` and checks its report bytes: the
/// server (and this connection) still serve.
void expect_serves_a_job(ServiceClient& client) {
  SubmitArgs args;
  args.qasm = kX0Qasm;
  args.repetitions = 16;
  EXPECT_EQ(client.wait_report(client.submit(args)), direct_report(args));
}

/// Protocol errors answer their slug and leave the connection usable.
/// A daemon answers an unknown job id `bad_request`, a fleet front
/// `unknown_job`.
void expect_protocol_errors_keep_connection_usable(
    const Endpoint& endpoint, const std::string& unknown_job_code) {
  ServiceClient client(endpoint);
  // Malformed JSON.
  JsonValue response = client.roundtrip("this is not json\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_EQ(response.string_or("code", ""), "parse_error");
  // Unknown op.
  response = client.roundtrip("{\"op\":\"frobnicate\"}\n");
  EXPECT_EQ(response.string_or("code", ""), "unknown_op");
  // Unknown job.
  response = client.roundtrip("{\"op\":\"status\",\"job\":12345}\n");
  EXPECT_EQ(response.string_or("code", ""), unknown_job_code);
  // Malformed QASM in submit.
  response = client.roundtrip(
      "{\"op\":\"submit\",\"qasm\":\"OPENQASM 9;\"}\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  // Result for a job that is not done yet / unknown.
  response = client.roundtrip("{\"op\":\"result\",\"job\":999}\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  // The connection survived all of it.
  expect_serves_a_job(client);
}

/// A non-string op, and a slow wait whose trace_id is not an unsigned
/// integer, each answer bad_request; the server keeps serving.
void expect_malformed_fields_answer_bad_request(const Endpoint& endpoint) {
  ServiceClient client(endpoint);
  EXPECT_EQ(client.roundtrip("{\"op\":5}\n").string_or("code", ""),
            "bad_request");
  // The wait must cross the 1 ms slow-request threshold, so it follows
  // a running job.
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  const std::uint64_t running = client.submit(big);
  while (client.status(running).string_or("state", "") == "queued") {
    std::this_thread::sleep_for(1ms);
  }
  const std::string wait = "{\"op\":\"wait\",\"job\":" +
                           std::to_string(running) +
                           ",\"timeout_ms\":20,\"trace_id\":\"x\"}\n";
  EXPECT_EQ(client.roundtrip(wait).string_or("code", ""), "bad_request");
  client.cancel(running);
  expect_serves_a_job(client);
}

/// A request line one byte over the cap answers line_too_long and its
/// connection closes; the server keeps serving new connections.
void expect_over_cap_line_rejected(const Endpoint& endpoint) {
  Socket socket = connect_to(endpoint);
  try {
    socket.write_all(std::string(kMaxRequestLineBytes + 1, ' ') + "\n");
  } catch (const IoError&) {
    // The server may close before the last bytes are sent.
  }
  std::string answer;
  ASSERT_TRUE(socket.read_line(answer));
  EXPECT_EQ(JsonValue::parse(answer).string_or("code", ""), "line_too_long");
  try {
    EXPECT_FALSE(socket.read_line(answer)) << "connection still open";
  } catch (const IoError&) {
    // Closed with our unread bytes pending: a reset, also closed.
  }
  ServiceClient client(endpoint);
  expect_serves_a_job(client);
}

/// The server's scrape carries `<prefix>_requests_total{op=...}` for
/// every op it answers, and its request-latency histogram.
void expect_request_series(const Endpoint& endpoint, const std::string& prefix,
                           const std::vector<std::string>& ops) {
  const std::string text = ServiceClient(endpoint).metrics_text();
  for (const std::string& op : ops) {
    const std::string series =
        "\n" + prefix + "_requests_total{op=\"" + op + "\"} ";
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
  EXPECT_NE(text.find("\n" + prefix + "_request_seconds_count "),
            std::string::npos);
}

TEST_F(ServiceTest, SubmitWaitReportMatchesCliBytes) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 2048;
  args.seed = 7;
  const std::uint64_t job = client.submit(args);
  EXPECT_EQ(client.wait_report(job), direct_report(args));
  // result stays retrievable after wait.
  EXPECT_EQ(client.result_report(job), direct_report(args));
}

TEST_F(ServiceTest, ConcurrentClientsMixedCircuitsAllByteIdentical) {
  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<SubmitArgs> args(kClients);
  for (int i = 0; i < kClients; ++i) {
    args[i].qasm = i % 2 == 0 ? kGhzQasm : kX0Qasm;
    args[i].repetitions = 512 + static_cast<std::uint64_t>(i) * 100;
    args[i].seed = static_cast<std::uint64_t>(i) + 1;
    if (i == 3) args[i].backend = "sv";
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      // One connection per client thread, submissions interleaving on
      // the daemon side.
      ServiceClient client(daemon_->endpoint());
      const std::uint64_t job = client.submit(args[i]);
      reports[i] = client.wait_report(job);
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(reports[i], direct_report(args[i])) << "client " << i;
  }
}

TEST_F(ServiceTest, CancelStopsRunningJobPromptly) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 500'000'000ULL;
  args.no_batch = true;  // per-trajectory: bounded per-rep stop checks
  const std::uint64_t job = client.submit(args);
  while (client.status(job).string_or("state", "") == "queued") {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(client.cancel(job));
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)client.wait_report(job);
    FAIL() << "cancelled job produced a report";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), "cancelled");
  }
  // "Bounded number of shard steps": generously, a few seconds of
  // wall clock on any machine.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  EXPECT_EQ(client.status(job).string_or("state", ""), "cancelled");
}

TEST_F(ServiceTest, DeadlineExceededReturnsTimeout) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 500'000'000ULL;
  args.no_batch = true;
  args.deadline_ms = 100;
  const std::uint64_t job = client.submit(args);
  try {
    (void)client.wait_report(job);
    FAIL() << "deadline job produced a report";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), "timeout");
  }
}

TEST_F(ServiceTest, StreamDeliversDeterministicPrefixes) {
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 50000;
  args.no_batch = true;
  args.progress_every = 10000;
  args.seed = 13;

  // Stream the same job spec twice; both streams must agree frame for
  // frame (fixed seed ⇒ canonical update sequence).
  std::vector<std::vector<std::uint64_t>> completed(2);
  std::string reports[2];
  for (int round = 0; round < 2; ++round) {
    ServiceClient client(daemon_->endpoint());
    const std::uint64_t job = client.submit(args);
    reports[round] =
        client.stream(job, [&](const JsonValue& frame) {
          completed[round].push_back(frame.u64_or("completed", 0));
        });
  }
  EXPECT_EQ(completed[0],
            (std::vector<std::uint64_t>{10000, 20000, 30000, 40000, 50000}));
  EXPECT_EQ(completed[0], completed[1]);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], direct_report(args));
}

TEST_F(ServiceTest, ProgressCadenceOverTheUpdateCapIsBadRequest) {
  // One progress update per repetition of a 100,000-repetition job
  // would keep 100,000 histogram snapshots on the worker.
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 100'000;
  args.no_batch = true;
  args.progress_every = 1;
  std::string code;
  try {
    (void)client.submit(args);
  } catch (const ServiceError& e) {
    code = e.code();
  }
  EXPECT_EQ(code, "bad_request");
  EXPECT_EQ(client.stats().u64_or("submitted", 0), 0u);
  expect_serves_a_job(client);
}

TEST_F(ServiceTest, StatsEndpointCounts) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 256;
  client.wait_report(client.submit(args));
  const JsonValue stats = client.stats();
  EXPECT_EQ(stats.u64_or("submitted", 0), 1u);
  EXPECT_EQ(stats.u64_or("completed", 0), 1u);
  const JsonValue* per_backend = stats.find("completed_per_backend");
  ASSERT_NE(per_backend, nullptr);
  // GHZ is pure Clifford: routed to the stabilizer backend — the
  // routing decision the stats endpoint surfaces.
  const JsonValue* stabilizer = per_backend->find("stabilizer");
  ASSERT_NE(stabilizer, nullptr);
  EXPECT_EQ(stabilizer->as_u64(), 1u);
}

TEST_F(ServiceTest, ProtocolErrorsKeepConnectionUsable) {
  expect_protocol_errors_keep_connection_usable(daemon_->endpoint(),
                                                "bad_request");
}

TEST_F(FleetFrontTest, ProtocolErrorsKeepConnectionUsable) {
  expect_protocol_errors_keep_connection_usable(fleet_->endpoint(),
                                                "unknown_job");
}

TEST_F(SlowLogServiceTest, MalformedFieldsAnswerBadRequest) {
  expect_malformed_fields_answer_bad_request(daemon_->endpoint());
}

TEST_F(FleetFrontTest, MalformedFieldsAnswerBadRequest) {
  expect_malformed_fields_answer_bad_request(fleet_->endpoint());
}

TEST_F(ServiceTest, OverCapLineAnswersLineTooLong) {
  expect_over_cap_line_rejected(daemon_->endpoint());
}

TEST_F(FleetFrontTest, OverCapLineAnswersLineTooLong) {
  expect_over_cap_line_rejected(fleet_->endpoint());
}

/// Lines under the cap that the front's re-emission grows past it: `\b`
/// escapes come out as `\u0008` (3x), and the trace fields push a line at
/// the cap over it. Neither may cost the worker its liveness.
TEST_F(FleetFrontTest, LinesGrownByForwardingKeepTheWorkerLive) {
  const std::string head = "{\"op\":\"submit\",\"qasm\":\"";
  const std::string tail = "\"}\n";
  std::string escapes = head;
  for (std::size_t i = 0; i < kMaxRequestLineBytes / 4; ++i) escapes += "\\b";
  escapes += tail;
  std::string at_cap =
      head + std::string(kMaxRequestLineBytes - head.size() - 2, 'a') + tail;
  ASSERT_EQ(at_cap.size(), kMaxRequestLineBytes + 1);
  ServiceClient client(fleet_->endpoint());
  for (const std::string* line : {&escapes, &at_cap}) {
    const JsonValue response = client.roundtrip(*line);
    EXPECT_FALSE(response.bool_or("ok", true));
    EXPECT_NE(response.string_or("code", ""), "worker_down");
    EXPECT_EQ(response.string_or("code", ""), "line_too_long");
    EXPECT_TRUE(fleet_->workers()[0].alive);
  }
  expect_serves_a_job(client);
}

/// A worker at its connection cap answers too_many_connections and
/// closes every link, health pings included: the front passes the
/// answer on and keeps the worker live.
TEST(FleetFront, WorkerRefusingLinksStaysLive) {
  ServerSocket full;
  full.listen_on(Endpoint::unix_socket(unique_socket_path()));
  std::thread refuser([&full] {
    for (Socket socket = full.accept(); socket.valid();
         socket = full.accept()) {
      try {
        socket.write_all(error_line("too_many_connections", "worker is full"));
      } catch (const IoError&) {
        // The front hung up first (it is stopping).
      }
    }
  });
  FleetOptions options;
  options.endpoint = Endpoint::unix_socket(unique_socket_path());
  options.workers.push_back(full.endpoint());
  options.health_interval = 5ms;
  FleetDaemon fleet(options);
  fleet.start();
  ServiceClient client(fleet.endpoint());
  SubmitArgs args;
  args.qasm = kX0Qasm;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.roundtrip(submit_request_line(args)).string_or("code", ""),
              "too_many_connections");
    std::this_thread::sleep_for(20ms);  // a few refused health pings
  }
  EXPECT_TRUE(fleet.workers()[0].alive);
  fleet.stop();
  full.close();
  refuser.join();
}

TEST_F(ServiceTest, RequestSeriesCoverEveryOp) {
  expect_request_series(daemon_->endpoint(), "bgls_daemon",
                        {"submit", "status", "cancel", "result", "wait",
                         "stream", "stats", "metrics", "trace", "logs",
                         "shutdown", "other"});
}

TEST_F(FleetFrontTest, RequestSeriesCoverEveryOp) {
  expect_request_series(fleet_->endpoint(), "bgls_fleet",
                        {"submit", "status", "cancel", "result", "wait",
                         "stream", "stats", "metrics", "trace", "logs",
                         "fleet", "drain", "undrain", "shutdown", "other"});
}

class TinyQueueServiceTest : public ServiceTest {
 protected:
  void configure(DaemonOptions& options) override {
    options.scheduler.max_concurrent_jobs = 1;
    options.scheduler.max_queue_depth = 1;
  }
};

TEST_F(TinyQueueServiceTest, AdmissionControlOverSocket) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  const std::uint64_t running = client.submit(big);
  while (client.status(running).string_or("state", "") == "queued") {
    std::this_thread::sleep_for(1ms);
  }
  const std::uint64_t queued = client.submit(big);
  bool rejected = false;
  try {
    (void)client.submit(big);
  } catch (const ServiceError& e) {
    rejected = true;
    EXPECT_EQ(e.code(), "queue_full");
  }
  EXPECT_TRUE(rejected);
  client.cancel(running);
  client.cancel(queued);
  EXPECT_EQ(client.stats().u64_or("rejected", 0), 1u);
}

TEST(ServiceJournal, RestartReplaysTerminalJobsAndResumesIncompleteOnes) {
  const std::string journal = fresh_journal_path("svc");

  SubmitArgs finished;
  finished.qasm = kGhzQasm;
  finished.repetitions = 512;
  finished.seed = 3;
  SubmitArgs interrupted;
  interrupted.qasm = kGhzQasm;
  interrupted.repetitions = 400'000;
  interrupted.seed = 23;
  interrupted.no_batch = true;  // per-trajectory: checkpointable mid-run

  std::uint64_t finished_id = 0;
  std::uint64_t interrupted_id = 0;
  {
    DaemonOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    options.journal_path = journal;
    options.scheduler.checkpoint_every = 5'000;
    ServiceDaemon daemon(options);
    daemon.start();
    ServiceClient client(daemon.endpoint());
    finished_id = client.submit(finished);
    EXPECT_EQ(client.wait_report(finished_id), direct_report(finished));
    interrupted_id = client.submit(interrupted);
    // Wait for a journaled checkpoint of the job with work done, then
    // destroy the daemon with the job mid-run. Shutdown-cancelled jobs
    // get no terminal journal record, so the job stays incomplete in
    // the log for the next incarnation to resume.
    const auto has_work = [&] {
      for (const JsonValue& record : Journal::replay_file(journal)) {
        if (record.string_or("type", "") == "checkpoint" &&
            record.u64_or("job", 0) == interrupted_id &&
            RunCheckpoint::from_json(*record.find("data"))
                    .completed_repetitions() > 0) {
          return true;
        }
      }
      return false;
    };
    while (!has_work()) std::this_thread::sleep_for(1ms);
  }

  DaemonOptions options;
  options.endpoint = Endpoint::unix_socket(unique_socket_path());
  options.journal_path = journal;
  options.scheduler.checkpoint_every = 5'000;
  ServiceDaemon daemon(options);
  daemon.start();  // replays + compacts the journal, re-enqueues
  ServiceClient client(daemon.endpoint());

  // The finished job answers from the journal without re-running, under
  // its original id — status, result, and stream all work.
  EXPECT_EQ(client.result_report(finished_id), direct_report(finished));
  EXPECT_EQ(client.status(finished_id).string_or("state", ""), "done");

  // The interrupted job resumed from its last journaled checkpoint and
  // finished with the canonical bytes.
  EXPECT_EQ(client.wait_report(interrupted_id), direct_report(interrupted));
  EXPECT_EQ(daemon.scheduler().stats().resumed, 1u);

  daemon.stop();
  std::remove(journal.c_str());
}

TEST(ServiceJournal, CacheHitJournalsTerminalRecordAndIsNotRerun) {
  const std::string journal = fresh_journal_path("hit");
  SubmitArgs ghz;
  ghz.qasm = kGhzQasm;
  ghz.repetitions = 512;
  ghz.seed = 17;
  DaemonOptions options;
  options.journal_path = journal;
  options.scheduler.result_cache = std::make_shared<ResultCache>();

  std::uint64_t ran = 0;
  std::uint64_t hit = 0;
  {
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    ServiceDaemon daemon(options);
    daemon.start();
    ServiceClient client(daemon.endpoint());
    ran = client.submit(ghz);
    EXPECT_EQ(client.wait_report(ran), direct_report(ghz));
    // The repeat is answered from the cache: born terminal inside the
    // scheduler's submit().
    const JsonValue response = client.roundtrip(submit_request_line(ghz));
    hit = response.u64_or("job", 0);
    EXPECT_TRUE(response.bool_or("from_cache", false));
    EXPECT_EQ(client.result_report(hit), direct_report(ghz));
    daemon.stop();
  }  // ~ServiceDaemon joins the runners, so every hook has journaled.
  EXPECT_EQ(journal_records(journal, "submit"), 2u);
  EXPECT_EQ(journal_records(journal, "terminal"), 2u);

  options.endpoint = Endpoint::unix_socket(unique_socket_path());
  ServiceDaemon daemon(options);
  daemon.start();
  ServiceClient client(daemon.endpoint());
  EXPECT_EQ(client.result_report(ran), direct_report(ghz));
  EXPECT_EQ(client.result_report(hit), direct_report(ghz));
  // Both answer from the journal; neither is run again.
  EXPECT_EQ(daemon.scheduler().stats().submitted, 0u);
  daemon.stop();
  std::remove(journal.c_str());
}

TEST(ServiceJournal, ReplayKeepsOnlyTheNewestRetainedTerminalJobs) {
  const std::string journal = fresh_journal_path("retain");
  SubmitArgs args;
  args.qasm = kX0Qasm;
  args.repetitions = 16;
  const std::string report = direct_report(args);
  DaemonOptions options;
  options.journal_path = journal;
  options.scheduler.max_retained_jobs = 2;

  // Four lives of two finished jobs each, every life replaying the
  // journal of the one before.
  std::vector<std::uint64_t> ids;
  for (int life = 0; life < 4; ++life) {
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    ServiceDaemon daemon(options);
    daemon.start();
    EXPECT_LE(journal_records(journal, "terminal"), 2u) << "life " << life;
    ServiceClient client(daemon.endpoint());
    if (life > 0) {
      // The previous life's two jobs are the newest: both answer.
      EXPECT_EQ(client.result_report(ids[ids.size() - 2]), report);
      EXPECT_EQ(client.result_report(ids.back()), report);
    }
    if (life > 1) {
      try {
        (void)client.result_report(ids.front());
        FAIL() << "job " << ids.front() << " outlived the retention bound";
      } catch (const ServiceError& e) {
        EXPECT_EQ(e.code(), "bad_request");  // the daemon's unknown-id slug
        EXPECT_NE(std::string(e.what()).find("unknown job id"),
                  std::string::npos);
      }
    }
    for (int i = 0; i < 2; ++i) {
      ids.push_back(client.submit(args));
      EXPECT_EQ(client.wait_report(ids.back()), report);
    }
    daemon.stop();
  }
  std::remove(journal.c_str());
}

TEST_F(ServiceTest, StopWhileJobsInFlightIsClean) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  (void)client.submit(big);
  // TearDown stops the daemon with the job mid-run; the scheduler
  // destructor cancels it. Nothing to assert beyond "no hang/crash".
  SUCCEED();
}

}  // namespace
}  // namespace bgls
