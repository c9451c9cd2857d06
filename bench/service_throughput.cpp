/// \file service_throughput.cpp
/// Service-layer throughput bench: jobs/second through the
/// JobScheduler for a stream of small heterogeneous requests — the
/// many-users-many-small-jobs shape the daemon serves — plus the
/// per-job overhead the scheduler adds over direct Session::run calls,
/// and the cost of streaming progress. Emits BENCH_service.json
/// (bench_diff.py tracks the trajectory across PRs).
///
///   $ ./service_throughput [BENCH_service.json]

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_guard.h"
#include "bench_json.h"
#include "circuit/random.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/fleet.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "service/scheduler.h"
#include "util/json_writer.h"

namespace {

using namespace bgls;

Circuit small_circuit(std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions options;
  options.num_moments = 12;
  options.op_density = 0.8;
  Circuit circuit = generate_random_circuit(4, options, rng);
  circuit.append(measure({0, 1, 2, 3}, "m"));
  return circuit;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Workload for the fleet row: submissions go over the wire as QASM, so
/// the fleet bench uses a fixed circuit with per-job seeds (the
/// repeat-heavy traffic shape the fleet front is built for).
const char kGhzQasm[] =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[4];\n"
    "creg c[4];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "cx q[2],q[3];\n"
    "measure q -> c;\n";

}  // namespace

int main(int argc, char** argv) {
  BGLS_REQUIRE_RELEASE_BENCH("service_throughput");
  const std::string json_path =
      bgls::bench::bench_json_path(argc, argv, "BENCH_service.json");
  std::ofstream json_file = bgls::bench::open_bench_json(json_path);
  if (!json_file) return 1;

  constexpr int kJobs = 200;
  constexpr std::uint64_t kReps = 1024;

  std::vector<Circuit> circuits;
  circuits.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    circuits.push_back(small_circuit(static_cast<std::uint64_t>(i)));
  }

  JsonWriter json(json_file);
  json.begin_object();
  json.key("bench").value("service_throughput");
  json.key("jobs").value(kJobs);
  json.key("repetitions_per_job").value(kReps);
  json.key("rows").begin_array();

  std::cout << "=== Service scheduler throughput (" << kJobs
            << " jobs x " << kReps << " reps) ===\n\n";

  // Baseline: direct Session::run calls, no queue.
  {
    Session session;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kJobs; ++i) {
      (void)session.run(RunRequest()
                            .with_circuit(circuits[static_cast<std::size_t>(i)])
                            .with_repetitions(kReps)
                            .with_seed(static_cast<std::uint64_t>(i)));
    }
    const double seconds = seconds_since(start);
    std::cout << "direct Session::run    : " << seconds << " s ("
              << kJobs / seconds << " jobs/s)\n";
    json.begin_object();
    json.key("path").value("session_direct");
    json.key("seconds").value(seconds);
    json.key("jobs_per_second").value(kJobs / seconds);
    json.end_object();
  }

  // Scheduler at 1 and 2 runners; progress streaming on the last row.
  for (const auto& [runners, progress_every, label] :
       {std::tuple<int, std::uint64_t, const char*>{1, 0, "scheduler_1"},
        {2, 0, "scheduler_2"},
        {2, 256, "scheduler_2_streaming"}}) {
    service::SchedulerOptions options;
    options.max_concurrent_jobs = runners;
    options.max_queue_depth = kJobs + 1;
    service::JobScheduler scheduler(options);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids;
    ids.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      RunRequest request =
          RunRequest()
              .with_circuit(circuits[static_cast<std::size_t>(i)])
              .with_repetitions(kReps)
              .with_seed(static_cast<std::uint64_t>(i));
      if (progress_every > 0) request.with_progress(progress_every, nullptr);
      ids.push_back(scheduler.submit(std::move(request)));
    }
    for (const std::uint64_t id : ids) (void)scheduler.wait(id);
    const double seconds = seconds_since(start);
    std::cout << label << std::string(23 - std::string(label).size(), ' ')
              << ": " << seconds << " s (" << kJobs / seconds
              << " jobs/s)\n";
    json.begin_object();
    json.key("path").value(label);
    json.key("runners").value(runners);
    json.key("progress_every").value(progress_every);
    json.key("seconds").value(seconds);
    json.key("jobs_per_second").value(kJobs / seconds);
    json.end_object();
  }

  // Durability overhead: the scheduler_1 shape with a write-ahead
  // journal in the loop — one fsync'd submit record per job, periodic
  // checkpoint records through the scheduler hook, and a terminal
  // record per job (the `bgls_serve --journal` configuration).
  {
    const std::string journal_path = "/tmp/bgls_bench_journal_" +
                                     std::to_string(::getpid()) + ".ndjson";
    std::remove(journal_path.c_str());
    service::Journal journal;
    journal.open(journal_path);
    service::SchedulerOptions options;
    options.max_concurrent_jobs = 1;
    options.max_queue_depth = kJobs + 1;
    options.checkpoint_every = 256;
    options.on_terminal = [&](const service::JobInfo& info) {
      journal.append(
          "{\"type\":\"terminal\",\"job\":" + std::to_string(info.id) +
          ",\"state\":\"" + std::string(job_state_name(info.state)) + "\"}");
    };
    options.on_checkpoint = [&](std::uint64_t id,
                                std::shared_ptr<const RunCheckpoint> ckpt) {
      journal.append("{\"type\":\"checkpoint\",\"job\":" + std::to_string(id) +
                     ",\"data\":" + ckpt->to_json() + "}");
    };
    service::JobScheduler scheduler(options);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids;
    ids.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      const std::uint64_t id = scheduler.submit(
          RunRequest()
              .with_circuit(circuits[static_cast<std::size_t>(i)])
              .with_repetitions(kReps)
              .with_seed(static_cast<std::uint64_t>(i)));
      journal.append("{\"type\":\"submit\",\"job\":" + std::to_string(id) +
                     "}");
      ids.push_back(id);
    }
    for (const std::uint64_t id : ids) (void)scheduler.wait(id);
    const double seconds = seconds_since(start);
    const std::uint64_t records = journal.records_written();
    journal.close();
    std::remove(journal_path.c_str());
    std::cout << "scheduler_1_journal    : " << seconds << " s ("
              << kJobs / seconds << " jobs/s, " << records
              << " fsync'd records)\n";
    json.begin_object();
    json.key("path").value("scheduler_1_journal");
    json.key("runners").value(1);
    json.key("checkpoint_every").value(256);
    json.key("journal_records").value(records);
    json.key("seconds").value(seconds);
    json.key("jobs_per_second").value(kJobs / seconds);
    json.end_object();
  }

  // Result-cache hit path: the scheduler_1 shape run twice against a
  // shared ResultCache. The first pass samples (all misses); the second
  // submits the identical requests and is answered entirely from the
  // cache — the row records the hot pass, i.e. the map-lookup-only
  // throughput a repeat-heavy workload sees.
  {
    auto cache = std::make_shared<service::ResultCache>();
    service::SchedulerOptions options;
    options.max_concurrent_jobs = 1;
    options.max_queue_depth = kJobs + 1;
    options.result_cache = cache;
    service::JobScheduler scheduler(options);
    const auto submit_all = [&] {
      std::vector<std::uint64_t> ids;
      ids.reserve(kJobs);
      for (int i = 0; i < kJobs; ++i) {
        ids.push_back(scheduler.submit(
            RunRequest()
                .with_circuit(circuits[static_cast<std::size_t>(i)])
                .with_repetitions(kReps)
                .with_seed(static_cast<std::uint64_t>(i))));
      }
      for (const std::uint64_t id : ids) (void)scheduler.wait(id);
    };
    const auto cold_start = std::chrono::steady_clock::now();
    submit_all();
    const double cold_seconds = seconds_since(cold_start);
    const auto hot_start = std::chrono::steady_clock::now();
    submit_all();
    const double hot_seconds = seconds_since(hot_start);
    const service::ResultCache::Stats cache_stats = cache->stats();
    std::cout << "scheduler_1_cache_hit  : " << hot_seconds << " s ("
              << kJobs / hot_seconds << " jobs/s; cold pass "
              << cold_seconds << " s, " << cache_stats.hits << " hits)\n";
    json.begin_object();
    json.key("path").value("scheduler_1_cache_hit");
    json.key("runners").value(1);
    json.key("cold_seconds").value(cold_seconds);
    json.key("cache_hits").value(cache_stats.hits);
    json.key("cache_misses").value(cache_stats.misses);
    json.key("seconds").value(hot_seconds);
    json.key("jobs_per_second").value(kJobs / hot_seconds);
    json.end_object();
  }

  // Tracing overhead: the scheduler_1 shape with every request
  // carrying a propagated trace context (the fleet-fronted
  // configuration), so each job records its queue/run/sample span tree
  // into a per-job Trace. Compare against scheduler_1: the delta is
  // the per-job cost of distributed tracing (ISSUE acceptance: within
  // the 2% telemetry bar).
  {
    service::SchedulerOptions options;
    options.max_concurrent_jobs = 1;
    options.max_queue_depth = kJobs + 1;
    service::JobScheduler scheduler(options);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids;
    ids.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      ids.push_back(scheduler.submit(
          RunRequest()
              .with_circuit(circuits[static_cast<std::size_t>(i)])
              .with_repetitions(kReps)
              .with_seed(static_cast<std::uint64_t>(i))
              .with_trace_context(static_cast<std::uint64_t>(424242 + i),
                                  /*parent_span_id=*/1)));
    }
    for (const std::uint64_t id : ids) (void)scheduler.wait(id);
    const double seconds = seconds_since(start);
    std::cout << "scheduler_1_traced     : " << seconds << " s ("
              << kJobs / seconds << " jobs/s)\n";
    json.begin_object();
    json.key("path").value("scheduler_1_traced");
    json.key("runners").value(1);
    json.key("seconds").value(seconds);
    json.key("jobs_per_second").value(kJobs / seconds);
    json.end_object();
  }

  // Fleet front: two in-process worker daemons behind a FleetDaemon,
  // driven through a real ServiceClient over Unix sockets — jobs/s
  // including the wire protocol and the fleet's placement/proxy hop.
  {
    const std::string base =
        "/tmp/bgls_bench_fleet_" + std::to_string(::getpid());
    service::DaemonOptions worker_options;
    worker_options.scheduler.max_concurrent_jobs = 1;
    worker_options.scheduler.max_queue_depth = kJobs + 1;
    worker_options.endpoint = service::Endpoint::parse("unix:" + base +
                                                       "_w1.sock");
    service::ServiceDaemon worker1(worker_options);
    worker_options.endpoint = service::Endpoint::parse("unix:" + base +
                                                       "_w2.sock");
    service::ServiceDaemon worker2(worker_options);
    worker1.start();
    worker2.start();
    service::FleetOptions fleet_options;
    fleet_options.endpoint =
        service::Endpoint::parse("unix:" + base + "_front.sock");
    fleet_options.workers = {worker1.endpoint(), worker2.endpoint()};
    service::FleetDaemon fleet(fleet_options);
    fleet.start();
    double seconds = 0;
    {
      service::ServiceClient client(fleet.endpoint());
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::uint64_t> ids;
      ids.reserve(kJobs);
      for (int i = 0; i < kJobs; ++i) {
        service::SubmitArgs args;
        args.qasm = kGhzQasm;
        args.repetitions = kReps;
        args.seed = static_cast<std::uint64_t>(i);
        ids.push_back(client.submit(args));
      }
      for (const std::uint64_t id : ids) (void)client.wait_report(id);
      seconds = seconds_since(start);
    }
    fleet.stop();
    worker1.stop();
    worker2.stop();
    std::cout << "fleet_2_workers        : " << seconds << " s ("
              << kJobs / seconds << " jobs/s)\n";
    json.begin_object();
    json.key("path").value("fleet_2_workers");
    json.key("workers").value(2);
    json.key("seconds").value(seconds);
    json.key("jobs_per_second").value(kJobs / seconds);
    json.end_object();
  }

  json.end_array();

  // Final telemetry snapshot (Session::metrics_snapshot()): the
  // scheduler/engine/kernel totals the whole bench accumulated, so the
  // BENCH file records *what ran* (applies per kernel class, shards,
  // queue waits) next to how fast it ran. Scalar series emit their
  // value; histograms emit count + sum.
  json.key("metrics").begin_object();
  for (const obs::SeriesSnapshot& series : Session::metrics_snapshot()) {
    switch (series.kind) {
      case obs::SeriesSnapshot::Kind::kCounter:
        json.key(series.name).value(series.count);
        break;
      case obs::SeriesSnapshot::Kind::kGauge:
        json.key(series.name).value(series.gauge);
        break;
      case obs::SeriesSnapshot::Kind::kHistogram:
        json.key(series.name).begin_object();
        json.key("count").value(series.count);
        json.key("sum").value(series.sum);
        json.end_object();
        break;
    }
  }
  json.end_object();

  json.end_object();
  json_file << "\n";
  bgls::bench::report_bench_json(json_path);
  return 0;
}
