/// \file fleet_workload.cpp
/// fleet_mixed: a real `bgls_fleet` front over two real `bgls_serve`
/// workers (--jobs 1 --journal --cache), spawned as processes in the
/// working directory and driven over unix sockets by two client
/// connections, each a closed loop (submit, then wait for the report).
///
/// Each client's job stream comes from the run seed: mostly 4–12-qubit
/// random QASM jobs, some Clifford GHZ jobs (routed to the stabilizer
/// backend), some no_batch jobs (the per-trajectory path), and some
/// exact repeats of a request the same client already had answered
/// (result-cache reads). The shares are an assumption (see kRepeatShare).
/// After the timed phase every distinct request is rebuilt from the seed
/// and re-run in-process through Session::run, and every served report
/// must be byte-identical to the in-process one.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "api/session.h"
#include "circuit/random.h"
#include "qasm/qasm.h"
#include "service/client.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/report.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace bgls;
using namespace bgls::service;

// The timed closed loop runs one connection per worker: with more, the
// busy threads of the clients, the front and both workers outnumber the
// four vCPUs the benchmark was sized on, and every stolen vCPU stalls
// several jobs' wake-up chains, so the figures follow the host's load.
constexpr int kClients = 2;
// The traced run's loaded pass needs more connections than workers, so
// jobs wait in the scheduler queues it measures.
constexpr int kLoadedClients = 4;
constexpr int kColdClient = kLoadedClients;  // a stream no pass sends
constexpr int kCheckThreads = 4;  // in-process re-runs for the report check
constexpr std::uint32_t kTracedJobs = 400;           // one connection
constexpr std::uint32_t kLoadedJobsPerClient = 100;  // kLoadedClients connections

// --- Processes -----------------------------------------------------------

constexpr std::chrono::microseconds kPoll{200};

/// A spawned server process, stopped (shutdown op, then SIGKILL) and
/// reaped on destruction. A server exits about 0.2 s after the shutdown
/// op, so a group is stopped by request_stop() on each, then destroyed.
class Process {
 public:
  Process(const std::string& binary, std::vector<std::string> args,
          const std::string& log, std::string endpoint)
      : endpoint_(std::move(endpoint)) {
    args.insert(args.begin(), binary);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ~Process() {
    request_stop();
    for (int i = 0; i < 300; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }

  /// Sends the shutdown op once; does not wait for the exit.
  void request_stop() {
    if (stop_requested_) return;
    stop_requested_ = true;
    try {
      ServiceClient(Endpoint::parse(endpoint_)).shutdown_server();
    } catch (const std::exception&) {
    }
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] Endpoint endpoint() const { return Endpoint::parse(endpoint_); }

  /// Blocks until the process accepts connections (10 s at most). Polls
  /// every 0.2 ms, so the poll interval adds little to setup_s.
  void wait_listening() const {
    for (int i = 0; i < 50000; ++i) {
      try {
        ServiceClient probe(endpoint());
        return;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(kPoll);
      }
    }
    throw std::runtime_error("server " + endpoint_ + " never listened");
  }

 private:
  pid_t pid_ = -1;
  std::string endpoint_;
  bool stop_requested_ = false;
};

/// Two journaled, caching workers behind one fleet front.
struct Fleet {
  std::vector<std::unique_ptr<Process>> workers;
  std::unique_ptr<Process> front;

  explicit Fleet(const std::string& bin_dir) {
    std::vector<std::string> front_args = {"--listen", "unix:fleet.sock",
                                           "--log-file", "fleet.log",
                                           "--log-level", "warn"};
    for (int w = 0; w < 2; ++w) {
      const std::string name = "w" + std::to_string(w);
      std::remove((name + ".journal").c_str());
      workers.push_back(std::make_unique<Process>(
          bin_dir + "/bgls_serve",
          std::vector<std::string>{"--listen", "unix:" + name + ".sock",
                                   "--jobs", "1", "--journal",
                                   name + ".journal", "--cache", "1024",
                                   "--log-file", name + ".log", "--log-level",
                                   "warn"},
          name + ".out", "unix:" + name + ".sock"));
      front_args.push_back("--worker");
      front_args.push_back("unix:" + name + ".sock");
    }
    for (const auto& worker : workers) worker->wait_listening();
    front = std::make_unique<Process>(bin_dir + "/bgls_fleet", front_args,
                                      "fleet.out", "unix:fleet.sock");
    front->wait_listening();
    ServiceClient client(front->endpoint());
    for (int i = 0; i < 50000; ++i) {
      const JsonValue status = client.roundtrip(op_request_line("fleet"));
      std::size_t alive = 0;
      if (const JsonValue* list = status.find("workers")) {
        for (const JsonValue& w : list->items()) alive += w.bool_or("alive", false);
      }
      if (alive == workers.size()) return;
      std::this_thread::sleep_for(kPoll);
    }
    throw std::runtime_error("fleet never reported its workers live");
  }

  ~Fleet() {
    // Stop all three at once (each takes about 0.2 s to exit), the
    // front first.
    front->request_stop();
    for (const auto& worker : workers) worker->request_stop();
    front.reset();
    workers.clear();
  }
};

// --- Job streams ---------------------------------------------------------

enum class Kind : std::uint8_t { kRandom, kGhz, kNoBatch, kRepeat };
constexpr std::array<const char*, 4> kKindNames = {"random", "ghz", "no_batch",
                                                   "repeat"};

// The job mix is an assumption, not a measured traffic profile: the shares
// are chosen so that every serving layer (wire, fleet hop, scheduler,
// journal, result cache, stabilizer routing, serial path) does measurable
// work. A traced run reports the share of time each kind takes.
constexpr double kRepeatShare = 0.15;
constexpr double kGhzShare = 0.10;
constexpr double kNoBatchShare = 0.10;

struct Request {
  Kind kind = Kind::kRandom;
  std::uint8_t salt = 0;
  std::uint8_t client = 0;
  std::uint32_t source = 0;  // index of the request that first sent these bytes
  SubmitArgs args;
};

/// One client's deterministic request stream. Request k is a function of
/// (seed, client, salt, k) alone, so the benchmark keeps no copy of what
/// it sent: check_reports rebuilds each distinct request from its index.
/// `salt` re-seeds the sampler (not the circuits), so a pass with another
/// salt sends the same circuits and misses the result cache exactly where
/// the first pass did.
class Stream {
 public:
  Stream(std::uint64_t seed, int client, std::uint64_t salt)
      : circuits_(mix(seed, 500 + static_cast<std::uint64_t>(client))),
        sampler_(mix(seed, 900 + salt)),
        salt_(static_cast<std::uint8_t>(salt)),
        client_(static_cast<std::uint8_t>(client)) {}

  [[nodiscard]] Request at(std::uint32_t k) const {
    // A repeat is an exact copy of a uniformly chosen earlier request of
    // this stream; follow copies back to the request that first sent it.
    std::uint32_t source = k;
    Rng rng(mix(circuits_, source));
    double u = rng.uniform();
    while (u < kRepeatShare && source > 0) {
      source = static_cast<std::uint32_t>(rng.uniform_int(source));
      rng = Rng(mix(circuits_, source));
      u = rng.uniform();
    }
    Request r;
    r.salt = salt_;
    r.client = client_;
    r.source = source;
    RandomCircuitOptions options;
    options.num_moments = 8;
    options.op_density = 0.8;
    int qubits = 0;
    if (u < kRepeatShare + kGhzShare) {
      r.kind = Kind::kGhz;
      qubits = 16 + static_cast<int>(rng.uniform_int(17));
      r.args.repetitions = 256;
    } else if (u < kRepeatShare + kGhzShare + kNoBatchShare) {
      r.kind = Kind::kNoBatch;
      qubits = 4 + static_cast<int>(rng.uniform_int(5));
      r.args.repetitions = 64;
      r.args.no_batch = true;
    } else {
      r.kind = Kind::kRandom;
      qubits = 4 + static_cast<int>(rng.uniform_int(9));
      r.args.repetitions = 128u << rng.uniform_int(3);
    }
    Circuit circuit = r.kind == Kind::kGhz
                          ? ghz_circuit(qubits)
                          : generate_random_circuit(qubits, options, rng);
    std::vector<Qubit> all(static_cast<std::size_t>(qubits));
    for (int q = 0; q < qubits; ++q) all[static_cast<std::size_t>(q)] = q;
    circuit.append(measure(all, "c"));
    r.args.qasm = to_qasm(circuit);
    r.args.seed =
        mix(sampler_, (static_cast<std::uint64_t>(client_) << 32) | source);
    if (source != k) r.kind = Kind::kRepeat;
    return r;
  }

 private:
  std::uint64_t circuits_;
  std::uint64_t sampler_;
  std::uint8_t salt_;
  std::uint8_t client_;
};

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// What the benchmark keeps of one served job: fixed-size, so its own
/// memory barely grows with the number of jobs served.
struct Served {
  double seconds = 0;
  double end_s = 0;
  std::uint64_t job = 0;
  std::uint64_t report_hash = 0;
  std::uint32_t source = 0;
  std::uint8_t salt = 0;
  std::uint8_t client = 0;
  Kind kind = Kind::kRandom;
  bool from_cache = false;
  std::string report;  // kept only on the traced pass
};

/// Everything the clients recorded; guarded by `mutex`.
struct Ledger {
  std::mutex mutex;
  std::vector<Served> served;
  Outcome* out = nullptr;

  /// The records of the pass sent with `salt`.
  [[nodiscard]] std::vector<const Served*> pass(std::uint8_t salt) const {
    std::vector<const Served*> records;
    for (const Served& s : served) {
      if (s.salt == salt) records.push_back(&s);
    }
    return records;
  }
};

/// Submits and waits for one request; a refused or failed job counts into
/// the outcome.
void run_one(ServiceClient& client, const Request& request, bool keep_report,
             Ledger& ledger) {
  Served s;
  s.kind = request.kind;
  s.salt = request.salt;
  s.client = request.client;
  s.source = request.source;
  const double start = now_s();
  const JsonValue ack = client.roundtrip(submit_request_line(request.args));
  JsonValue done;
  if (ack.bool_or("ok", false)) {
    s.job = ack.u64_or("job", 0);
    s.from_cache = ack.bool_or("from_cache", false);
    done = client.roundtrip(wait_request_line(s.job, 0));
  }
  s.end_s = now_s();
  s.seconds = s.end_s - start;
  const std::lock_guard<std::mutex> lock(ledger.mutex);
  ++ledger.out->attempted;
  const JsonValue& last = ack.bool_or("ok", false) ? done : ack;
  if (!last.bool_or("ok", false)) {
    ledger.out->fail(std::string(kKindNames[static_cast<int>(request.kind)]) +
                     " job refused: " + last.string_or("code", "?") + " " +
                     last.string_or("error", ""));
    return;
  }
  const std::string report = done.string_or("report", "");
  s.report_hash = fnv1a(report);
  if (keep_report) s.report = report;
  ledger.served.push_back(std::move(s));
}

/// Runs `clients` concurrent client connections, each sending its own
/// stream under `salt`. With `jobs_per_client` set, each sends exactly
/// that many requests; otherwise each sends until `seconds` have passed.
void run_clients(const Fleet& fleet, std::uint64_t seed, int clients,
                 std::uint64_t salt, std::optional<std::uint32_t> jobs_per_client,
                 double seconds, bool traced, Ledger& ledger) {
  const double start = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ServiceClient client(fleet.front->endpoint());
        const Stream stream(seed, c, salt);
        for (std::uint32_t k = 0;; ++k) {
          if (jobs_per_client ? k >= *jobs_per_client
                              : now_s() - start >= seconds) {
            break;
          }
          Request request = stream.at(k);
          if (traced) {
            request.args.trace_id =
                (salt << 40) | (static_cast<std::uint64_t>(c) << 24) | (k + 1);
          }
          run_one(client, request, traced, ledger);
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(ledger.mutex);
        ledger.out->fail(std::string("client connection failed: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// The submit line of a request without its trailing newline, as the
/// daemon parses it.
std::string submit_line(const SubmitArgs& args) {
  std::string line = submit_request_line(args);
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

/// Rebuilds every distinct served request from the seed, re-runs it
/// in-process and compares report hashes (FNV-1a over the full report
/// bytes).
void check_reports(std::uint64_t seed, const std::vector<Served>& served,
                   Outcome& out) {
  using Key = std::tuple<std::uint8_t, std::uint8_t, std::uint32_t>;
  std::map<Key, std::uint64_t> expected;
  for (const Served& s : served) expected.emplace(Key{s.salt, s.client, s.source}, 0);
  std::vector<std::pair<const Key, std::uint64_t>*> todo;
  for (auto& entry : expected) todo.push_back(&entry);
  Session session;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        const auto [salt, client, source] = todo[i]->first;
        const Request r = Stream(seed, client, salt).at(source);
        const RunRequest request =
            parse_submit(JsonValue::parse(submit_line(r.args)));
        const RunReportContext context =
            report_context(request, request.circuit.num_qubits());
        todo[i]->second =
            fnv1a(run_report_string(context, session.run(request)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Served& s : served) {
    if (s.report_hash != expected.at(Key{s.salt, s.client, s.source})) {
      out.fail(std::string(kKindNames[static_cast<int>(s.kind)]) + " job " +
               std::to_string(s.job) +
               ": served report differs from the in-process report");
    }
  }
}

// --- Telemetry scrapes ---------------------------------------------------

/// Sums every sample of series `name` (any labels, optionally only
/// lines whose labels contain `label`) in a Prometheus text scrape.
double scrape_sum(const std::string& text, std::string_view name,
                  std::string_view label = "") {
  double total = 0;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + at, end - at);
    at = end + 1;
    if (line.rfind(name, 0) != 0 || line.size() <= name.size()) continue;
    const char after = line[name.size()];
    if (after != '{' && after != ' ') continue;
    const std::size_t space = line.rfind(' ');
    if (!label.empty() && line.substr(0, space).find(label) == std::string::npos) {
      continue;
    }
    total += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return total;
}

/// Cumulative bucket counts of histogram `name`, keyed by upper bound
/// and summed over workers.
std::map<double, double> scrape_buckets(const std::string& text,
                                        const std::string& name) {
  std::map<double, double> buckets;
  const std::string prefix = name + "_bucket{";
  std::size_t at = 0;
  while ((at = text.find(prefix, at)) != std::string::npos) {
    const std::size_t end = text.find('\n', at);
    const std::string line = text.substr(at, end - at);
    at = end;
    const std::size_t le = line.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, line.find('"', le + 4) - le - 4);
    const double upper = bound == "+Inf" ? INFINITY : std::strtod(bound.c_str(), nullptr);
    buckets[upper] += std::strtod(line.substr(line.rfind(' ') + 1).c_str(), nullptr);
  }
  return buckets;
}

/// Median of a cumulative-bucket histogram, interpolated linearly
/// inside the bucket holding it.
double bucket_median(const std::map<double, double>& cumulative) {
  if (cumulative.empty()) return 0.0;
  const double total = cumulative.rbegin()->second;
  double lower = 0, below = 0;
  for (const auto& [upper, count] : cumulative) {
    if (count >= total / 2 && count > below) {
      if (std::isinf(upper)) return lower;
      return lower + (upper - lower) * (total / 2 - below) / (count - below);
    }
    lower = upper;
    below = count;
  }
  return lower;
}

/// Journal::append on the workers' filesystem: median ms of 200
/// fsync'd appends of a submit-sized record.
double journal_append_ms() {
  const std::string path = "append_probe.journal";
  std::remove(path.c_str());
  std::vector<double> ms;
  {
    Journal journal;
    journal.open(path);
    const std::string record =
        "{\"type\":\"submit\",\"job\":1,\"line\":\"" + std::string(160, 'x') +
        "\"}";
    for (int i = 0; i < 200; ++i) {
      const double start = now_s();
      journal.append(record);
      ms.push_back((now_s() - start) * 1e3);
    }
  }
  std::remove(path.c_str());
  return median(ms);
}

/// Salts of the passes: the cold set-up job, the timed (or untraced
/// reference) pass, the traced pass, and the loaded scheduler pass.
constexpr std::uint8_t kColdSalt = 0;
constexpr std::uint8_t kMainSalt = 1;
constexpr std::uint8_t kTracedSalt = 2;
constexpr std::uint8_t kLoadedSalt = 3;

void report_traced(const Fleet& fleet, std::uint64_t seed,
                   const Ledger& ledger, const std::string& before,
                   const std::string& after, Outcome& out) {
  ServiceClient client(fleet.front->endpoint());
  const std::vector<const Served*> traced = ledger.pass(kTracedSalt);
  std::vector<double> place, proxy, unattributed, dispatch;
  double cache_hits = 0, applications = 0, evaluations = 0, dictionary = 0,
         trajectories = 0, traced_seconds = 0;
  std::map<std::string, double> routed;
  std::array<double, kKindNames.size()> kind_jobs{}, kind_seconds{};
  for (const Served* s : traced) {
    double place_s = 0, proxy_s = 0;
    for (const obs::SpanRecord& span : parse_spans(client.trace(s->job))) {
      if (span.name == "fleet.place") place_s = span.seconds;
      if (span.name == "fleet.proxy") proxy_s = span.seconds;
    }
    place.push_back(place_s * 1e3);
    proxy.push_back(proxy_s * 1e3);
    unattributed.push_back((s->seconds - place_s - proxy_s) * 1e3);
    kind_jobs[static_cast<std::size_t>(s->kind)] += 1;
    kind_seconds[static_cast<std::size_t>(s->kind)] += s->seconds;
    traced_seconds += s->seconds;
    const JsonValue report = JsonValue::parse(s->report);
    routed[report.string_or("backend", "")] += 1;
    const JsonValue& stats = *report.find("stats");
    applications += static_cast<double>(stats.u64_or("state_applications", 0));
    evaluations += static_cast<double>(stats.u64_or("probability_evaluations", 0));
    dictionary = std::max(dictionary,
                          static_cast<double>(stats.u64_or("max_dictionary_size", 0)));
    trajectories += static_cast<double>(stats.u64_or("trajectories", 0));
    if (s->from_cache) {
      cache_hits += 1;
      continue;
    }
    const JsonValue status = client.status(s->job);
    const auto ms = [&](const char* key) {
      const JsonValue* value = status.find(key);
      return value == nullptr ? 0.0 : value->as_double();
    };
    dispatch.push_back(ms("run_ms") - ms("sample_ms") - ms("optimize_ms"));
  }
  const double jobs = static_cast<double>(traced.size());
  const double ran = jobs - cache_hits;
  for (const char* cls : kKernelClasses) {
    const std::string label = std::string("class=\"") + cls + "\"";
    out.add(std::string("statevector.apply_calls.") + cls,
            scrape_sum(after, "bgls_kernel_apply_total", label) -
                scrape_sum(before, "bgls_kernel_apply_total", label),
            "count");
  }
  out.add("statevector.apply_ms",
          (scrape_sum(after, "bgls_kernel_apply_seconds_sum") -
           scrape_sum(before, "bgls_kernel_apply_seconds_sum")) *
              1e3 / std::max(ran, 1.0),
          "ms");
  out.add("core.state_applications", applications, "count");
  out.add("core.probability_evaluations", evaluations, "count");
  out.add("core.max_dictionary_size", dictionary, "count");
  out.add("core.trajectories", trajectories, "count");
  for (const char* backend : {"statevector", "stabilizer", "densitymatrix",
                              "mps"}) {
    out.add(std::string("api.routed.") + backend, routed[backend], "count");
  }
  out.add("api.dispatch_ms", median(dispatch), "ms");
  out.add("journal.records_per_job",
          (scrape_sum(after, "bgls_journal_records_total") -
           scrape_sum(before, "bgls_journal_records_total")) / jobs,
          "count");
  out.add("journal.append_ms_p50", journal_append_ms(), "ms");
  out.add("cache.hit_ratio", cache_hits / jobs, "ratio");
  out.add("fleet.place_ms_p50", median(place), "ms");
  out.add("fleet.proxy_ms_p50", median(proxy), "ms");
  out.add("wire.unattributed_ms_p50", median(unattributed), "ms");
  std::map<double, double> requests =
      scrape_buckets(after, "bgls_daemon_request_seconds");
  for (const auto& [upper, count] :
       scrape_buckets(before, "bgls_daemon_request_seconds")) {
    requests[upper] -= count;
  }
  out.add("daemon.request_ms_p50", bucket_median(requests) * 1e3, "ms");
  // The assumed mix as the traced pass measured it: each kind's share of
  // the jobs and of the pass's time (one connection, so time is wall time).
  for (std::size_t k = 0; k < kKindNames.size(); ++k) {
    out.add(std::string("fleet.job_share.") + kKindNames[k], kind_jobs[k] / jobs,
            "ratio");
    out.add(std::string("fleet.time_share.") + kKindNames[k],
            kind_seconds[k] / traced_seconds, "ratio");
  }

  // Queue waits need concurrent clients, so they come from the loaded
  // pass (untraced, four connections).
  std::vector<double> queue_ms, run_ms;
  for (const Served* s : ledger.pass(kLoadedSalt)) {
    if (s->from_cache) continue;
    const JsonValue status = client.status(s->job);
    const auto ms = [&](const char* key) {
      const JsonValue* value = status.find(key);
      return value == nullptr ? 0.0 : value->as_double();
    };
    queue_ms.push_back(ms("queue_ms"));
    run_ms.push_back(ms("run_ms"));
  }
  out.add("scheduler.queue_wait_ms_p50", percentile(queue_ms, 50), "ms");
  out.add("scheduler.queue_wait_ms_p90", percentile(queue_ms, 90), "ms");
  out.add("scheduler.run_ms_p50", median(run_ms), "ms");

  // In-process timings over the traced pass's distinct requests.
  Session session;
  std::vector<double> resolve_us, parse_us;
  std::set<std::uint32_t> seen;
  for (const Served* s : traced) {
    if (!seen.insert(s->source).second) continue;
    const Request r = Stream(seed, s->client, s->salt).at(s->source);
    double start = now_s();
    const Circuit circuit = parse_qasm(r.args.qasm);
    parse_us.push_back((now_s() - start) * 1e6);
    const RunRequest request = parse_submit(JsonValue::parse(submit_line(r.args)));
    start = now_s();
    const auto resolution = session.resolve_backend(circuit, request);
    resolve_us.push_back((now_s() - start) * 1e6);
    if (resolution.backend == nullptr) out.fail("unresolved backend");
  }
  out.add("qasm.parse_us", median(parse_us), "us");
  out.add("api.resolve_us", median(resolve_us), "us");

  std::vector<double> untraced_ms, traced_ms;
  for (const Served* s : ledger.pass(kMainSalt)) untraced_ms.push_back(s->seconds);
  for (const Served* s : traced) traced_ms.push_back(s->seconds);
  out.add("obs.trace_overhead_frac", median(traced_ms) / median(untraced_ms) - 1,
          "ratio");
  out.add("traced.jobs", jobs, "count");
}

}  // namespace

Outcome run_fleet(const Options& options) {
  Outcome out;
  Ledger ledger;
  ledger.out = &out;

  // Set-up: spawn the workers and the front, wait until the front
  // reports both workers live, and run one cold job through it.
  const double setup_start = now_s();
  Fleet fleet(options.bin_dir);
  {
    ServiceClient client(fleet.front->endpoint());
    run_one(client, Stream(options.seed, kColdClient, kColdSalt).at(0), false,
            ledger);
  }
  out.add("setup_s", now_s() - setup_start, "s");
  if (options.mode == "setup") return out;

  if (!options.trace) {
    const double start = now_s();
    run_clients(fleet, options.seed, kClients, kMainSalt, std::nullopt,
                options.seconds, false, ledger);
    std::vector<Completion> done;
    for (const Served* s : ledger.pass(kMainSalt)) {
      done.push_back({s->end_s, s->seconds});
    }
    add_timed_metrics(done, start, options.seconds, out);
    const double bench_mib = perfbench::peak_rss_mib(getpid());
    const double front_mib = perfbench::peak_rss_mib(fleet.front->pid());
    double workers_mib = 0;
    for (const auto& w : fleet.workers) workers_mib += perfbench::peak_rss_mib(w->pid());
    out.add("peak_rss_mb", bench_mib + front_mib + workers_mib, "MiB");
    out.add("peak_rss_mb.bench", bench_mib, "MiB");
    out.add("peak_rss_mb.front", front_mib, "MiB");
    out.add("peak_rss_mb.workers", workers_mib, "MiB");
  } else {
    // The loaded pass comes first and also warms both workers. Then the
    // untraced reference and the traced pass send the same list over one
    // connection, so nothing is in flight at any submit and the front
    // places round-robin: which worker's cache a repeat reaches, and so
    // every exact counter, is the same on every run of a seed.
    run_clients(fleet, options.seed, kLoadedClients, kLoadedSalt,
                kLoadedJobsPerClient, 0, false, ledger);
    run_clients(fleet, options.seed, 1, kMainSalt, kTracedJobs, 0, false,
                ledger);
    ServiceClient client(fleet.front->endpoint());
    const std::string before = client.metrics_text();
    run_clients(fleet, options.seed, 1, kTracedSalt, kTracedJobs, 0, true,
                ledger);
    const std::string after = client.metrics_text();
    report_traced(fleet, options.seed, ledger, before, after, out);
  }
  check_reports(options.seed, ledger.served, out);
  return out;
}

}  // namespace perfbench
