/// \file bgls_client.cpp
/// Command-line client for the `bgls_serve` daemon (service/client.h).
///
///   $ bgls_client --connect unix:/tmp/bgls.sock run
///       --reps 4096 --seed 7 circuit.qasm   # submit + wait + print report
///   $ bgls_client --connect tcp:127.0.0.1:7117 submit
///       --reps 100000 --no-batch --progress-every 5000 x.qasm  # job id
///   $ bgls_client --connect unix:/tmp/bgls.sock stream 3   # progress → stderr
///   $ bgls_client --connect unix:/tmp/bgls.sock cancel 3
///   $ bgls_client --connect unix:/tmp/bgls.sock stats
///
/// `run` output is byte-identical to `bgls_run` on the same input and
/// seed — the daemon embeds the canonical report. Exit codes mirror
/// bgls_run: 0 success, 2 usage/transport/server errors, 3 when the
/// job ended cancelled or timed out.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "service/client.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace bgls;
using namespace bgls::service;
using tools::parse_int_flag;
using tools::parse_signed_flag;
using tools::parse_u64_flag;

struct ClientOptions {
  std::string connect = "unix:/tmp/bgls.sock";
  std::string command;
  std::vector<std::string> args;  // positional command arguments
  SubmitArgs submit;              // flags for run/submit
  std::uint64_t timeout_ms = 0;   // wait/run bound (0 = none)
  /// Transport-level retries: a refused/dropped connection or a
  /// journal_error response reconnects with exponential backoff +
  /// jitter (the daemon may be mid-restart, replaying its journal).
  int retries = 0;
  std::uint64_t backoff_ms = 100;
  std::string chrome_trace;        // trace: also write Chrome JSON here
  std::string log_level = "debug"; // logs: minimum level to fetch
  std::uint64_t log_limit = 0;     // logs: tail length (0 = server default)
};

void print_usage(std::ostream& os) {
  os << "usage: bgls_client [--connect SPEC] <command> [flags] [args]\n"
        "\n"
        "Drives a running bgls_serve daemon (default SPEC\n"
        "unix:/tmp/bgls.sock; also tcp:<host>:<port>).\n"
        "\n"
        "commands:\n"
        "  run <qasm|->     submit, wait, print the final report (byte-\n"
        "                   identical to bgls_run); streams progress\n"
        "                   lines to stderr when --progress-every is set\n"
        "  submit <qasm|->  submit only; prints the job id\n"
        "  status <job>     one status line (state, progress)\n"
        "  wait <job>       wait for completion, print the report\n"
        "  result <job>     print a finished job's report\n"
        "  stream <job>     stream progress to stderr, report to stdout\n"
        "  cancel <job>     request cancellation\n"
        "  stats            scheduler counters\n"
        "  metrics          Prometheus text exposition of the daemon's\n"
        "                   telemetry registry (scrape-ready); against a\n"
        "                   fleet front, aggregated across workers with a\n"
        "                   worker=\"N\" label on every series\n"
        "  trace <job>      print the job's span tree (fleet + worker\n"
        "                   spans merged when connected to a fleet);\n"
        "                   --chrome-trace FILE also writes Chrome\n"
        "                   trace-event JSON (load in about://tracing)\n"
        "  logs             tail the server's structured-log ring;\n"
        "                   --level LVL --limit N --trace-id T filter\n"
        "  raw <json>       send one raw request line, print the raw\n"
        "                   response (fleet ops: fleet, drain, undrain)\n"
        "  shutdown         ask the daemon to exit\n"
        "\n"
        "submit flags (run/submit): --reps N --seed N --backend NAME\n"
        "  --threads N (never changes the report) --optimize --no-batch\n"
        "  --priority N --tenant NAME --deadline-ms N --progress-every N\n"
        "  --trace-id N (propagate an existing trace context; default:\n"
        "  the client mints a fresh nonzero id and prints it to stderr)\n"
        "wait flags (run/wait): --timeout-ms N\n"
        "transport flags: --retries N (reconnect attempts on connection\n"
        "  failures and journal_error responses, default 0)\n"
        "  --backoff-ms B (retry backoff base, default 100; the k-th\n"
        "  retry waits B*2^k plus jitter)\n"
        "\n"
        "exit codes: 0 success, 2 error, 3 job cancelled or timed out.\n";
}

bool parse_args(int argc, char** argv, ClientOptions& options) {
  const auto need_value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      detail::throw_error<ValueError>("missing value for ", flag);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    } else if (arg == "--connect") {
      options.connect = need_value(i, arg);
    } else if (arg == "--reps") {
      options.submit.repetitions = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--seed") {
      options.submit.seed = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--backend") {
      options.submit.backend = need_value(i, arg);
    } else if (arg == "--threads") {
      options.submit.threads = parse_int_flag(arg, need_value(i, arg));
    } else if (arg == "--optimize") {
      options.submit.optimize = true;
    } else if (arg == "--no-batch") {
      options.submit.no_batch = true;
    } else if (arg == "--priority") {
      options.submit.priority = parse_signed_flag(arg, need_value(i, arg));
    } else if (arg == "--tenant") {
      options.submit.tenant = need_value(i, arg);
    } else if (arg == "--deadline-ms") {
      options.submit.deadline_ms = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--progress-every") {
      options.submit.progress_every = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--trace-id") {
      options.submit.trace_id = parse_u64_flag(arg, need_value(i, arg));
      BGLS_REQUIRE(options.submit.trace_id != 0,
                   "--trace-id must be nonzero (0 means 'unset')");
    } else if (arg == "--chrome-trace") {
      options.chrome_trace = need_value(i, arg);
    } else if (arg == "--level") {
      options.log_level = need_value(i, arg);
    } else if (arg == "--limit") {
      options.log_limit = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--timeout-ms") {
      options.timeout_ms = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--retries") {
      const std::uint64_t retries = parse_u64_flag(arg, need_value(i, arg));
      BGLS_REQUIRE(retries <= 100, "value ", retries, " for ", arg,
                   " is out of range");
      options.retries = static_cast<int>(retries);
    } else if (arg == "--backoff-ms") {
      options.backoff_ms = parse_u64_flag(arg, need_value(i, arg));
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      detail::throw_error<ValueError>("unknown flag '", arg,
                                      "' (try --help)");
    } else if (options.command.empty()) {
      options.command = arg;
    } else {
      options.args.push_back(arg);
    }
  }
  BGLS_REQUIRE(!options.command.empty(), "no command given (see --help)");
  return true;
}

std::string read_input(const std::string& input) {
  std::ostringstream buffer;
  if (input == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream file(input);
    BGLS_REQUIRE(file.good(), "cannot open '", input, "'");
    buffer << file.rdbuf();
  }
  return buffer.str();
}

std::uint64_t job_argument(const ClientOptions& options) {
  BGLS_REQUIRE(options.args.size() == 1, "command '", options.command,
               "' expects exactly one job id");
  return parse_u64_flag("job id", options.args[0]);
}

/// Mints a fresh trace id when the caller did not pass --trace-id:
/// FNV-1a over the pid and the wall clock, remapped away from 0 (the
/// protocol's "unset"). Purely an identifier — never feeds sampling, so
/// the nondeterminism is contract-safe.
std::uint64_t mint_trace_id() {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(::getpid()));
  mix(static_cast<std::uint64_t>(  // bgls-lint: allow(nondeterministic-source)
      std::chrono::system_clock::now().time_since_epoch().count()));
  return hash == 0 ? 1 : hash;
}

void print_progress(const JsonValue& frame) {
  std::cerr << "progress: " << frame.u64_or("completed", 0) << "/"
            << frame.u64_or("total", 0) << " repetitions\n";
}

int run_command(const ClientOptions& options) {
  ServiceClient client(Endpoint::parse(options.connect));

  if (options.command == "run" || options.command == "submit") {
    BGLS_REQUIRE(options.args.size() == 1, "command '", options.command,
                 "' expects one circuit file (or '-')");
    SubmitArgs submit = options.submit;
    submit.qasm = read_input(options.args[0]);
    if (submit.trace_id == 0) {
      // Mint a context so every submission is traceable end to end;
      // announce it on stderr (stdout stays byte-identical to bgls_run).
      submit.trace_id = mint_trace_id();
      std::cerr << "trace-id: " << submit.trace_id << "\n";
    }
    const std::uint64_t job = client.submit(submit);
    if (options.command == "submit") {
      std::cout << job << "\n";
      return 0;
    }
    // run = submit + stream/wait + print. Streaming when requested so
    // long jobs show liveness; plain wait otherwise.
    if (submit.progress_every > 0) {
      std::cout << client.stream(job, print_progress);
    } else {
      std::cout << client.wait_report(job, options.timeout_ms);
    }
    return 0;
  }
  if (options.command == "wait") {
    std::cout << client.wait_report(job_argument(options), options.timeout_ms);
    return 0;
  }
  if (options.command == "result") {
    std::cout << client.result_report(job_argument(options));
    return 0;
  }
  if (options.command == "stream") {
    std::cout << client.stream(job_argument(options), print_progress);
    return 0;
  }
  if (options.command == "status") {
    const JsonValue status = client.status(job_argument(options));
    std::cout << "job " << status.u64_or("job", 0) << ": "
              << status.string_or("state", "?") << " ("
              << status.u64_or("completed", 0) << "/"
              << status.u64_or("total", 0) << " repetitions, "
              << status.u64_or("updates", 0) << " updates)\n";
    return 0;
  }
  if (options.command == "cancel") {
    const bool cancelled = client.cancel(job_argument(options));
    std::cout << (cancelled ? "cancelled\n" : "not cancellable\n");
    return 0;
  }
  if (options.command == "stats") {
    const JsonValue stats = client.stats();
    std::cout << "submitted=" << stats.u64_or("submitted", 0)
              << " completed=" << stats.u64_or("completed", 0)
              << " failed=" << stats.u64_or("failed", 0)
              << " cancelled=" << stats.u64_or("cancelled", 0)
              << " timed_out=" << stats.u64_or("timed_out", 0)
              << " rejected=" << stats.u64_or("rejected", 0)
              << " queue_depth=" << stats.u64_or("queue_depth", 0)
              << " running=" << stats.u64_or("running", 0)
              << " evicted=" << stats.u64_or("evicted", 0)
              << " cache_hits=" << stats.u64_or("cache_hits", 0) << "\n";
    const JsonValue* per_backend = stats.find("completed_per_backend");
    if (per_backend != nullptr &&
        per_backend->kind() == JsonValue::Kind::kObject) {
      for (const auto& [backend, count] : per_backend->members()) {
        std::cout << "  backend " << backend << ": " << count.as_u64()
                  << " jobs\n";
      }
    }
    return 0;
  }
  if (options.command == "metrics") {
    // Exposition text ends with a newline already; print verbatim so
    // the output pipes straight into a Prometheus scrape file.
    std::cout << client.metrics_text();
    return 0;
  }
  if (options.command == "trace") {
    const JsonValue response = client.trace(job_argument(options));
    const std::uint64_t trace_id = response.u64_or("trace_id", 0);
    const std::vector<obs::SpanRecord> spans = parse_spans(response);
    if (!options.chrome_trace.empty()) {
      std::ofstream file(options.chrome_trace);
      BGLS_REQUIRE(file.good(), "cannot write '", options.chrome_trace, "'");
      file << obs::to_chrome_trace(trace_id, spans);
      file << "\n";
    }
    std::cout << obs::render_span_tree(trace_id, spans);
    return 0;
  }
  if (options.command == "logs") {
    const JsonValue response = client.logs(
        options.log_level, options.submit.trace_id, options.log_limit);
    const JsonValue* lines = response.find("lines");
    if (lines != nullptr) {
      for (const JsonValue& line : lines->items()) {
        std::cout << line.as_string() << "\n";
      }
    }
    return 0;
  }
  if (options.command == "raw") {
    BGLS_REQUIRE(options.args.size() == 1, "command 'raw' expects exactly "
                 "one JSON request line");
    std::string line = options.args[0];
    if (line.empty() || line.back() != '\n') line += '\n';
    std::cout << client.roundtrip_text(line) << "\n";
    return 0;
  }
  if (options.command == "shutdown") {
    client.shutdown_server();
    std::cout << "shutdown requested\n";
    return 0;
  }
  detail::throw_error<ValueError>("unknown command '", options.command,
                                  "' (try --help)");
}

/// True for failures worth reconnecting on: transport errors (daemon
/// down or mid-restart), journal_error responses (a durable ack could
/// not be written; the submit is safe to repeat), and the fleet front's
/// worker_down (placement retries land on a live worker).
bool retryable(const std::exception& e) {
  if (dynamic_cast<const IoError*>(&e) != nullptr) return true;
  const auto* service = dynamic_cast<const ServiceError*>(&e);
  return service != nullptr && (service->code() == "journal_error" ||
                                service->code() == "worker_down");
}

void backoff_sleep(const ClientOptions& options, int attempt) {
  const std::uint64_t base = options.backoff_ms;
  std::uint64_t wait =
      base << std::min(attempt, 16);  // exponential, capped shift
  if (base > 0) {
    // Jitter decorrelates a herd of clients hammering a restarting
    // daemon; seeded per-process so runs stay reproducible under test.
    Rng jitter(static_cast<std::uint64_t>(::getpid()) * 2654435761ull +
               static_cast<std::uint64_t>(attempt));
    wait += jitter.uniform_int(base);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(wait));
}

int run_with_retries(const ClientOptions& options) {
  for (int attempt = 0;; ++attempt) {
    try {
      return run_command(options);
    } catch (const std::exception& e) {
      if (attempt >= options.retries || !retryable(e)) throw;
      std::cerr << "bgls_client: " << e.what() << " (retry "
                << (attempt + 1) << "/" << options.retries << ")\n";
      backoff_sleep(options, attempt);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  ClientOptions options;
  try {
    if (!parse_args(argc, argv, options)) return 0;
    return run_with_retries(options);
  } catch (const ServiceError& e) {
    std::cerr << "bgls_client: [" << e.code() << "] " << e.what() << "\n";
    return e.code() == "cancelled" || e.code() == "timeout" ? 3 : 2;
  } catch (const std::exception& e) {
    std::cerr << "bgls_client: " << e.what() << "\n";
    return 2;
  }
}
