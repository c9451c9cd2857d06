/// \file bgls_fleet.cpp
/// The `bgls_fleet` front: load-balances N `bgls_serve` workers behind
/// one client endpoint (service/fleet.h).
///
///   $ bgls_serve --listen unix:/tmp/w0.sock &
///   $ bgls_serve --listen unix:/tmp/w1.sock &
///   $ bgls_fleet --listen unix:/tmp/bgls.sock
///       --worker unix:/tmp/w0.sock --worker unix:/tmp/w1.sock
///
/// Clients talk to the fleet endpoint exactly as they would a single
/// daemon (`bgls_client --connect unix:/tmp/bgls.sock ...`); placement
/// is invisible because BGLS sampling is deterministic — every worker
/// returns the byte-identical report. Extra fleet-only ops: `fleet`
/// (per-worker health), `drain`/`undrain` ({"worker":N}).

#include <iostream>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "server_tool.h"
#include "service/fleet.h"
#include "util/error.h"

namespace {

using namespace bgls;
using namespace bgls::service;
using tools::parse_u64_flag;
using tools::SignalWatcher;

struct FleetToolOptions {
  std::string listen = "unix:/tmp/bgls.sock";
  std::vector<std::string> workers;
  std::uint64_t health_interval_ms = 500;
  std::string log_file;             // "" = log to stderr
  std::string log_level = "info";
  std::uint64_t slow_ms = 0;        // 0 = no slow-request log lines
};

void print_usage(std::ostream& os) {
  os << "usage: bgls_fleet --worker SPEC [--worker SPEC ...] [options]\n"
        "\n"
        "Load-balancing front for bgls_serve workers: one endpoint,\n"
        "least-loaded placement, per-worker health checks, draining.\n"
        "Clients use the normal bgls_client protocol against the fleet\n"
        "endpoint; reports are byte-identical regardless of placement.\n"
        "\n"
        "options:\n"
        "  --listen SPEC    unix:<path> (default unix:/tmp/bgls.sock) or\n"
        "                   tcp:<host>:<port>; tcp port 0 picks an\n"
        "                   ephemeral port, printed on startup\n"
        "  --worker SPEC    a bgls_serve endpoint to place jobs on\n"
        "                   (repeatable, at least one required)\n"
        "  --health-interval-ms N  cadence of worker health pings\n"
        "                   (default 500)\n"
        "  --log-file PATH  append structured ndjson log lines to PATH\n"
        "                   (default: stderr); SIGHUP reopens the file,\n"
        "                   so external rotation works\n"
        "  --log-level LVL  minimum level recorded: debug/info/warn/\n"
        "                   error (default info)\n"
        "  --slow-ms N      warn-log request lines slower than N ms,\n"
        "                   with the job's trace id (default 0 = off)\n"
        "  --help           this text\n"
        "\n"
        "fleet-only ops (via raw ndjson or future client support):\n"
        "  {\"op\":\"fleet\"}                per-worker status\n"
        "  {\"op\":\"drain\",\"worker\":N}    stop placing new jobs on N\n"
        "  {\"op\":\"undrain\",\"worker\":N}  resume placement on N\n";
}

bool parse_args(int argc, char** argv, FleetToolOptions& options) {
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
    } else if (arg == "--listen") {
      options.listen = need_value(i, arg);
    } else if (arg == "--worker") {
      options.workers.push_back(need_value(i, arg));
    } else if (arg == "--health-interval-ms") {
      options.health_interval_ms = parse_u64_flag(arg, need_value(i, arg));
      BGLS_REQUIRE(options.health_interval_ms >= 1,
                   "--health-interval-ms must be at least 1");
    } else if (arg == "--log-file") {
      options.log_file = need_value(i, arg);
    } else if (arg == "--log-level") {
      options.log_level = need_value(i, arg);
    } else if (arg == "--slow-ms") {
      options.slow_ms = parse_u64_flag(arg, need_value(i, arg));
    } else {
      detail::throw_error<ValueError>("unknown flag '", arg,
                                      "' (try --help)");
    }
  }
  BGLS_REQUIRE(!options.workers.empty(),
               "at least one --worker SPEC is required (see --help)");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FleetToolOptions options;
  try {
    if (!parse_args(argc, argv, options)) return 0;

    tools::raise_descriptor_limit();
    tools::setup_logging(options.log_level, options.log_file);

    FleetOptions fleet_options;
    fleet_options.endpoint = Endpoint::parse(options.listen);
    for (const std::string& spec : options.workers) {
      fleet_options.workers.push_back(Endpoint::parse(spec));
    }
    fleet_options.health_interval =
        std::chrono::milliseconds(options.health_interval_ms);
    fleet_options.slow_request_ms = options.slow_ms;

    // Block the watched signals before the fleet daemon exists so no
    // earlier-spawned thread can receive them with the default
    // (process-killing) disposition.
    SignalWatcher::block_signals();
    FleetDaemon fleet(fleet_options);
    const SignalWatcher signals("bgls_fleet",
                                [&fleet] { fleet.request_shutdown(); });
    fleet.start();
    std::cout << "bgls_fleet: listening on " << fleet.endpoint().to_string()
              << " (" << options.workers.size() << " workers)" << std::endl;
    fleet.wait_for_shutdown();
    std::cout << "bgls_fleet: shutdown requested, draining" << std::endl;
    fleet.stop();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bgls_fleet: " << e.what() << "\n";
    return 2;
  }
}
