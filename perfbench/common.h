/// \file common.h
/// Shared pieces of the benchmark driver: command-line options, the
/// outcome record every mode prints, order statistics, telemetry
/// snapshot arithmetic, process memory, and the machine's copy
/// bandwidth ceilings.

#pragma once

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// One driver invocation (see driver.cpp for the modes).
struct Options {
  std::string mode;      // setup | measure | ceilings
  std::string workload;  // rcs_sv20 | noisy_traj | fleet_mixed
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   // where bgls_serve / bgls_fleet live
};

/// What one driver invocation reports: correctness tallies and named
/// metrics with units, printed as one JSON line for run.py.
struct Outcome {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one failed job or check.
  void fail(const std::string& why);
  /// Prints the JSON line.
  void print() const;
};

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// Percentile q in [0, 100] with linear interpolation between order
/// statistics; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
[[nodiscard]] double max_of(const std::vector<double>& values);

/// One job of a timed closed loop: when it completed and how long it took.
struct Completion {
  double end_s;
  double latency_s;
};

/// Adds jobs_per_s and latency_p50/p90/p99_ms for a timed phase that
/// began at `start_s` and ran `seconds`. The phase is cut into six equal
/// windows by completion time; each metric is computed per window and the
/// median over the windows is reported, so a burst of interference from
/// other work on the machine moves at most one window. Jobs completing
/// after the phase (the in-flight tail) are left out.
void add_timed_metrics(const std::vector<Completion>& done, double start_s,
                       double seconds, Outcome& out);

/// splitmix64 — derives independent per-job seeds from the run seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Per-class statevector kernel counters (index order of the library's
/// dispatch classes) and the summed apply wall time.
inline constexpr std::array<const char*, 5> kKernelClasses = {
    "diagonal", "permutation", "controlled", "dense", "generic"};
struct KernelTotals {
  std::array<double, 5> calls{};
  double seconds = 0.0;
  KernelTotals& operator-=(const KernelTotals& other);
};
[[nodiscard]] KernelTotals kernel_totals(const bgls::obs::MetricsSnapshot& s);

/// Peak resident set (VmHWM) of a live process in MiB; 0 if unreadable.
[[nodiscard]] double peak_rss_mib(pid_t pid);

/// Copy bandwidth in GB/s (bytes read + bytes written per second) over
/// two arrays of `bytes` each, with every OpenMP thread copying one
/// slice; median over `repeats` timed copies after one warm-up copy.
[[nodiscard]] double copy_gbps(std::size_t bytes, int repeats);

}  // namespace perfbench
