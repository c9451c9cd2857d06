/// \file workloads.h
/// The benchmark's three workloads. Each entry point serves the driver's
/// `setup` mode (report only the set-up time) and `measure` mode (the
/// timed closed loop with tracing off, or with --trace 1 the fixed
/// traced job list that yields the per-layer metrics).

#pragma once

#include "common.h"

namespace perfbench {

/// rcs_sv20 and noisy_traj: sequential Session::run calls in-process.
[[nodiscard]] Outcome run_library(const Options& options);

/// fleet_mixed: two client connections to a bgls_fleet front over two
/// bgls_serve workers, all spawned from options.bin_dir.
[[nodiscard]] Outcome run_fleet(const Options& options);

}  // namespace perfbench
