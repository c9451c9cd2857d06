/// \file driver.cpp
/// perfbench_driver — the compiled half of the benchmark; run.py builds
/// it and calls it once per mode:
///
///   perfbench_driver --mode setup    --workload W --seed N [--bin-dir D]
///   perfbench_driver --mode measure  --workload W --seed N --seconds S
///                    --trace 0|1 [--bin-dir D]
///   perfbench_driver --mode ceilings
///
/// `setup` reports only the workload's set-up time (a fresh process each
/// call, so every sample is cold). `measure` reports the end-to-end
/// metrics (--trace 0) or the per-layer metrics (--trace 1). `ceilings`
/// measures the machine's copy bandwidth. Each prints one JSON line:
/// {"attempted":N,"failed":N,"failures":[...],"metrics":{...}}.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

/// Working-set ceiling: arrays the size of the rcs_sv20 state (2^20
/// amplitudes of 16 B). DRAM ceiling: 1.2 GiB arrays, four times the
/// 300 MiB last-level cache of the machine the benchmark was sized on.
constexpr std::size_t kWorkingSetBytes = std::size_t{16} << 20;
constexpr std::size_t kDramBytes = std::size_t{1200} << 20;

Outcome ceilings() {
  Outcome out;
  out.attempted = 1;
  out.add("machine.copy_gbps_ws", perfbench::copy_gbps(kWorkingSetBytes, 200),
          "GB/s");
  out.add("machine.copy_gbps_dram", perfbench::copy_gbps(kDramBytes, 5),
          "GB/s");
  out.add("machine.copy_ws_mib", static_cast<double>(kWorkingSetBytes >> 20),
          "MiB");
  out.add("machine.copy_dram_mib", static_cast<double>(kDramBytes >> 20),
          "MiB");
  return out;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--mode") {
      options.mode = value;
    } else if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    Outcome out;
    if (options.mode == "ceilings") {
      out = ceilings();
    } else if (options.mode != "setup" && options.mode != "measure") {
      throw std::invalid_argument("unknown --mode " + options.mode);
    } else if (options.workload == "rcs_sv20" ||
               options.workload == "noisy_traj") {
      out = perfbench::run_library(options);
    } else if (options.workload == "fleet_mixed") {
      out = perfbench::run_fleet(options);
    } else {
      throw std::invalid_argument("unknown --workload " + options.workload);
    }
    out.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
