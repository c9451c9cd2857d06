/// \file fig2_sample_parallelization.cpp
/// Reproduces Fig. 2 and extends it with the engine's thread sweep.
///
/// Part 1 (the paper's figure): with automatic sample parallelization
/// (Sec. 3.2.3) the sampling runtime saturates at large repetition
/// counts, because the bitstring→multiplicity dictionary can hold at
/// most 2^n unique entries and multinomial splitting draws each gate's
/// counts in O(#unique) rather than O(repetitions). The ablation column
/// (batching disabled) keeps growing linearly instead.
///
/// Part 2 (beyond the paper): the thread-count sweep on the
/// per-trajectory workload that dictionary batching cannot absorb (a
/// noisy circuit), plus the dictionary path, which resamples on the
/// calling thread at every thread count. A histogram hash per row
/// double-checks the determinism guarantee: every thread count must
/// print the same hash.
///
/// Results are also written as machine-readable JSON (BENCH_fig2.json,
/// or the path given as argv[1]) so future PRs can track the perf
/// trajectory.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_guard.h"
#include "bench_json.h"

#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/simulator.h"
#include "statevector/state.h"
#include "util/json_writer.h"
#include "util/table.h"
#include "util/timing.h"

namespace {

using namespace bgls;

/// FNV-style hash of a histogram, used to demonstrate bit-identical
/// results across thread counts. The chain is order-sensitive, which is
/// fine because Counts is a std::map and iterates in sorted key order.
std::uint64_t histogram_hash(const Counts& counts) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const auto& [bits, count] : counts) {
    for (const std::uint64_t word : {bits, count}) {
      hash ^= word;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

struct SaturationRow {
  std::uint64_t repetitions = 0;
  double batched_seconds = 0.0;
  std::size_t dictionary_peak = 0;
  double unbatched_seconds = -1.0;  // < 0 when skipped
};

struct SweepRow {
  std::string path;
  int threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;
  std::uint64_t hash = 0;
};

}  // namespace

int main(int argc, char** argv) {
  BGLS_REQUIRE_RELEASE_BENCH("fig2_sample_parallelization");
  const std::string json_path =
      bench::bench_json_path(argc, argv, "BENCH_fig2.json");

  const int n = 8;
  Rng circuit_rng(11);
  RandomCircuitOptions options;
  options.num_moments = 25;
  options.op_density = 0.8;
  const Circuit circuit = generate_random_circuit(n, options, circuit_rng);

  std::cout << "=== Fig. 2: sample parallelization saturates runtime ===\n\n";
  std::cout << "workload: random " << n << "-qubit circuit, "
            << circuit.num_operations() << " operations\n\n";

  Simulator<StateVectorState> batched{StateVectorState(n)};
  SimulatorOptions off;
  off.disable_sample_parallelization = true;
  Simulator<StateVectorState> unbatched{StateVectorState(n), off};

  std::vector<SaturationRow> saturation;
  ConsoleTable table({"repetitions", "batched runtime", "dict peak",
                      "unbatched runtime"});
  constexpr std::uint64_t kUnbatchedCap = 10000;
  for (const std::uint64_t reps :
       {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{100},
        std::uint64_t{1000}, std::uint64_t{10000}, std::uint64_t{100000},
        std::uint64_t{1000000}}) {
    SaturationRow row;
    row.repetitions = reps;
    Rng rng1(3);
    row.batched_seconds =
        median_runtime([&] { batched.sample(circuit, reps, rng1); });
    row.dictionary_peak = batched.last_run_stats().max_dictionary_size;
    std::string unbatched_cell = "(skipped)";
    if (reps <= kUnbatchedCap) {
      Rng rng2(3);
      row.unbatched_seconds =
          median_runtime([&] { unbatched.sample(circuit, reps, rng2); });
      unbatched_cell = ConsoleTable::duration(row.unbatched_seconds);
    }
    table.add_row({std::to_string(reps),
                   ConsoleTable::duration(row.batched_seconds),
                   std::to_string(row.dictionary_peak), unbatched_cell});
    saturation.push_back(row);
  }
  table.print(std::cout);
  std::cout << "\nThe dictionary saturates at <= 2^" << n << " = " << (1 << n)
            << " unique bitstrings, so batched runtime flattens while the\n"
               "per-repetition (unbatched) cost keeps growing linearly.\n";

  // --- Part 2: engine thread sweep -----------------------------------
  const int traj_qubits = 6;
  const std::uint64_t traj_reps = 2000;
  Circuit trajectory_circuit =
      with_noise(ghz_circuit(traj_qubits), depolarize(0.02));
  const std::uint64_t batched_reps = 1000000;

  std::cout << "\n=== Engine thread sweep (beyond the paper) ===\n\n"
            << "trajectory workload: noisy " << traj_qubits << "-qubit GHZ, "
            << traj_reps << " trajectories\n"
            << "batched workload: the Fig. 2 circuit, " << batched_reps
            << " repetitions, resampled on the calling thread\n"
            << "(identical 'histogram hash' across thread counts = the "
               "determinism guarantee)\n\n";

  std::vector<SweepRow> sweep;
  ConsoleTable sweep_table(
      {"path", "threads", "runtime", "speedup vs 1", "histogram hash"});
  for (const std::string& path : {std::string("trajectory"),
                                  std::string("batched")}) {
    double base_seconds = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      SimulatorOptions engine_options;
      engine_options.num_threads = threads;
      Simulator<StateVectorState> simulator{
          StateVectorState(path == "trajectory" ? traj_qubits : n),
          engine_options};
      const Circuit& workload =
          path == "trajectory" ? trajectory_circuit : circuit;
      const std::uint64_t reps =
          path == "trajectory" ? traj_reps : batched_reps;
      Counts counts;
      const double seconds = median_runtime([&] {
        Rng rng(3);
        counts = simulator.sample(workload, reps, rng);
      });
      if (threads == 1) base_seconds = seconds;
      SweepRow row;
      row.path = path;
      row.threads = threads;
      row.seconds = seconds;
      row.speedup = seconds > 0.0 ? base_seconds / seconds : 1.0;
      row.hash = histogram_hash(counts);
      sweep.push_back(row);
      char speedup_text[32];
      std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx", row.speedup);
      char hash_text[32];
      std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                    static_cast<unsigned long long>(row.hash));
      sweep_table.add_row({path, std::to_string(threads),
                           ConsoleTable::duration(seconds), speedup_text,
                           hash_text});
    }
  }
  sweep_table.print(std::cout);
  std::cout << "\n(speedup tracks the physical core count; on a single-core "
               "machine all\nthread counts cost the same wall clock while "
               "the hashes stay identical.)\n";

  // --- JSON emission --------------------------------------------------
  std::ofstream json_file = bench::open_bench_json(json_path);
  if (!json_file) return 1;
  JsonWriter json(json_file);
  json.begin_object();
  json.key("figure").value("fig2_sample_parallelization");
  json.key("workload").begin_object();
  json.key("num_qubits").value(n);
  json.key("num_operations").value(circuit.num_operations());
  json.key("trajectory_qubits").value(traj_qubits);
  json.key("trajectory_repetitions").value(traj_reps);
  json.key("batched_sweep_repetitions").value(batched_reps);
  json.end_object();
  json.key("saturation").begin_array();
  for (const SaturationRow& row : saturation) {
    json.begin_object();
    json.key("repetitions").value(row.repetitions);
    json.key("batched_seconds").value(row.batched_seconds);
    json.key("dictionary_peak").value(row.dictionary_peak);
    json.key("unbatched_seconds");
    if (row.unbatched_seconds < 0.0) {
      json.null();
    } else {
      json.value(row.unbatched_seconds);
    }
    json.end_object();
  }
  json.end_array();
  json.key("thread_sweep").begin_array();
  for (const SweepRow& row : sweep) {
    json.begin_object();
    json.key("path").value(row.path);
    json.key("threads").value(row.threads);
    json.key("seconds").value(row.seconds);
    json.key("speedup_vs_1_thread").value(row.speedup);
    json.key("histogram_hash").value(row.hash);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json_file << "\n";
  bench::report_bench_json(json_path);
  return 0;
}
