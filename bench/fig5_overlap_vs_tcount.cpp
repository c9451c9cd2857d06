/// \file fig5_overlap_vs_tcount.cpp
/// Reproduces Fig. 5: starting from a random pure-Clifford circuit of
/// 100 moments, progressively replace more single-qubit gates with T
/// and plot the overlap attained by sum-over-Cliffords sampling at a
/// fixed sample budget. As the circuit becomes increasingly
/// non-Clifford the overlap decreases — "adequate performance is
/// limited by the degree in which the circuit is non-Clifford".

#include <fstream>
#include <iostream>
#include <vector>

#include "bench_guard.h"
#include "bench_json.h"

#include "circuit/random.h"
#include "core/simulator.h"
#include "stabilizer/near_clifford.h"
#include "statevector/state.h"
#include "util/json_writer.h"
#include "util/table.h"

namespace {

using namespace bgls;

Distribution exact_distribution(const Circuit& circuit, int n) {
  StateVectorState state(n);
  Rng rng(0);
  evolve(circuit, state, rng);
  Distribution dist;
  for (Bitstring b = 0; b < (Bitstring{1} << n); ++b) {
    const double p = state.probability(b);
    if (p > 1e-15) dist[b] = p;
  }
  return dist;
}

}  // namespace

int main(int argc, char** argv) {
  BGLS_REQUIRE_RELEASE_BENCH("fig5_overlap_vs_tcount");
  const std::string json_path =
      bench::bench_json_path(argc, argv, "BENCH_fig5.json");
  const int n = 6;
  const int moments = 100;  // the paper's 100-moment base circuit
  const std::uint64_t reps = 3000;
  Rng circuit_rng(31);
  const Circuit base = random_clifford_circuit(n, moments, circuit_rng);

  std::cout << "=== Fig. 5: overlap vs number of T gates ===\n\n";
  std::cout << "workload: random " << n << "-qubit, " << moments
            << "-moment Clifford circuit; " << reps
            << " samples per point\n\n";

  struct Row {
    int t_count = 0;
    double overlap = 0.0;
  };
  std::vector<Row> rows;
  ConsoleTable table({"#T gates", "overlap with ideal"});
  Rng sub_rng(37);
  for (const int t_count : {0, 1, 2, 4, 6, 8, 12, 16}) {
    Rng sub_seed(static_cast<std::uint64_t>(t_count) * 41 + 1);
    const Circuit circuit =
        t_count == 0 ? base
                     : with_random_t_substitutions(base, t_count, sub_seed);
    Simulator<CHState> sim{
        CHState(n),
        [](const Operation& op, CHState& state, Rng& inner) {
          act_on_near_clifford(op, state, inner);
        },
        [](const CHState& state, Bitstring b) { return state.probability(b); },
        SimulatorOptions{.disable_sample_parallelization = true}};
    Rng rng(43);
    const Counts counts = sim.sample(circuit, reps, rng);
    const double overlap = distribution_overlap(
        normalize(counts), exact_distribution(circuit, n));
    rows.push_back({t_count, overlap});
    table.add_row({std::to_string(t_count), ConsoleTable::num(overlap, 4)});
  }
  table.print(std::cout);
  std::cout << "\nOverlap decreases as T gates are added: 2^#T stabilizer\n"
               "branches dilute a fixed sample budget.\n";

  std::ofstream json_file = bench::open_bench_json(json_path);
  if (!json_file) return 1;
  JsonWriter json(json_file);
  json.begin_object();
  json.key("figure").value("fig5_overlap_vs_tcount");
  json.key("num_qubits").value(n);
  json.key("num_moments").value(moments);
  json.key("samples_per_point").value(reps);
  json.key("rows").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("t_count").value(row.t_count);
    json.key("overlap").value(row.overlap);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json_file << "\n";
  bench::report_bench_json(json_path);
  return 0;
}
