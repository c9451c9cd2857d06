/// \file fig4_overlap_vs_samples.cpp
/// Reproduces Fig. 4:
///  (a) fractional overlap with the ideal distribution as the sample
///      budget grows, for a pure-Clifford circuit (T→S copy; converges
///      to 1) versus the same circuit with T gates sampled via
///      sum-over-Cliffords (plateaus below 1 — the 2^#T stabilizer
///      branches mean a finite sample budget explores a smaller portion
///      of the output distribution, and the branch mixture itself
///      deviates from the true distribution);
///  (b) overlap versus rotation angle when every T is replaced by
///      Rz(θ): exact at Clifford angles (multiples of π/2), fluctuating
///      in between.

#include <fstream>
#include <iostream>
#include <numbers>
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
using std::numbers::pi;

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

Counts sample_near_clifford(const Circuit& circuit, int n,
                            std::uint64_t reps, Rng& rng) {
  Simulator<CHState> sim{
      CHState(n),
      [](const Operation& op, CHState& state, Rng& inner) {
        act_on_near_clifford(op, state, inner);
      },
      [](const CHState& state, Bitstring b) { return state.probability(b); },
      SimulatorOptions{.disable_sample_parallelization = true}};
  return sim.sample(circuit, reps, rng);
}

}  // namespace

int main(int argc, char** argv) {
  BGLS_REQUIRE_RELEASE_BENCH("fig4_overlap_vs_samples");
  const std::string json_path =
      bench::bench_json_path(argc, argv, "BENCH_fig4.json");
  struct BudgetRow {
    std::uint64_t samples = 0;
    double overlap_pure = 0.0;
    double overlap_t = 0.0;
  };
  std::vector<BudgetRow> budget_rows;
  struct AngleRow {
    double theta_over_pi = 0.0;
    double overlap = 0.0;
    double extent = 0.0;
    bool clifford_angle = false;
  };
  std::vector<AngleRow> angle_rows;
  // Workload chosen so the T gates actually interfere (they sit on
  // superposed qubits followed by further mixing): on larger random
  // Clifford circuits the branch-mixture error washes out into the
  // near-flat stabilizer distribution and the effect hides in sampling
  // noise.
  const int n = 4;
  Rng circuit_rng(17);
  const Circuit clifford_t = random_clifford_t_circuit(n, 12, 8, circuit_rng);
  const Circuit pure = with_t_gates_replaced(clifford_t, Gate::S());

  std::cout << "=== Fig. 4a: overlap vs sample budget ===\n\n";
  std::cout << "workload: random " << n
            << "-qubit Clifford circuit with 8 T gates, and its T→S "
               "pure-Clifford copy\n\n";
  {
    const auto ideal_t = exact_distribution(clifford_t, n);
    const auto ideal_pure = exact_distribution(pure, n);
    ConsoleTable table(
        {"samples", "overlap (pure Clifford)", "overlap (Clifford+T)"});
    Rng rng_pure(21), rng_t(23);
    for (const std::uint64_t reps : {std::uint64_t{100}, std::uint64_t{300},
                                     std::uint64_t{1000}, std::uint64_t{3000},
                                     std::uint64_t{10000},
                                     std::uint64_t{30000}}) {
      const double overlap_pure = distribution_overlap(
          normalize(sample_near_clifford(pure, n, reps, rng_pure)),
          ideal_pure);
      const double overlap_t = distribution_overlap(
          normalize(sample_near_clifford(clifford_t, n, reps, rng_t)),
          ideal_t);
      budget_rows.push_back({reps, overlap_pure, overlap_t});
      table.add_row({std::to_string(reps), ConsoleTable::num(overlap_pure, 4),
                     ConsoleTable::num(overlap_t, 4)});
    }
    table.print(std::cout);
    std::cout
        << "\nPure Clifford converges to overlap 1; the sum-over-Cliffords\n"
           "sampler lags and plateaus below 1 (the paper's 'noticeable "
           "lag').\n\n";
  }

  std::cout << "=== Fig. 4b: Clifford+Rz(θ) overlap vs angle ===\n\n";
  {
    const std::uint64_t reps = 20000;
    // The per-gate stabilizer extent proxy (|c_I| + |c_S|)² quantifies
    // how non-Clifford each angle is; overlap should anti-correlate
    // with it (the paper floats exploiting its minima as "a more
    // efficient alternative to T gates").
    ConsoleTable table(
        {"theta/pi", "overlap", "extent (|cI|+|cS|)^2", "clifford angle?"});
    Rng rng(29);
    const int points = 16;
    for (int k = 0; k <= points; ++k) {
      const double theta = 2.0 * pi * k / points;
      const Circuit rotated =
          with_t_gates_replaced(clifford_t, Gate::Rz(theta));
      const auto ideal = exact_distribution(rotated, n);
      const double overlap = distribution_overlap(
          normalize(sample_near_clifford(rotated, n, reps, rng)), ideal);
      const bool clifford_angle =
          std::abs(std::remainder(theta, pi / 2.0)) < 1e-9;
      const double c_identity =
          std::abs(std::cos(theta / 2.0) - std::sin(theta / 2.0));
      const double c_s = std::sqrt(2.0) * std::abs(std::sin(theta / 2.0));
      const double extent =
          (c_identity + c_s) * (c_identity + c_s);
      angle_rows.push_back({theta / pi, overlap,
                            clifford_angle ? 1.0 : extent, clifford_angle});
      table.add_row({ConsoleTable::num(theta / pi, 3),
                     ConsoleTable::num(overlap, 4),
                     ConsoleTable::num(clifford_angle ? 1.0 : extent, 4),
                     clifford_angle ? "yes" : ""});
    }
    table.print(std::cout);
    std::cout << "\nOverlap fluctuates with θ and touches 1 (up to sampling "
                 "noise) exactly\nat the Clifford angles θ ∈ {0, π/2, π, "
                 "3π/2, 2π}; dips track the stabilizer extent.\n";
  }

  std::ofstream json_file = bench::open_bench_json(json_path);
  if (!json_file) return 1;
  JsonWriter json(json_file);
  json.begin_object();
  json.key("figure").value("fig4_overlap_vs_samples");
  json.key("overlap_vs_budget").begin_array();
  for (const BudgetRow& row : budget_rows) {
    json.begin_object();
    json.key("samples").value(row.samples);
    json.key("overlap_pure_clifford").value(row.overlap_pure);
    json.key("overlap_clifford_t").value(row.overlap_t);
    json.end_object();
  }
  json.end_array();
  json.key("overlap_vs_angle").begin_array();
  for (const AngleRow& row : angle_rows) {
    json.begin_object();
    json.key("theta_over_pi").value(row.theta_over_pi);
    json.key("overlap").value(row.overlap);
    json.key("extent").value(row.extent);
    json.key("clifford_angle").value(row.clifford_angle);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json_file << "\n";
  bench::report_bench_json(json_path);
  return 0;
}
