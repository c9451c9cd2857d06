/// \file near_clifford_sampling.cpp
/// Sampling Clifford+T circuits with stabilizer states and the
/// sum-over-Cliffords channel (Sec. 4.2): every T gate is replaced
/// stochastically by I or S, so each repetition explores one of the
/// 2^#T Clifford branches. The attained overlap with the exact
/// distribution degrades as T gates are added — run this to watch it.
///
///   $ ./near_clifford_sampling

#include <iostream>

#include "circuit/random.h"
#include "core/simulator.h"
#include "stabilizer/near_clifford.h"
#include "statevector/state.h"
#include "util/table.h"

namespace {

/// Exact output distribution via the statevector backend.
bgls::Distribution exact_distribution(const bgls::Circuit& circuit, int n) {
  bgls::StateVectorState state(n);
  bgls::Rng rng(0);
  bgls::evolve(circuit, state, rng);
  bgls::Distribution dist;
  for (bgls::Bitstring b = 0; b < (bgls::Bitstring{1} << n); ++b) {
    const double p = state.probability(b);
    if (p > 1e-15) dist[b] = p;
  }
  return dist;
}

}  // namespace

int main() {
  using namespace bgls;

  const int n = 5;
  const int moments = 30;
  const std::uint64_t samples = 20000;
  Rng circuit_rng(7);
  const Circuit clifford = random_clifford_circuit(n, moments, circuit_rng);

  ConsoleTable table({"#T gates", "overlap with exact", "branches (2^#T)"});
  for (const int t_count : {0, 1, 2, 4, 8}) {
    Rng sub_rng(100 + static_cast<std::uint64_t>(t_count));
    const Circuit circuit =
        t_count == 0 ? clifford
                     : with_random_t_substitutions(clifford, t_count, sub_rng);

    // Near-Clifford sampling must re-run per repetition so each sample
    // explores a fresh stochastic Clifford branch.
    Simulator<CHState> sim{
        CHState(n),
        [](const Operation& op, CHState& state, Rng& rng) {
          act_on_near_clifford(op, state, rng);
        },
        [](const CHState& state, Bitstring b) { return state.probability(b); },
        SimulatorOptions{.disable_sample_parallelization = true}};
    Rng rng(42);
    const Counts counts = sim.sample(circuit, samples, rng);
    const double overlap =
        distribution_overlap(normalize(counts), exact_distribution(circuit, n));
    table.add_row({std::to_string(t_count), ConsoleTable::num(overlap, 4),
                   std::to_string(1u << t_count)});
  }
  std::cout << "Sum-over-Cliffords sampling of a " << n << "-qubit, "
            << moments << "-moment Clifford circuit with T substitutions\n"
            << "(" << samples << " samples per row; Sec. 4.2 / Fig. 5):\n\n";
  table.print(std::cout);
  std::cout << "\nPure Clifford (0 T gates) is exact; overlap decreases as\n"
               "the circuit becomes increasingly non-Clifford.\n";
  return 0;
}
