/// \file noisy_simulation.cpp
/// Non-unitary operations in BGLS (Sec. 3.2.1): noise channels via
/// quantum trajectories and mid-circuit measurement. The sampled
/// distribution from statevector trajectories is cross-checked against
/// the exact density-matrix evolution; the program exits with status 1
/// when their total variation distance exceeds the bound a correct
/// sampler exceeds with probability at most 1e-9.
///
///   $ ./noisy_simulation

#include <iostream>

#include "core/simulator.h"
#include "densitymatrix/state.h"
#include "statevector/state.h"
#include "util/table.h"

int main() {
  using namespace bgls;

  // A Bell pair degraded by amplitude damping (non-unital!) and
  // depolarizing noise.
  Circuit circuit{h(0), cnot(0, 1)};
  circuit.append(Operation(Gate::Channel(amplitude_damp(0.3)), {0}));
  circuit.append(Operation(Gate::Channel(depolarize(0.2)), {1}));
  circuit.append(measure({0, 1}, "noisy"));

  // Exact reference: deterministic Kraus-sum evolution of the density
  // matrix.
  DensityMatrixState rho(2);
  evolve_exact(circuit, rho);

  // BGLS with statevector trajectories: each repetition samples a Kraus
  // branch jointly with the bitstring candidates, so even the non-unital
  // damping channel is sampled without bias.
  Simulator<StateVectorState> sim{StateVectorState(2)};
  Rng rng(99);
  const std::uint64_t reps = 200000;
  const Result result = sim.run(circuit, reps, rng);
  const auto empirical = result.distribution("noisy");

  ConsoleTable table({"outcome", "trajectory estimate", "exact (dm)"});
  Distribution exact;
  for (Bitstring b = 0; b < 4; ++b) {
    exact[b] = rho.probability(b);
    const auto it = empirical.find(b);
    table.add_row({to_string(b, 2),
                   ConsoleTable::num(it == empirical.end() ? 0.0 : it->second, 4),
                   ConsoleTable::num(exact[b], 4)});
  }
  std::cout << "Noisy Bell pair, " << reps << " trajectories vs exact:\n\n";
  table.print(std::cout);
  const double tvd = total_variation_distance(empirical, exact);
  const double bound = tvd_sampling_bound(exact, reps, 1e-9);
  std::cout << "\ntotal variation distance: " << tvd << " (bound " << bound
            << ")\n";
  if (tvd > bound) {
    std::cerr << "trajectory estimate disagrees with the exact density "
                 "matrix\n";
    return 1;
  }
  std::cout << "\ntrajectories used: " << sim.last_run_stats().trajectories
            << " (sample parallelization is disabled for stochastic "
               "circuits)\n\n";

  // Mid-circuit measurement: measure, flip conditionally-in-spirit, and
  // measure again — records stay perfectly consistent per repetition.
  Circuit mid{h(0), measure({0}, "first"), x(0), measure({0}, "second")};
  const Result mid_result = sim.run(mid, 6, rng);
  std::cout << "Mid-circuit measurement demo (each row one repetition):\n";
  for (std::size_t i = 0; i < 6; ++i) {
    std::cout << "  first=" << mid_result.values("first")[i]
              << "  second=" << mid_result.values("second")[i] << "\n";
  }
  std::cout << "'second' is always the complement of 'first'.\n";
  return 0;
}
