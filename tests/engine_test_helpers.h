/// \file engine_test_helpers.h
/// Workload builders and factories shared by the engine suites
/// (test_engine, test_engine_async, test_engine_determinism,
/// test_cross_backend). The parameters the suites intentionally vary —
/// circuit seed, depth, density, noise strength — stay at the call
/// sites; only the construction recipes live here.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/simulator.h"
#include "statevector/state.h"

namespace bgls::testing {

/// Appends a terminal measurement of qubits [0, num_qubits) under `key`.
inline Circuit with_terminal_measurement(Circuit circuit, int num_qubits,
                                         const std::string& key = "m") {
  std::vector<Qubit> qubits;
  for (int q = 0; q < num_qubits; ++q) qubits.push_back(q);
  circuit.append(measure(qubits, key));
  return circuit;
}

/// A unitary random circuit eligible for the dictionary-batched path,
/// measured on all qubits under "m".
inline Circuit batched_workload(int n, std::uint64_t circuit_seed,
                                int num_moments, double op_density) {
  Rng circuit_rng(circuit_seed);
  RandomCircuitOptions options;
  options.num_moments = num_moments;
  options.op_density = op_density;
  return with_terminal_measurement(
      generate_random_circuit(n, options, circuit_rng), n, "m");
}

/// A noisy GHZ circuit forced onto the per-trajectory path, measured on
/// all qubits under "m".
inline Circuit trajectory_workload(int n, double depolarize_p) {
  Circuit noisy = with_noise(ghz_circuit(n), depolarize(depolarize_p));
  return with_terminal_measurement(std::move(noisy), n, "m");
}

/// A statevector simulator whose shards fan out on `num_threads`.
inline Simulator<StateVectorState> make_sv_simulator(int n, int num_threads) {
  SimulatorOptions options;
  options.num_threads = num_threads;
  return Simulator<StateVectorState>{StateVectorState(n), options};
}

/// FNV-style chain over the sorted (bits, count) pairs — identical
/// histograms, identical hash. (The fig2 bench carries its own copy;
/// benches build without the test tree.)
inline std::uint64_t histogram_hash(const Counts& counts) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const auto& [bits, count] : counts) {
    for (const std::uint64_t word : {bits, count}) {
      hash ^= word;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace bgls::testing
