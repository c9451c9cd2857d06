/// \file selector.h
/// Automatic backend selection for BackendId::kAuto requests.
///
/// The gate-by-gate algorithm's selling point (Bravyi–Gosset–Liu; the
/// paper's Sec. 4) is that the same sampling loop runs over whichever
/// state representation is cheapest for the circuit at hand:
/// polynomial stabilizer simulation when the circuit is Clifford,
/// tensor networks when entanglement stays low, dense amplitudes
/// otherwise, and a density matrix when channels need exact small-n
/// ground truth. profile_circuit() extracts the routing features in one
/// pass; BackendSelector turns them into a choice with a stated reason.
///
/// Selection rules, in precedence order:
///  1. pure Clifford (no channels)            → stabilizer (exact, poly);
///  2. channel-bearing                        → densitymatrix or the
///     statevector trajectory path, whichever the CostModel predicts
///     cheaper (both re-evolve per repetition, 4^n vs 2^n elements a
///     pass, so statevector at the default coefficients);
///  3. wider than the statevector limit       → mps (only dense option);
///  4. 1D nearest-neighbor with arity ≤ 2     → mps when the CostModel
///     predicts its n·χ³ contractions cheaper than 2^n amplitudes;
///  5. everything else                        → statevector.
///
/// Rules 1 and 3 are structural: the register limits of CHState and
/// StateVectorState, which the adapters also report. Rules 2 and 4 are
/// the former hard-coded qubit cutoffs (max_density_matrix_qubits,
/// min_mps_qubits, entangling-density ceiling) replaced by predicted-
/// cost comparisons fitted from the BENCH artifacts (service/cost.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "api/run_types.h"
#include "circuit/circuit.h"
#include "service/cost.h"

namespace bgls {

/// Routing features of a circuit, extracted in one pass.
struct CircuitProfile {
  int num_qubits = 0;
  std::size_t num_operations = 0;
  /// Largest non-measurement gate arity.
  int max_gate_arity = 0;
  /// Every non-measurement gate is Clifford.
  bool clifford_only = true;
  bool has_channels = false;
  /// Non-measurement operations touching ≥ 2 qubits (each costs an MPS
  /// contraction + SVD and is what grows bond dimension).
  std::size_t entangling_gates = 0;
  /// Every multi-qubit operation acts on adjacent qubit ids |i-j| == 1
  /// (the chain topology MPS handles without long-range bonds).
  bool nearest_neighbor_1d = true;

  /// Entangling-gate density: entangling gates per qubit — a cheap
  /// proxy for how fast bond dimension can grow.
  [[nodiscard]] double entangling_gates_per_qubit() const {
    return num_qubits == 0
               ? 0.0
               : static_cast<double>(entangling_gates) / num_qubits;
  }
};

/// Extracts the routing features of `circuit`.
[[nodiscard]] CircuitProfile profile_circuit(const Circuit& circuit);

/// Picks a backend for a circuit according to the rules above.
class BackendSelector {
 public:
  /// The choice plus a human-readable justification (surfaced in
  /// RunResult::selection_reason).
  struct Selection {
    BackendId id = BackendId::kStateVector;
    std::string reason;
  };

  /// Repetition count the single-argument select() assumes — the
  /// service protocol's default submission size.
  static constexpr std::uint64_t kDefaultRepetitions = 1024;

  BackendSelector() = default;
  explicit BackendSelector(service::CostModel cost_model)
      : cost_model_(std::move(cost_model)) {}

  /// The fitted model behind rules 2 and 4 (and cost-aware admission).
  [[nodiscard]] const service::CostModel& cost_model() const {
    return cost_model_;
  }

  /// Profiles and selects. Throws UnsupportedOperationError when no
  /// shipped representation can run the circuit. The DM-vs-trajectories
  /// and MPS-vs-dense boundaries are predicted-cost comparisons at
  /// `repetitions`.
  [[nodiscard]] Selection select(
      const Circuit& circuit,
      std::uint64_t repetitions = kDefaultRepetitions) const;

  /// Selects from an existing profile.
  [[nodiscard]] Selection select(
      const CircuitProfile& profile,
      std::uint64_t repetitions = kDefaultRepetitions) const;

 private:
  service::CostModel cost_model_;
};

}  // namespace bgls
