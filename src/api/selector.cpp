#include "api/selector.h"

#include <algorithm>
#include <vector>

#include "stabilizer/ch_form.h"
#include "statevector/state.h"
#include "util/error.h"

namespace bgls {

CircuitProfile profile_circuit(const Circuit& circuit) {
  CircuitProfile profile;
  profile.num_qubits = circuit.num_qubits();
  for (const auto& moment : circuit.moments()) {
    for (const auto& op : moment.operations()) {
      ++profile.num_operations;
      const Gate& gate = op.gate();
      if (gate.is_measurement()) continue;
      profile.max_gate_arity = std::max(profile.max_gate_arity, gate.arity());
      if (gate.is_channel()) {
        profile.has_channels = true;
        profile.clifford_only = false;
      } else if (!gate.is_clifford()) {
        profile.clifford_only = false;
      }
      if (gate.arity() >= 2) {
        ++profile.entangling_gates;
        // Chain-local = qubit ids form a contiguous adjacent run.
        std::vector<Qubit> qubits(op.qubits().begin(), op.qubits().end());
        std::sort(qubits.begin(), qubits.end());
        for (std::size_t j = 0; j + 1 < qubits.size(); ++j) {
          if (qubits[j + 1] - qubits[j] != 1) {
            profile.nearest_neighbor_1d = false;
            break;
          }
        }
      }
    }
  }
  return profile;
}

BackendSelector::Selection BackendSelector::select(
    const Circuit& circuit, std::uint64_t repetitions) const {
  return select(profile_circuit(circuit), repetitions);
}

BackendSelector::Selection BackendSelector::select(
    const CircuitProfile& p, std::uint64_t repetitions) const {
  // 1. Pure Clifford: polynomial and exact beats everything dense.
  if (p.clifford_only && !p.has_channels &&
      p.num_qubits <= CHState::kMaxQubits) {
    return {BackendId::kStabilizer,
            "pure-Clifford circuit: CH-form stabilizer simulation is exact "
            "at polynomial cost"};
  }
  // 2. Channels: both dense representations re-evolve once per
  //    trajectory, over 4^n density-matrix entries or 2^n amplitudes —
  //    whichever the fitted model predicts cheaper. Ties go to the
  //    density matrix.
  if (p.has_channels) {
    if (p.num_qubits <= StateVectorState::kMaxQubits) {
      const double dm_seconds = cost_model_.predict_seconds(
          p, repetitions, BackendId::kDensityMatrix);
      const double sv_seconds = cost_model_.predict_seconds(
          p, repetitions, BackendId::kStateVector);
      if (dm_seconds <= sv_seconds) {
        return {BackendId::kDensityMatrix,
                "channel-bearing circuit: density-matrix trajectories "
                "predicted no slower than statevector trajectories"};
      }
      return {BackendId::kStateVector,
              "channel-bearing circuit: statevector quantum trajectories "
              "predicted cheaper than density-matrix trajectories"};
    }
    if (p.max_gate_arity <= 2) {
      return {BackendId::kMps,
              "channel-bearing circuit too wide for dense amplitudes: MPS "
              "quantum trajectories"};
    }
  }
  // 3. Too wide for dense amplitudes: tensor networks or nothing.
  if (p.num_qubits > StateVectorState::kMaxQubits) {
    if (!p.has_channels && p.max_gate_arity <= 2) {
      return {BackendId::kMps,
              "register too wide for dense amplitudes: matrix product "
              "state"};
    }
    detail::throw_error<UnsupportedOperationError>(
        "no shipped backend can run ", p.num_qubits,
        " qubits with these operations (gates of arity ", p.max_gate_arity,
        p.has_channels ? ", with channels" : "",
        "); decompose_to_arity() may help");
  }
  // 4. Chain-local circuits: n·χ³ tensor contractions vs 2^n amplitudes
  //    per gate, by predicted cost (χ estimated from the entangling
  //    density). Small or densely entangling circuits land on the
  //    statevector naturally — no width or density cutoffs needed.
  if (p.max_gate_arity <= 2 && p.nearest_neighbor_1d &&
      cost_model_.predict_seconds(p, repetitions, BackendId::kMps) <
          cost_model_.predict_seconds(p, repetitions,
                                      BackendId::kStateVector)) {
    return {BackendId::kMps,
            "1D nearest-neighbor circuit with low predicted bond growth: "
            "matrix product state cheaper than dense amplitudes"};
  }
  // 5. Dense default.
  return {BackendId::kStateVector,
          "dense or strongly entangling circuit: statevector"};
}

}  // namespace bgls
