#include "service/cost.h"

#include <algorithm>
#include <cmath>

#include "api/selector.h"

namespace bgls::service {

double CostModel::estimated_bond_dimension(const CircuitProfile& profile) {
  // χ can at most double per entangling layer and saturates at
  // 2^(n/2) (the Schmidt rank bound across the middle cut). The
  // entangling-gate density is the cheap proxy for layers the selector
  // already extracts.
  const double layers =
      std::min(profile.entangling_gates_per_qubit(),
               static_cast<double>(profile.num_qubits) / 2.0);
  // 2^32 caps the estimate for adversarial profiles: past that the
  // prediction is "absurdly expensive" either way and the double stays
  // well-behaved.
  return std::pow(2.0, std::min(layers, 32.0));
}

double CostModel::predict_seconds(const CircuitProfile& profile,
                                  std::uint64_t repetitions,
                                  BackendId backend) const {
  const double n = static_cast<double>(profile.num_qubits);
  const double ops = static_cast<double>(
      std::max<std::size_t>(profile.num_operations, 1));
  const double reps = static_cast<double>(repetitions);
  // Unitary circuits evolve once (dictionary-batched repetitions);
  // channel-bearing circuits re-evolve once per trajectory on every
  // representation, the density matrix included (Simulator runs
  // channels as trajectories whatever the state).
  const double passes = profile.has_channels ? std::max(reps, 1.0) : 1.0;
  const double shared = reps * coefficients_.sample_seconds_per_repetition +
                        coefficients_.job_overhead_seconds;
  switch (backend) {
    case BackendId::kStateVector:
      return passes * ops * std::ldexp(1.0, profile.num_qubits) *
                 coefficients_.sv_seconds_per_element +
             shared;
    case BackendId::kDensityMatrix:
      return passes * ops * std::ldexp(1.0, 2 * profile.num_qubits) *
                 coefficients_.dm_seconds_per_element +
             shared;
    case BackendId::kStabilizer: {
      // Near-Clifford rotations branch per repetition
      // (sum-over-Cliffords); pure Clifford evolves once.
      const double ch_passes =
          profile.clifford_only ? 1.0 : std::max(reps, 1.0);
      const double packed_words = std::max(n * n / 64.0, 1.0);
      return ch_passes * ops * packed_words *
                 coefficients_.stabilizer_seconds_per_word +
             shared;
    }
    case BackendId::kMps: {
      const double chi = estimated_bond_dimension(profile);
      return passes * ops * n * chi * chi * chi *
                 coefficients_.mps_seconds_per_element +
             shared;
    }
    case BackendId::kAuto:
    case BackendId::kCustom:
      break;
  }
  detail::throw_error<ValueError>(
      "CostModel::predict_seconds needs a resolved builtin backend, got '",
      backend_id_name(backend), "'");
}

}  // namespace bgls::service
