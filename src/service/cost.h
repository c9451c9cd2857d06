/// \file cost.h
/// CostModel — predicted wall seconds for a sampling request, fitted
/// offline from the recorded BENCH_*.json artifacts.
///
/// The gate-by-gate algorithm's cost is almost perfectly predictable
/// from circuit shape (qsim's noise paper makes the same observation:
/// runtime scales with qubits × ops × trajectories). Each backend has a
/// closed-form element count per gate application:
///
///   statevector    ops · 2^n          (one evolution; channel-bearing
///                                      circuits re-evolve per
///                                      trajectory)
///   densitymatrix  ops · 4^n          (likewise: channel-bearing
///                                      circuits re-evolve ρ per
///                                      trajectory)
///   stabilizer     ops · n²/64        (bit-packed CH-form rows; pure
///                                      Clifford evolves once)
///   mps            ops · n · χ³       (contraction + SVD per gate,
///                                      χ estimated from the
///                                      entangling-gate density)
///
/// multiplied by a fitted seconds-per-element coefficient, plus a
/// per-repetition sampling term and a fixed per-job scheduling
/// overhead. Two consumers:
///
///  - BackendSelector (api/selector.cpp) compares predicted costs
///    instead of hard-coded qubit cutoffs. On a channel-bearing circuit
///    both dense backends pay one pass per repetition, so densitymatrix
///    wins only while 4^n · dm coefficient ≤ 2^n · sv coefficient: never
///    at n ≥ 1 with the shared default coefficient;
///  - JobScheduler admission (service/scheduler.h) rejects submissions
///    whose predicted seconds exceed the configured budget before any
///    sampling happens, with an `over_budget` slug on the wire.

#pragma once

#include <cstdint>

#include "api/run_types.h"
#include "util/error.h"

namespace bgls {
struct CircuitProfile;  // api/selector.h
}

namespace bgls::service {

/// Thrown by JobScheduler::submit when cost-aware admission rejects the
/// job (predicted seconds over the per-job budget, or the predicted
/// queue backlog over the backlog budget). The backlog case is
/// retryable — resubmitting later, once queued work drains, can
/// succeed; the per-job case needs a smaller request (fewer
/// repetitions, narrower circuit, or an explicit cheaper backend).
class CostBudgetError : public Error {
 public:
  using Error::Error;
};

/// Fitted seconds-per-unit coefficients. Defaults are fitted from the
/// committed BENCH artifacts on the recording host:
///  - sv/dm: BENCH_micro_states.json BM_StateVector_ApplyH/20
///    (≈ 0.97 ms per 2^20-amplitude sweep → ≈ 0.93 ns per amplitude;
///    rounded up to 1 ns to cover non-Hadamard gate classes). The
///    density matrix does the same dense per-element work over 4^n
///    elements, so it shares the coefficient.
///  - mps: SVD-dominated; ≈ 16 dense-element units per tensor element
///    (linalg/svd.cpp is an unblocked one-sided Jacobi — far from the
///    statevector kernels' streaming bandwidth).
///  - stabilizer: bit-packed row updates, ≈ 1 ns per packed word.
///  - sample + overhead: BENCH_service.json session_direct vs
///    scheduler_1 rows (200 jobs × 1024 reps): ≈ 21 µs per rep
///    end-to-end at 4 qubits, of which the evolution term explains the
///    rest; ≈ 0.2 ms fixed per job through the scheduler.
struct CostCoefficients {
  double sv_seconds_per_element = 1.0e-9;
  double dm_seconds_per_element = 1.0e-9;
  double stabilizer_seconds_per_word = 1.0e-9;
  double mps_seconds_per_element = 1.6e-8;
  double sample_seconds_per_repetition = 2.0e-8;
  double job_overhead_seconds = 2.0e-4;
};

/// Predicts job wall seconds from routing features (api/selector.h's
/// CircuitProfile), repetitions, and the executing backend.
class CostModel {
 public:
  /// The committed-artifact fit (see CostCoefficients).
  CostModel() = default;
  explicit CostModel(CostCoefficients coefficients)
      : coefficients_(coefficients) {}

  /// Predicted wall seconds for sampling `repetitions` shots of a
  /// circuit with these features on `backend`. Throws ValueError for
  /// kAuto/kCustom — resolve the backend first (custom backends have
  /// no closed form; the scheduler skips cost admission for them).
  [[nodiscard]] double predict_seconds(const CircuitProfile& profile,
                                       std::uint64_t repetitions,
                                       BackendId backend) const;

  /// The χ estimate behind the MPS term: bond dimension grows at most
  /// one power of two per entangling layer, saturating at 2^(n/2) —
  /// clamped so the estimate stays finite for adversarial profiles.
  [[nodiscard]] static double estimated_bond_dimension(
      const CircuitProfile& profile);

  [[nodiscard]] const CostCoefficients& coefficients() const {
    return coefficients_;
  }

 private:
  CostCoefficients coefficients_;
};

}  // namespace bgls::service
