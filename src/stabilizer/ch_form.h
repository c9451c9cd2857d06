/// \file ch_form.h
/// Stabilizer states in CH form — the C++ counterpart of
/// cirq.StabilizerChFormSimulationState, following Bravyi, Browne,
/// Calpin, Campbell, Gosset & Howard, "Simulation of quantum circuits by
/// low-rank stabilizer decompositions" (Quantum 3, 181 (2019),
/// arXiv:1808.00128), Sec. 4.1.2 of the bgls paper.
///
/// Representation:  |ψ⟩ = ω · U_C · U_H · |s⟩  with
///  - U_C a "C-type" Clifford (a product of CX, CZ, S — fixes |0...0⟩),
///    tracked through binary matrices G, F, M and a phase vector
///    γ ∈ Z₄ⁿ defined by the Heisenberg images
///        U_C† Z_p U_C = ∏_j Z_j^{G_{p,j}}
///        U_C† X_p U_C = i^{γ_p} ∏_j X_j^{F_{p,j}} Z_j^{M_{p,j}},
///  - U_H = ∏_j H_j^{v_j} a layer of Hadamards,
///  - |s⟩ a computational basis state,
///  - ω a complex scalar carrying the global phase (and, under the
///    sum-over-Cliffords channel of near_clifford.h, the branch weight).
///
/// Bit packing: with n ≤ 63 qubits, each matrix row and each of v, s is a
/// single 64-bit mask (qubit j at bit j), so every gate update is a few
/// word operations and a bitstring amplitude costs O(n) word ops —
/// realizing the O(n²)-per-amplitude, depth-independent cost quoted in
/// the paper (f(n, d) = O(d·n²) for sampling).
///
/// Every update rule is derived in the implementation comments and
/// cross-validated against the statevector backend (including the global
/// phase) by the test suite.

#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "util/bits.h"
#include "util/rng.h"

namespace bgls {

/// Stabilizer state in CH form.
class CHState {
 public:
  /// Widest register the bit-packed rows hold; the stabilizer backend's
  /// capability and routing limit.
  static constexpr int kMaxQubits = 63;

  /// Initializes |initial⟩ (default |0...0⟩) on 1..kMaxQubits qubits.
  explicit CHState(int num_qubits, Bitstring initial = 0);

  [[nodiscard]] int num_qubits() const { return n_; }

  /// ⟨x|ψ⟩ including the global phase — the
  /// inner_product_of_state_and_x equivalent, O(n²) bit ops.
  [[nodiscard]] Complex amplitude(Bitstring x) const;

  /// |⟨x|ψ⟩|² — the compute_probability_stabilizer_state ingredient.
  [[nodiscard]] double probability(Bitstring x) const;

  /// Applies a Clifford operation (I, X, Y, Z, H, S, S†, √X, CX, CZ,
  /// SWAP). Throws UnsupportedOperationError for anything else — the
  /// sum-over-Cliffords channel (near_clifford.h) handles Rz-family
  /// gates.
  void apply(const Operation& op);

  // --- Individual gate updates (left multiplication) --------------------
  void apply_x(int q);
  void apply_y(int q);
  void apply_z(int q);
  void apply_h(int q);
  void apply_s(int q);
  void apply_sdg(int q);
  void apply_sqrt_x(int q);
  void apply_cx(int control, int target);
  void apply_cz(int a, int b);
  void apply_swap(int a, int b);

  /// Multiplies the global scalar (used by sum-over-Cliffords weights).
  void scale_omega(Complex factor);

  /// True when measuring Z on qubit q has a deterministic outcome; the
  /// outcome is stored in *outcome when non-null.
  [[nodiscard]] bool is_deterministic_z(int q, int* outcome = nullptr) const;

  /// Projects qubit q onto `outcome` and renormalizes; returns the
  /// probability of that outcome (1.0 or 0.5). Throws on probability 0.
  double project_z(int q, int outcome);

  /// Projects the listed qubits onto the corresponding bits of `bits`
  /// (sampler measurement-collapse interface).
  void project(std::span<const Qubit> qubits, Bitstring bits);

  /// Samples and collapses a Z measurement of qubit q.
  int measure_z(int q, Rng& rng);

  /// Full statevector reconstruction (n ≤ 20; testing / examples).
  [[nodiscard]] std::vector<Complex> to_statevector() const;

 private:
  /// Canonicalizes ω·(1/√2)·U_C·U_H·(|t⟩ + i^δ|u⟩) back into CH form
  /// (Proposition 4 of Bravyi et al.). δ is taken mod 4.
  void update_sum(std::uint64_t t, std::uint64_t u, int delta);

  // Right-multiplication helpers (U_C ← U_C · g) used by update_sum.
  void right_cx(int control, int target);
  void right_cz(int a, int b);
  void right_s(int q);

  int n_ = 0;
  std::uint64_t mask_ = 0;          // low n bits set
  std::vector<std::uint64_t> g_;    // rows of G
  std::vector<std::uint64_t> f_;    // rows of F
  std::vector<std::uint64_t> m_;    // rows of M
  std::vector<std::uint8_t> gamma_; // γ ∈ Z₄ per row
  std::uint64_t v_ = 0;             // Hadamard layer
  std::uint64_t s_ = 0;             // basis state
  Complex omega_{1.0, 0.0};
};

/// BGLS `apply_op` for CH states (Clifford circuits only; use
/// near_clifford::act_on_near_clifford for Clifford+Rz circuits).
void apply_op(const Operation& op, CHState& state, Rng& rng);

/// BGLS `compute_probability` for CH states.
[[nodiscard]] double compute_probability(const CHState& state, Bitstring b);

}  // namespace bgls
