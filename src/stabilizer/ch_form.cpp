#include "stabilizer/ch_form.h"

#include <bit>
#include <cmath>

#include "util/error.h"

namespace bgls {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

/// i^k for k mod 4.
constexpr Complex i_power(int k) {
  switch (k & 3) {
    case 0: return Complex{1.0, 0.0};
    case 1: return Complex{0.0, 1.0};
    case 2: return Complex{-1.0, 0.0};
    default: return Complex{0.0, -1.0};
  }
}

int parity(std::uint64_t word) { return std::popcount(word) & 1; }

/// Single-qubit normal form: H^v (|y⟩ + i^δ |ȳ⟩) = √2 · ω₁ · S^a H^b |c⟩
/// with |ω₁| = 1 (√2 cancels against the 1/√2 carried by update_sum).
/// Derivation in the cases below; validated by the phase-exact
/// statevector comparison tests.
struct HDecompose {
  Complex omega1;
  int a;
  int b;
  int c;
};

HDecompose h_decompose(int v, int y, int delta) {
  delta &= 3;
  if (v == 0) {
    // |y⟩ + i^δ|ȳ⟩ = i^{δ·y} (|0⟩ + i^{δ'}|1⟩) with δ' = (-1)^y δ,
    // and |0⟩ + i^{δ'}|1⟩ = √2 S^{δ'&1} H |δ'>>1⟩.
    const int delta2 = (y ? (4 - delta) : delta) & 3;
    return {i_power(delta * y), delta2 & 1, 1, delta2 >> 1};
  }
  if ((delta & 1) == 0) {
    // H(|y⟩ + (-1)^{δ/2}|ȳ⟩) = (-1)^{y·δ/2} √2 |δ/2⟩.
    const int c = delta >> 1;
    const double sign = (y & c) ? -1.0 : 1.0;
    return {Complex{sign, 0.0}, 0, 0, c};
  }
  // δ odd: H(|y⟩ + i^δ|ȳ⟩) = (1 + i^δ) S H |¬((δ>>1) ⊕ y)⟩, i.e.
  // ω₁ = (1 + i^δ)/√2 with a = b = 1.
  const Complex omega1 = (Complex{1.0, 0.0} + i_power(delta)) * kInvSqrt2;
  return {omega1, 1, 1, ((delta >> 1) ^ y) ^ 1};
}

}  // namespace

CHState::CHState(int num_qubits, Bitstring initial) : n_(num_qubits) {
  BGLS_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
               "CH form supports 1..", kMaxQubits, " qubits, got ",
               num_qubits);
  mask_ = (std::uint64_t{1} << n_) - 1;
  BGLS_REQUIRE((initial & ~mask_) == 0, "initial bitstring out of range");
  g_.resize(static_cast<std::size_t>(n_));
  f_.resize(static_cast<std::size_t>(n_));
  m_.assign(static_cast<std::size_t>(n_), 0);
  gamma_.assign(static_cast<std::size_t>(n_), 0);
  for (int p = 0; p < n_; ++p) {
    g_[static_cast<std::size_t>(p)] = std::uint64_t{1} << p;
    f_[static_cast<std::size_t>(p)] = std::uint64_t{1} << p;
  }
  for (int q = 0; q < n_; ++q) {
    if (get_bit(initial, q)) apply_x(q);
  }
}

Complex CHState::amplitude(Bitstring x) const {
  BGLS_REQUIRE((x & ~mask_) == 0, "bitstring out of range");
  // ⟨x|U_C = i^μ (-1)^{xvec·zvec} ⟨xvec| with (μ, xvec, zvec) the
  // phase-tracked product of the Heisenberg images of the X_j with
  // x_j = 1: each factor contributes γ_j and commuting its X part past
  // the accumulated Z part costs (-1)^{|zvec ∧ F_j|}.
  int mu = 0;
  std::uint64_t xvec = 0;
  std::uint64_t zvec = 0;
  for (int j = 0; j < n_; ++j) {
    if (!get_bit(x, j)) continue;
    const auto js = static_cast<std::size_t>(j);
    mu = (mu + gamma_[js] + 2 * parity(zvec & f_[js])) & 3;
    xvec ^= f_[js];
    zvec ^= m_[js];
  }
  // ⟨xvec|U_H|s⟩: qubits without H must agree with s; qubits with H
  // contribute 2^{-1/2} (-1)^{xvec_j s_j} each.
  if (((xvec ^ s_) & ~v_ & mask_) != 0) return Complex{0.0, 0.0};
  const int sign_exponent = 2 * (parity(xvec & zvec) ^ parity(xvec & s_ & v_));
  const double magnitude = std::pow(kInvSqrt2, std::popcount(v_ & mask_));
  return omega_ * i_power(mu + sign_exponent) * magnitude;
}

double CHState::probability(Bitstring x) const { return std::norm(amplitude(x)); }

void CHState::apply(const Operation& op) {
  const auto q = op.qubits();
  switch (op.gate().kind()) {
    case GateKind::kIdentity: return;
    case GateKind::kX: apply_x(q[0]); return;
    case GateKind::kY: apply_y(q[0]); return;
    case GateKind::kZ: apply_z(q[0]); return;
    case GateKind::kH: apply_h(q[0]); return;
    case GateKind::kS: apply_s(q[0]); return;
    case GateKind::kSdg: apply_sdg(q[0]); return;
    case GateKind::kSqrtX: apply_sqrt_x(q[0]); return;
    case GateKind::kCX: apply_cx(q[0], q[1]); return;
    case GateKind::kCZ: apply_cz(q[0], q[1]); return;
    case GateKind::kSwap: apply_swap(q[0], q[1]); return;
    default:
      detail::throw_error<UnsupportedOperationError>(
          "gate '", op.gate().name(),
          "' is not Clifford; CH states support {X,Y,Z,H,S,S†,√X,CX,CZ,"
          "SWAP} (see act_on_near_clifford for Rz-family gates)");
  }
}

void CHState::apply_x(int q) {
  // X_q |ψ⟩ = ω i^{γ_q} U_C (X^{F_q} Z^{M_q}) U_H |s⟩; pushing the Pauli
  // through U_H flips s by F_q on no-H qubits and by M_q on H qubits,
  // with sign (-1)^β, β = |M_q∧¬v∧s| + |F_q∧v∧s| + |F_q∧v∧M_q|.
  const auto qs = static_cast<std::size_t>(q);
  const std::uint64_t u = s_ ^ (f_[qs] & ~v_) ^ (m_[qs] & v_);
  const int beta = parity(m_[qs] & ~v_ & s_) ^ parity(f_[qs] & v_ & s_) ^
                   parity(f_[qs] & v_ & m_[qs]);
  omega_ *= i_power(gamma_[qs] + 2 * beta);
  s_ = u & mask_;
}

void CHState::apply_y(int q) {
  // Y = i X Z.
  apply_z(q);
  apply_x(q);
  omega_ *= Complex{0.0, 1.0};
}

void CHState::apply_z(int q) {
  // Z is C-type: Z X Z = -X, so only γ_q picks up 2.
  const auto qs = static_cast<std::size_t>(q);
  gamma_[qs] = static_cast<std::uint8_t>((gamma_[qs] + 2) & 3);
}

void CHState::apply_s(int q) {
  // S† X S = -i X Z ⇒ γ_q -= 1, M_q ^= G_q (Z rows unchanged).
  const auto qs = static_cast<std::size_t>(q);
  m_[qs] ^= g_[qs];
  gamma_[qs] = static_cast<std::uint8_t>((gamma_[qs] + 3) & 3);
}

void CHState::apply_sdg(int q) {
  // S X S† = i X Z ⇒ γ_q += 1, M_q ^= G_q.
  const auto qs = static_cast<std::size_t>(q);
  m_[qs] ^= g_[qs];
  gamma_[qs] = static_cast<std::uint8_t>((gamma_[qs] + 1) & 3);
}

void CHState::apply_sqrt_x(int q) {
  // √X = H S H exactly (no global phase).
  apply_h(q);
  apply_s(q);
  apply_h(q);
}

void CHState::apply_cx(int control, int target) {
  BGLS_REQUIRE(control != target, "CX needs distinct qubits");
  const auto c = static_cast<std::size_t>(control);
  const auto t = static_cast<std::size_t>(target);
  // Heisenberg: Z_t ↦ Z_c Z_t, X_c ↦ X_c X_t; combining the X images
  // costs (-1)^{|M_c ∧ F_t|} from commuting Z^{M_c} past X^{F_t}.
  gamma_[c] = static_cast<std::uint8_t>(
      (gamma_[c] + gamma_[t] + 2 * parity(m_[c] & f_[t])) & 3);
  g_[t] ^= g_[c];
  f_[c] ^= f_[t];
  m_[c] ^= m_[t];
}

void CHState::apply_cz(int a, int b) {
  BGLS_REQUIRE(a != b, "CZ needs distinct qubits");
  const auto x = static_cast<std::size_t>(a);
  const auto y = static_cast<std::size_t>(b);
  // X_a ↦ X_a Z_b, X_b ↦ X_b Z_a; Z rows unchanged; no phase (the Z
  // lands on a different qubit than the X it joins).
  m_[x] ^= g_[y];
  m_[y] ^= g_[x];
}

void CHState::apply_swap(int a, int b) {
  apply_cx(a, b);
  apply_cx(b, a);
  apply_cx(a, b);
}

void CHState::scale_omega(Complex factor) { omega_ *= factor; }

void CHState::apply_h(int q) {
  // H_q = (X_q + Z_q)/√2; push both Paulis through U_C and U_H:
  //   Z image: (-1)^α |t⟩,  t = s ⊕ (G_q∧v),      α = |G_q∧¬v∧s|
  //   X image: i^{γ_q}(-1)^β |u⟩, u = s ⊕ (F_q∧¬v) ⊕ (M_q∧v),
  //            β = |M_q∧¬v∧s| + |F_q∧v∧s| + |F_q∧v∧M_q|
  // giving H|ψ⟩ = ω(-1)^α (1/√2) U_C U_H (|t⟩ + i^δ|u⟩) with
  // δ = γ_q + 2(α+β).
  const auto qs = static_cast<std::size_t>(q);
  const std::uint64_t t = (s_ ^ (g_[qs] & v_)) & mask_;
  const std::uint64_t u =
      (s_ ^ (f_[qs] & ~v_) ^ (m_[qs] & v_)) & mask_;
  const int alpha = parity(g_[qs] & ~v_ & s_);
  const int beta = parity(m_[qs] & ~v_ & s_) ^ parity(f_[qs] & v_ & s_) ^
                   parity(f_[qs] & v_ & m_[qs]);
  const int delta = (gamma_[qs] + 2 * (alpha + beta)) & 3;
  if (alpha) omega_ *= Complex{-1.0, 0.0};
  update_sum(t, u, delta);
}

void CHState::update_sum(std::uint64_t t, std::uint64_t u, int delta) {
  delta &= 3;
  if (t == u) {
    // (|t⟩ + i^δ|t⟩)/√2 = ((1 + i^δ)/√2)|t⟩.
    s_ = t;
    omega_ *= (Complex{1.0, 0.0} + i_power(delta)) * kInvSqrt2;
    return;
  }
  // Choose the pivot q and fold the other differing positions onto it
  // with right-multiplied gates V_C such that
  // U_H(|t⟩+i^δ|u⟩) = V_C U_H (|y⟩+i^δ|z⟩), y ⊕ z = e_q:
  //   v_i = 0, v_q = 0:  CX(q→i)                      (plain flip)
  //   v_i = 1, v_q = 0:  CZ(q,i)   (H_i CX(q→i) H_i)
  //   v_i = 1, v_q = 1:  CX(i→q)   (H both: control/target swap)
  const std::uint64_t diff = (t ^ u) & mask_;
  const std::uint64_t set0 = diff & ~v_;
  const std::uint64_t set1 = diff & v_;
  int q;
  if (set0 != 0) {
    q = std::countr_zero(set0);
    for (std::uint64_t rest = set0 & ~(std::uint64_t{1} << q); rest != 0;
         rest &= rest - 1) {
      right_cx(q, std::countr_zero(rest));
    }
    for (std::uint64_t rest = set1; rest != 0; rest &= rest - 1) {
      right_cz(q, std::countr_zero(rest));
    }
  } else {
    q = std::countr_zero(set1);
    for (std::uint64_t rest = set1 & ~(std::uint64_t{1} << q); rest != 0;
         rest &= rest - 1) {
      right_cx(std::countr_zero(rest), q);
    }
  }

  // After folding, the two strings differ only at q. The first ket keeps
  // the coefficient 1, so y is the image of t (the other ket's image,
  // y ^ e, never enters the update).
  const std::uint64_t e = std::uint64_t{1} << q;
  const std::uint64_t y = (t & e) ? (u ^ e) : t;
  const HDecompose d =
      h_decompose(get_bit(v_, q), get_bit(y, q), delta);
  omega_ *= d.omega1;
  if (d.a) right_s(q);
  v_ = (v_ & ~e) | (d.b ? e : 0);
  s_ = with_bit(y, q, d.c);
}

void CHState::right_cx(int control, int target) {
  // U_C ← U_C · CX: column updates (images of Z_b gain Z_a, images of
  // X_a gain X_b).
  const auto a = static_cast<std::size_t>(control);
  const auto b = static_cast<std::size_t>(target);
  const std::uint64_t ca = std::uint64_t{1} << a;
  const std::uint64_t cb = std::uint64_t{1} << b;
  for (int p = 0; p < n_; ++p) {
    const auto ps = static_cast<std::size_t>(p);
    if (g_[ps] & cb) g_[ps] ^= ca;
    if (f_[ps] & ca) f_[ps] ^= cb;
    if (m_[ps] & cb) m_[ps] ^= ca;
  }
}

void CHState::right_cz(int a, int b) {
  // U_C ← U_C · CZ: X_a gains Z_b, X_b gains Z_a, and rows with both
  // X_a and X_b pick up a sign (CZ (X⊗X) CZ = -(X⊗X)(Z⊗Z)).
  const auto as = static_cast<std::size_t>(a);
  const auto bs = static_cast<std::size_t>(b);
  const std::uint64_t ca = std::uint64_t{1} << as;
  const std::uint64_t cb = std::uint64_t{1} << bs;
  for (int p = 0; p < n_; ++p) {
    const auto ps = static_cast<std::size_t>(p);
    const bool fa = (f_[ps] & ca) != 0;
    const bool fb = (f_[ps] & cb) != 0;
    if (fa) m_[ps] ^= cb;
    if (fb) m_[ps] ^= ca;
    if (fa && fb) {
      gamma_[ps] = static_cast<std::uint8_t>((gamma_[ps] + 2) & 3);
    }
  }
}

void CHState::right_s(int q) {
  // U_C ← U_C · S: X_q gains Z_q with phase -i (S† X S = -i X Z).
  const auto qs = static_cast<std::size_t>(q);
  const std::uint64_t cq = std::uint64_t{1} << qs;
  for (int p = 0; p < n_; ++p) {
    const auto ps = static_cast<std::size_t>(p);
    if (f_[ps] & cq) {
      m_[ps] ^= cq;
      gamma_[ps] = static_cast<std::uint8_t>((gamma_[ps] + 3) & 3);
    }
  }
}

bool CHState::is_deterministic_z(int q, int* outcome) const {
  // The measured operator in the s-frame is X^{G_q∧v} Z^{G_q∧¬v}; it is
  // deterministic iff the X part vanishes.
  const auto qs = static_cast<std::size_t>(q);
  if ((g_[qs] & v_ & mask_) != 0) return false;
  if (outcome != nullptr) *outcome = parity(g_[qs] & ~v_ & s_);
  return true;
}

double CHState::project_z(int q, int outcome) {
  BGLS_REQUIRE(q >= 0 && q < n_, "qubit ", q, " out of range");
  BGLS_REQUIRE(outcome == 0 || outcome == 1, "outcome must be 0 or 1");
  int fixed = 0;
  if (is_deterministic_z(q, &fixed)) {
    BGLS_REQUIRE(fixed == outcome,
                 "projection onto zero-probability outcome on qubit ", q);
    return 1.0;
  }
  // (I + (-1)^z Z_q)/2 |ψ⟩, renormalized by √2, lands exactly on the
  // update_sum normal form with t = s, u = s ⊕ (G_q∧v),
  // δ = 2(z + |G_q∧¬v∧s|).
  const auto qs = static_cast<std::size_t>(q);
  const std::uint64_t u = (s_ ^ (g_[qs] & v_)) & mask_;
  const int delta = (2 * (outcome + parity(g_[qs] & ~v_ & s_))) & 3;
  update_sum(s_, u, delta);
  return 0.5;
}

void CHState::project(std::span<const Qubit> qubits, Bitstring bits) {
  for (const Qubit q : qubits) project_z(q, get_bit(bits, q));
}

int CHState::measure_z(int q, Rng& rng) {
  int outcome = 0;
  if (is_deterministic_z(q, &outcome)) return outcome;
  outcome = rng.bernoulli(0.5) ? 1 : 0;
  project_z(q, outcome);
  return outcome;
}

std::vector<Complex> CHState::to_statevector() const {
  BGLS_REQUIRE(n_ <= 20, "to_statevector limited to 20 qubits");
  const std::size_t dim = std::size_t{1} << n_;
  std::vector<Complex> psi(dim);
  for (std::size_t x = 0; x < dim; ++x) psi[x] = amplitude(x);
  return psi;
}

void apply_op(const Operation& op, CHState& state, Rng& rng) {
  (void)rng;  // Clifford application is deterministic.
  BGLS_REQUIRE(!op.gate().is_measurement() && !op.gate().is_channel(),
               "measurements/channels are handled by the sampler");
  state.apply(op);
}

double compute_probability(const CHState& state, Bitstring b) {
  return state.probability(b);
}

}  // namespace bgls
