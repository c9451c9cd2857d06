#include "mps/state.h"

#include <algorithm>
#include <cmath>

#include "linalg/svd.h"
#include "util/error.h"

namespace bgls {

MPSState::MPSState(int num_qubits, MPSOptions options, Bitstring initial)
    : n_(num_qubits), options_(options) {
  BGLS_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
               "MPS supports 1..", kMaxQubits, " qubits, got ", num_qubits);
  BGLS_REQUIRE(options_.cutoff >= 0.0, "cutoff must be non-negative");
  tensors_.reserve(static_cast<std::size_t>(n_));
  for (int q = 0; q < n_; ++q) {
    Tensor t({physical_label(q)}, {2});
    t.data()[get_bit(initial, q) ? 1 : 0] = Complex{1.0, 0.0};
    tensors_.push_back(std::move(t));
  }
}

std::string MPSState::physical_label(int q) const {
  // Built via += rather than `"p" + std::to_string(q)`: the
  // char*+string&& overload trips GCC 12's -Wrestrict false positive
  // (PR105329) under -Werror.
  std::string label("p");
  label += std::to_string(q);
  return label;
}

const Tensor& MPSState::tensor(int q) const {
  BGLS_REQUIRE(q >= 0 && q < n_, "qubit ", q, " out of range");
  return tensors_[static_cast<std::size_t>(q)];
}

void MPSState::apply(const Operation& op) {
  const Gate& gate = op.gate();
  BGLS_REQUIRE(gate.is_unitary(), "cannot apply non-unitary '", gate.name(),
               "' directly; measurements/channels go through the sampler");
  // Memoized gate matrix (Gate::compiled_unitary): skips rebuilding the
  // unitary on every apply of the same gate.
  apply_matrix(gate.compiled_unitary()->matrix, op.qubits());
}

void MPSState::apply_matrix(const Matrix& m, std::span<const Qubit> qubits) {
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < n_, "qubit ", q, " out of range");
  }
  BGLS_REQUIRE(m.rows() == m.cols() &&
                   m.rows() == (std::size_t{1} << qubits.size()),
               "matrix dimension does not match qubit count");
  switch (qubits.size()) {
    case 1:
      apply_single_qubit(m, qubits[0]);
      return;
    case 2:
      apply_two_qubit(m, qubits[0], qubits[1]);
      return;
    default:
      detail::throw_error<UnsupportedOperationError>(
          "MPS backend supports 1- and 2-qubit operations; decompose ",
          qubits.size(), "-qubit gates first");
  }
}

void MPSState::apply_single_qubit(const Matrix& m, Qubit q) {
  auto& t = tensors_[static_cast<std::size_t>(q)];
  const std::vector<std::string> axes{physical_label(q)};
  t = bgls::apply_matrix(t, m, axes);
}

void MPSState::apply_two_qubit(const Matrix& m, Qubit a, Qubit b) {
  BGLS_REQUIRE(a != b, "two-qubit gate needs distinct qubits");
  auto& ta = tensors_[static_cast<std::size_t>(a)];
  auto& tb = tensors_[static_cast<std::size_t>(b)];
  const std::string pa = physical_label(a);
  const std::string pb = physical_label(b);

  // External (non-shared) bond labels stay attached to their qubit
  // through the split.
  std::vector<std::string> a_bonds;
  for (const auto& label : ta.labels()) {
    if (label != pa && !tb.has_label(label)) a_bonds.push_back(label);
  }
  std::vector<std::string> b_bonds;
  for (const auto& label : tb.labels()) {
    if (label != pb && !ta.has_label(label)) b_bonds.push_back(label);
  }

  // Contract the pair over any existing bond, hit the physical axes with
  // the gate (qubits[0] = most significant gate index), and split back.
  Tensor merged = contract(ta, tb);
  const std::vector<std::string> axes{pa, pb};
  merged = bgls::apply_matrix(merged, m, axes);

  std::vector<std::string> row_labels{pa};
  row_labels.insert(row_labels.end(), a_bonds.begin(), a_bonds.end());
  std::vector<std::string> col_labels{pb};
  col_labels.insert(col_labels.end(), b_bonds.begin(), b_bonds.end());
  const Matrix folded = merged.as_matrix(row_labels, col_labels);

  const SvdResult factors = svd(folded);
  // keep ≥ 1 so a vanishing Kraus branch still yields a (zero) state the
  // sampler can weigh out rather than an exception.
  const std::size_t keep = std::max<std::size_t>(
      truncated_rank(factors.singular_values, options_.max_bond_dim,
                     options_.cutoff),
      1);

  // Track the weight removed by truncation (estimated fidelity).
  double kept_weight = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < factors.singular_values.size(); ++i) {
    const double w =
        factors.singular_values[i] * factors.singular_values[i];
    total_weight += w;
    if (i < keep) kept_weight += w;
  }
  if (total_weight > 0.0) {
    estimated_fidelity_ *= kept_weight / total_weight;
  }

  std::string bond("b");  // += avoids GCC 12 -Wrestrict (see above)
  bond += std::to_string(bond_counter_++);
  // Absorb √σ into both halves (the quimb 'both' absorption).
  Matrix u_scaled(factors.u.rows(), keep);
  Matrix v_scaled(keep, factors.vh.cols());
  for (std::size_t k = 0; k < keep; ++k) {
    const double root = std::sqrt(factors.singular_values[k]);
    for (std::size_t r = 0; r < factors.u.rows(); ++r) {
      u_scaled(r, k) = factors.u(r, k) * root;
    }
    for (std::size_t c = 0; c < factors.vh.cols(); ++c) {
      v_scaled(k, c) = factors.vh(k, c) * root;
    }
  }

  std::vector<std::size_t> row_dims{2};
  for (const auto& label : a_bonds) row_dims.push_back(merged.dim(label));
  std::vector<std::size_t> col_dims{2};
  for (const auto& label : b_bonds) col_dims.push_back(merged.dim(label));

  ta = Tensor::from_matrix(u_scaled, row_labels, row_dims, {bond}, {keep});
  tb = Tensor::from_matrix(v_scaled, {bond}, {keep}, col_labels, col_dims);
}

Complex MPSState::amplitude(Bitstring b) const {
  BGLS_REQUIRE(n_ == kMaxQubits || (b >> n_) == 0,
               "bitstring out of range");
  // The paper's mps_bitstring_probability: isel every physical index to
  // the bit value, contract the reduced bond-only network.
  std::vector<Tensor> reduced;
  reduced.reserve(tensors_.size());
  for (int q = 0; q < n_; ++q) {
    reduced.push_back(tensors_[static_cast<std::size_t>(q)].isel(
        physical_label(q), static_cast<std::size_t>(get_bit(b, q))));
  }
  return contract_network(std::move(reduced)).scalar_value();
}

double MPSState::probability(Bitstring b) const {
  return std::norm(amplitude(b));
}

double MPSState::norm() const {
  // ⟨ψ|ψ⟩: the doubled network with conjugate bonds renamed so the two
  // copies only share physical labels.
  std::vector<Tensor> network;
  network.reserve(2 * tensors_.size());
  for (const auto& t : tensors_) {
    network.push_back(t);
    Tensor conj = t.conj();
    for (const auto& label : t.labels()) {
      if (label.front() == 'b') conj.rename_label(label, label + "*");
    }
    network.push_back(std::move(conj));
  }
  const Complex n2 = contract_network(std::move(network)).scalar_value();
  return std::sqrt(std::max(0.0, n2.real()));
}

void MPSState::renormalize() {
  const double current = norm();
  BGLS_REQUIRE(current > 1e-150, "cannot renormalize the zero state");
  tensors_.front().scale(Complex{1.0 / current, 0.0});
}

void MPSState::project(std::span<const Qubit> qubits, Bitstring bits) {
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < n_, "qubit ", q, " out of range");
    const int bit = get_bit(bits, q);
    Matrix projector(2, 2);
    projector(static_cast<std::size_t>(bit), static_cast<std::size_t>(bit)) =
        Complex{1.0, 0.0};
    apply_single_qubit(projector, q);
  }
  renormalize();
}

std::vector<Complex> MPSState::to_statevector() const {
  BGLS_REQUIRE(n_ <= 20, "to_statevector limited to 20 qubits");
  const Tensor full = contract_network(tensors_);
  const std::size_t dim = std::size_t{1} << n_;
  std::vector<Complex> psi(dim);
  std::vector<std::size_t> index(static_cast<std::size_t>(n_));
  // Map the tensor's axis order (arbitrary) onto qubit ids.
  std::vector<std::size_t> axis_of_qubit(static_cast<std::size_t>(n_));
  for (int q = 0; q < n_; ++q) {
    axis_of_qubit[static_cast<std::size_t>(q)] =
        full.axis(physical_label(q));
  }
  for (std::size_t b = 0; b < dim; ++b) {
    for (int q = 0; q < n_; ++q) {
      index[axis_of_qubit[static_cast<std::size_t>(q)]] =
          static_cast<std::size_t>(get_bit(b, q));
    }
    psi[b] = full.at(index);
  }
  return psi;
}

std::size_t MPSState::max_bond_dimension() const {
  std::size_t chi = 1;
  for (int q = 0; q < n_; ++q) {
    const auto& t = tensors_[static_cast<std::size_t>(q)];
    for (std::size_t ax = 0; ax < t.rank(); ++ax) {
      if (t.labels()[ax] != physical_label(q)) {
        chi = std::max(chi, t.dims()[ax]);
      }
    }
  }
  return chi;
}

std::size_t MPSState::tensor_size_total() const {
  std::size_t total = 0;
  for (const auto& t : tensors_) total += t.size();
  return total;
}

void apply_op(const Operation& op, MPSState& state, Rng& rng) {
  const Gate& gate = op.gate();
  if (gate.is_channel()) {
    const auto& ops = gate.channel().operators();
    std::vector<double> weights;
    weights.reserve(ops.size());
    for (const auto& k : ops) {
      MPSState branch = state;
      branch.apply_matrix(k, op.qubits());
      const double branch_norm = branch.norm();
      weights.push_back(branch_norm * branch_norm);
    }
    const std::size_t chosen = rng.categorical(weights);
    state.apply_matrix(ops[chosen], op.qubits());
    state.renormalize();
    return;
  }
  state.apply(op);
}

double compute_probability(const MPSState& state, Bitstring b) {
  return state.probability(b);
}

}  // namespace bgls
