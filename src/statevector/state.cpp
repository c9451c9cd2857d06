#include "statevector/state.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.h"

namespace bgls {
namespace {

/// Kernels switch to OpenMP above this dimension; below it the fork/join
/// overhead dominates.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 14;

}  // namespace

StateVectorState::StateVectorState(int num_qubits, Bitstring initial)
    : num_qubits_(num_qubits) {
  BGLS_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
               "statevector supports 1..", kMaxQubits, " qubits, got ",
               num_qubits);
  amplitudes_.assign(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
  BGLS_REQUIRE(initial < amplitudes_.size(), "initial bitstring out of range");
  amplitudes_[initial] = Complex{1.0, 0.0};
}

double StateVectorState::probability(Bitstring b) const {
  BGLS_REQUIRE(b < amplitudes_.size(), "bitstring out of range");
  return std::norm(amplitudes_[b]);
}

void StateVectorState::apply(const Operation& op) {
  const Gate& gate = op.gate();
  BGLS_REQUIRE(gate.is_unitary(), "cannot apply non-unitary '", gate.name(),
               "' directly; measurements/channels go through the sampler");
  // Memoized per gate: the matrix is built and classified once, and
  // every later apply of this gate (or any copy of it) skips straight
  // to the shaped kernel.
  const std::shared_ptr<const kernels::CompiledMatrix> compiled =
      gate.compiled_unitary();
  check_targets(compiled->matrix, op.qubits());
  kernels::apply_matrix(amplitudes_, num_qubits_, *compiled, op.qubits());
}

void StateVectorState::apply_diagonal_group(
    std::span<const Operation* const> ops) {
  std::array<Qubit, kernels::kMaxPhaseTableQubits> qubits{};
  std::size_t count = 0;
  for (const Operation* op : ops) {
    for (const Qubit q : op->qubits()) {
      if (std::find(qubits.begin(), qubits.begin() + count, q) !=
          qubits.begin() + count) {
        continue;
      }
      BGLS_REQUIRE(count < qubits.size(), "a diagonal group spans at most ",
                   qubits.size(), " qubits");
      qubits[count++] = q;
    }
  }
  phase_table_.reset({qubits.data(), count});
  for (const Operation* op : ops) {
    const Gate& gate = op->gate();
    BGLS_REQUIRE(gate.is_unitary(), "'", gate.name(), "' is not unitary");
    const std::shared_ptr<const kernels::CompiledMatrix> compiled =
        gate.compiled_unitary();
    BGLS_REQUIRE(compiled->classification.cls == kernels::GateClass::kDiagonal,
                 "'", gate.name(), "' is not diagonal");
    check_targets(compiled->matrix, op->qubits());
    phase_table_.multiply(compiled->classification.phases, op->qubits());
  }
  phase_table_.apply(amplitudes_);
}

void StateVectorState::apply_matrix(const Matrix& m,
                                    std::span<const Qubit> qubits) {
  check_targets(m, qubits);
  // Gate-class dispatch (kernels.h): diagonal, permutation, controlled
  // and dense matrices each take a kernel shaped for their structure.
  kernels::apply_matrix(amplitudes_, num_qubits_, m, qubits);
}

void StateVectorState::check_targets(const Matrix& m,
                                     std::span<const Qubit> qubits) const {
  BGLS_REQUIRE(m.rows() == m.cols() &&
                   m.rows() == (std::size_t{1} << qubits.size()),
               "matrix dimension does not match qubit count");
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    BGLS_REQUIRE(qubits[i] >= 0 && qubits[i] < num_qubits_, "qubit ",
                 qubits[i], " out of range");
    for (std::size_t j = 0; j < i; ++j) {
      BGLS_REQUIRE(qubits[j] != qubits[i], "duplicate target qubit ",
                   qubits[i]);
    }
  }
}

void StateVectorState::project(std::span<const Qubit> qubits, Bitstring bits) {
  std::size_t mask = 0;
  std::size_t want = 0;
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < num_qubits_, "qubit ", q, " out of range");
    mask |= std::size_t{1} << q;
    if (get_bit(bits, q)) want |= std::size_t{1} << q;
  }
  double kept = 0.0;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    if ((i & mask) == want) {
      kept += std::norm(amplitudes_[i]);
    } else {
      amplitudes_[i] = Complex{0.0, 0.0};
    }
  }
  BGLS_REQUIRE(kept > 0.0, "projection onto zero-probability outcome");
  const double scale = 1.0 / std::sqrt(kept);
  for (auto& a : amplitudes_) a *= scale;
}

double StateVectorState::norm_squared() const {
  double acc = 0.0;
  for (const auto& a : amplitudes_) acc += std::norm(a);
  return acc;
}

void StateVectorState::renormalize() {
  const double n2 = norm_squared();
  BGLS_REQUIRE(n2 > 0.0, "cannot renormalize the zero vector");
  const double scale = 1.0 / std::sqrt(n2);
  for (auto& a : amplitudes_) a *= scale;
}

std::vector<double> StateVectorState::probabilities() const {
  std::vector<double> probs(amplitudes_.size());
  const std::int64_t dim = static_cast<std::int64_t>(amplitudes_.size());
#pragma omp parallel for if (amplitudes_.size() >= kParallelThreshold) \
    schedule(static)
  for (std::int64_t i = 0; i < dim; ++i) {
    probs[static_cast<std::size_t>(i)] =
        std::norm(amplitudes_[static_cast<std::size_t>(i)]);
  }
  return probs;
}

double StateVectorState::marginal_one(Qubit q) const {
  BGLS_REQUIRE(q >= 0 && q < num_qubits_, "qubit ", q, " out of range");
  const std::size_t bit = std::size_t{1} << q;
  double p1 = 0.0;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    if (i & bit) p1 += std::norm(amplitudes_[i]);
  }
  return p1;
}

Bitstring StateVectorState::sample(Rng& rng) const {
  // Allocation-free single draw: one scan with early exit. Same
  // stopping rule as sample_n's inverse-CDF search (first i with
  // target < cdf[i]), so the two agree bit for bit per uniform drawn.
  const double target = rng.uniform() * norm_squared();
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < amplitudes_.size(); ++i) {
    acc += std::norm(amplitudes_[i]);
    if (target < acc) return i;
  }
  return amplitudes_.size() - 1;
}

std::vector<Bitstring> StateVectorState::sample_n(std::uint64_t count,
                                                  Rng& rng) const {
  // One O(2^n) probabilities pass builds the CDF; each draw is then an
  // O(n) inverse-CDF binary search instead of another O(2^n) scan.
  std::vector<double> cdf(amplitudes_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    acc += std::norm(amplitudes_[i]);
    cdf[i] = acc;
  }
  const double total = cdf.back();
  BGLS_REQUIRE(total > 0.0, "cannot sample from the zero vector");
  std::vector<Bitstring> draws(count);
  for (auto& draw : draws) {
    const double target = rng.uniform() * total;
    // First index with target < cdf[i] — identical to the sequential
    // scan's stopping rule, so draws match the pre-CDF implementation
    // bit for bit (plateaus from zero-probability entries are skipped).
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
    draw = it == cdf.end() ? amplitudes_.size() - 1
                           : static_cast<Bitstring>(it - cdf.begin());
  }
  return draws;
}

double StateVectorState::max_abs_diff(const StateVectorState& other) const {
  BGLS_REQUIRE(num_qubits_ == other.num_qubits_,
               "comparing states of different width");
  double worst = 0.0;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    worst = std::max(worst, std::abs(amplitudes_[i] - other.amplitudes_[i]));
  }
  return worst;
}

void apply_op(const Operation& op, StateVectorState& state, Rng& rng) {
  const Gate& gate = op.gate();
  if (gate.is_channel()) {
    // Quantum trajectory: sample a Kraus branch by its Born weight.
    const auto& ops = gate.channel().operators();
    std::vector<double> weights;
    weights.reserve(ops.size());
    for (const auto& k : ops) {
      StateVectorState branch = state;
      branch.apply_matrix(k, op.qubits());
      weights.push_back(branch.norm_squared());
    }
    const std::size_t chosen = rng.categorical(weights);
    state.apply_matrix(ops[chosen], op.qubits());
    state.renormalize();
    return;
  }
  state.apply(op);
}

double compute_probability(const StateVectorState& state, Bitstring b) {
  return state.probability(b);
}

void evolve(const Circuit& circuit, StateVectorState& state, Rng& rng) {
  for (const auto& moment : circuit.moments()) {
    for (const auto& op : moment.operations()) {
      if (op.gate().is_measurement()) continue;
      apply_op(op, state, rng);
    }
  }
}

}  // namespace bgls
