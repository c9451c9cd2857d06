// Kernel-equivalence and determinism tests for the gate-class
// specialized statevector kernels (statevector/kernels.h): every
// specialized path against the forced-generic reference on random
// states and qubit placements, classification itself, and bit-identical
// sampled histograms with kernels on/off and across OpenMP thread
// counts.

#include "statevector/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#ifdef BGLS_HAVE_OPENMP
#include <omp.h>
#endif

#include "channels/channels.h"
#include "circuit/random.h"
#include "core/optimize.h"
#include "core/simulator.h"
#include "statevector/state.h"
#include "engine_test_helpers.h"
#include "test_helpers.h"

namespace bgls {
namespace {

StateVectorState random_state(int n, Rng& rng) {
  StateVectorState state(n);
  RandomCircuitOptions options;
  options.num_moments = 6;
  options.op_density = 0.9;
  const Circuit c = generate_random_circuit(n, options, rng);
  for (const auto& op : c.all_operations()) state.apply(op);
  return state;
}

/// Applies `m` to copies of `initial` through the specialized and the
/// forced-generic path and compares the amplitudes. Every kernel
/// performs the generic path's products and sums on the amplitudes it
/// changes, so the two must agree exactly.
::testing::AssertionResult matches_generic(const StateVectorState& initial,
                                           const Matrix& m,
                                           const std::vector<Qubit>& qubits) {
  StateVectorState specialized = initial;
  StateVectorState generic = initial;
  {
    kernels::ForceGenericScope scope(false);
    specialized.apply_matrix(m, qubits);
  }
  {
    kernels::ForceGenericScope scope(true);
    generic.apply_matrix(m, qubits);
  }
  const double diff = specialized.max_abs_diff(generic);
  if (diff == 0.0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "max_abs_diff " << diff;
}

Matrix random_unitary_1q(Rng& rng) {
  return Gate::Rz(rng.uniform(0.0, 6.28)).unitary() *
         Gate::Ry(rng.uniform(0.0, 6.28)).unitary() *
         Gate::Rz(rng.uniform(0.0, 6.28)).unitary();
}

Matrix random_unitary_2q(Rng& rng) {
  const Matrix entangler = Gate::CX().unitary();
  Matrix u = Matrix::kron(random_unitary_1q(rng), random_unitary_1q(rng));
  u = entangler * u;
  u = Matrix::kron(random_unitary_1q(rng), random_unitary_1q(rng)) * u;
  return u;
}

/// Identity except `u` on the trailing block, where every gate-local bit
/// above u's own reads 1: CU for a 4x4 result with a 2x2 u, CCU for an
/// 8x8 one, and a singly controlled two-qubit u for an 8x8 with a 4x4.
Matrix controlled_block(const Matrix& u, std::size_t dim) {
  Matrix m = Matrix::identity(dim);
  const std::size_t offset = dim - u.rows();
  for (std::size_t r = 0; r < u.rows(); ++r) {
    for (std::size_t c = 0; c < u.cols(); ++c) {
      m(offset + r, offset + c) = u(r, c);
    }
  }
  return m;
}

/// Controlled-U with the control on the first or second listed qubit
/// (gate-local MSB or LSB).
Matrix controlled_1q(const Matrix& u, bool control_is_first) {
  Matrix m = Matrix::identity(4);
  if (control_is_first) {
    m(2, 2) = u(0, 0);
    m(2, 3) = u(0, 1);
    m(3, 2) = u(1, 0);
    m(3, 3) = u(1, 1);
  } else {
    m(1, 1) = u(0, 0);
    m(1, 3) = u(0, 1);
    m(3, 1) = u(1, 0);
    m(3, 3) = u(1, 1);
  }
  return m;
}

/// One matrix per kernel class and shape the run helper serves:
/// diagonal, permutation (unit and scaled cycles), controlled dense with
/// 1q and 2q inner blocks, complex dense 1q and 2q, and the scaled Kraus
/// operators of a depolarizing channel.
std::vector<std::pair<std::string, Matrix>> kernel_class_matrices() {
  Rng rng(61);
  const Matrix u1 = random_unitary_1q(rng);
  const Matrix u2 = random_unitary_2q(rng);
  std::vector<std::pair<std::string, Matrix>> out;
  for (const Gate& gate :
       {Gate::H(), Gate::X(), Gate::Y(), Gate::Z(), Gate::S(), Gate::T(),
        Gate::Rx(0.7), Gate::CX(), Gate::CZ(), Gate::CPhase(0.8),
        Gate::Swap(), Gate::ISwap(), Gate::CCX(), Gate::CCZ(),
        Gate::CSwap()}) {
    out.emplace_back(gate.name(), gate.unitary());
  }
  out.emplace_back("controlled dense 1q", controlled_block(u1, 4));
  out.emplace_back("doubly controlled dense 1q", controlled_block(u1, 8));
  out.emplace_back("controlled dense 2q", controlled_block(u2, 8));
  out.emplace_back("complex dense 1q", u1);
  out.emplace_back("complex dense 2q", u2);
  const KrausChannel channel = depolarize(0.05);
  for (std::size_t k = 0; k < channel.operators().size(); ++k) {
    out.emplace_back("depolarize Kraus " + std::to_string(k),
                     channel.operators()[k]);
  }
  return out;
}

/// Placements for a gate of `m`'s arity on `n` qubits: on qubits 0 and 1,
/// whose runs hold one or two amplitudes; in the middle; and on the top
/// qubits, whose runs at n = 15 are longer than one OpenMP task.
std::vector<std::vector<Qubit>> run_placements(const Matrix& m, int n) {
  switch (m.rows()) {
    case 2:
      return {{0}, {1}, {n / 2}, {n - 2}, {n - 1}};
    case 4:
      return {{0, 1}, {1, 0}, {n / 2, n / 2 + 1}, {n - 1, 0}, {n - 2, n - 1},
              {n - 1, n - 2}};
    default:
      return {{0, 1, 2},
              {2, 0, 1},
              {n - 3, n - 2, n - 1},
              {n - 1, n - 3, n - 2},
              {1, n - 1, 0}};
  }
}

/// A 15-qubit state above the kernels' OpenMP threshold, entangled
/// across the register so that every amplitude is non-trivial.
StateVectorState large_entangled_state() {
  const int n = 15;
  StateVectorState big(n);
  for (int q = 0; q < n; ++q) big.apply(h(q));
  for (int q = 0; q + 1 < n; ++q) big.apply(cnot(q, q + 1));
  for (int q = 0; q < n; q += 3) big.apply(t(q));
  return big;
}

/// OpenMP thread counts to check: one, an odd count that splits the
/// tasks unevenly, and four.
std::vector<int> omp_thread_counts() {
#ifdef BGLS_HAVE_OPENMP
  return {1, 3, 4};
#else
  return {1};
#endif
}

TEST(KernelClassify, DiagonalGates) {
  for (const Gate& gate : {Gate::Z(), Gate::S(), Gate::T(), Gate::Rz(0.3),
                           Gate::Phase(1.1), Gate::CZ(), Gate::CPhase(0.7),
                           Gate::ZZ(0.4), Gate::CCZ()}) {
    const auto c = kernels::classify(gate.unitary());
    EXPECT_EQ(c.cls, kernels::GateClass::kDiagonal) << gate.name();
  }
}

TEST(KernelClassify, PermutationGates) {
  for (const Gate& gate : {Gate::X(), Gate::Y(), Gate::CX(), Gate::Swap(),
                           Gate::ISwap(), Gate::CCX(), Gate::CSwap()}) {
    const auto c = kernels::classify(gate.unitary());
    EXPECT_EQ(c.cls, kernels::GateClass::kPermutation) << gate.name();
  }
}

TEST(KernelClassify, DenseGates) {
  Rng rng(3);
  for (const Matrix& m : {Gate::H().unitary(), Gate::SqrtX().unitary(),
                          Gate::Rx(0.4).unitary(), random_unitary_1q(rng),
                          random_unitary_2q(rng)}) {
    EXPECT_EQ(kernels::classify(m).cls, kernels::GateClass::kDense);
  }
}

TEST(KernelClassify, ControlledDenseGates) {
  Rng rng(5);
  const Matrix u = random_unitary_1q(rng);

  const auto first = kernels::classify(controlled_1q(u, true));
  EXPECT_EQ(first.cls, kernels::GateClass::kControlled);
  EXPECT_EQ(first.control_positions, 1u);  // qubits[0] is the control
  EXPECT_LT(first.inner.max_abs_diff(u), 1e-15);

  const auto second = kernels::classify(controlled_1q(u, false));
  EXPECT_EQ(second.cls, kernels::GateClass::kControlled);
  EXPECT_EQ(second.control_positions, 2u);  // qubits[1] is the control

  // Doubly-controlled dense gate: 8x8 identity except an H block on
  // the |11x⟩ subspace.
  Matrix cch = Matrix::identity(8);
  const Matrix h = Gate::H().unitary();
  cch(6, 6) = h(0, 0);
  cch(6, 7) = h(0, 1);
  cch(7, 6) = h(1, 0);
  cch(7, 7) = h(1, 1);
  const auto both = kernels::classify(cch);
  EXPECT_EQ(both.cls, kernels::GateClass::kControlled);
  EXPECT_EQ(both.control_positions, 3u);  // qubits[0] and qubits[1]
  EXPECT_LT(both.inner.max_abs_diff(h), 1e-15);
}

TEST(KernelEquivalence, NamedSingleQubitGates) {
  const int n = 6;
  Rng rng(11);
  for (const Gate& gate :
       {Gate::I(), Gate::X(), Gate::Y(), Gate::Z(), Gate::H(), Gate::S(),
        Gate::Sdg(), Gate::T(), Gate::Tdg(), Gate::SqrtX(), Gate::Rx(0.9),
        Gate::Ry(1.3), Gate::Rz(0.5), Gate::Phase(2.1)}) {
    const StateVectorState state = random_state(n, rng);
    for (const Qubit q : {0, 2, n - 1}) {  // low, middle, high bit
      EXPECT_TRUE(matches_generic(state, gate.unitary(), {q}))
          << gate.name() << " on qubit " << q;
    }
  }
}

TEST(KernelEquivalence, NamedTwoQubitGates) {
  const int n = 6;
  Rng rng(13);
  const std::vector<std::vector<Qubit>> placements{
      {0, 1}, {1, 0}, {4, 5}, {5, 4}, {0, 5}, {5, 0}, {2, 3}};
  for (const Gate& gate : {Gate::CX(), Gate::CZ(), Gate::Swap(),
                           Gate::ISwap(), Gate::CPhase(0.8), Gate::ZZ(1.7)}) {
    const StateVectorState state = random_state(n, rng);
    for (const auto& qubits : placements) {
      EXPECT_TRUE(matches_generic(state, gate.unitary(), qubits))
          << gate.name() << " on (" << qubits[0] << ", " << qubits[1] << ")";
    }
  }
}

TEST(KernelEquivalence, NamedThreeQubitGates) {
  const int n = 6;
  Rng rng(17);
  const std::vector<std::vector<Qubit>> placements{
      {0, 1, 2}, {2, 1, 0}, {3, 5, 1}, {5, 4, 3}, {1, 3, 5}};
  for (const Gate& gate : {Gate::CCX(), Gate::CCZ(), Gate::CSwap()}) {
    const StateVectorState state = random_state(n, rng);
    for (const auto& qubits : placements) {
      EXPECT_TRUE(matches_generic(state, gate.unitary(), qubits))
          << gate.name();
    }
  }
}

TEST(KernelEquivalence, RandomDenseMatrices) {
  const int n = 6;
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const StateVectorState state = random_state(n, rng);
    const Qubit q = static_cast<Qubit>(rng.uniform_int(n));
    EXPECT_TRUE(matches_generic(state, random_unitary_1q(rng), {q}));
    const Qubit q0 = static_cast<Qubit>(rng.uniform_int(n));
    Qubit q1 = static_cast<Qubit>(rng.uniform_int(n));
    if (q1 == q0) q1 = (q0 + 1) % n;
    EXPECT_TRUE(matches_generic(state, random_unitary_2q(rng), {q0, q1}));
  }
}

TEST(KernelEquivalence, ControlledDenseMatrices) {
  const int n = 6;
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const StateVectorState state = random_state(n, rng);
    const Matrix u = random_unitary_1q(rng);
    const Qubit q0 = static_cast<Qubit>(rng.uniform_int(n));
    Qubit q1 = static_cast<Qubit>(rng.uniform_int(n));
    if (q1 == q0) q1 = (q0 + 1) % n;
    EXPECT_TRUE(matches_generic(state, controlled_1q(u, true), {q0, q1}));
    EXPECT_TRUE(matches_generic(state, controlled_1q(u, false), {q0, q1}));
  }
}

TEST(KernelEquivalence, ThreeQubitControlledDenseMatrices) {
  // Exercises the kControlled dispatch with a dense 1q inner (two
  // controls) and a dense 2q inner (one control) — the
  // apply_dense_2q-with-fixed_mask path no named gate reaches.
  const int n = 6;
  Rng rng(53);
  const std::vector<std::vector<Qubit>> placements{
      {0, 1, 2}, {2, 1, 0}, {5, 0, 3}, {3, 5, 1}};
  for (int trial = 0; trial < 4; ++trial) {
    const StateVectorState state = random_state(n, rng);

    // Two controls, dense 1q inner: identity except u on |11x⟩.
    const Matrix ccu = controlled_block(random_unitary_1q(rng), 8);
    // One control, dense 2q inner: identity except u2 on |1xx⟩.
    const Matrix cu2 = controlled_block(random_unitary_2q(rng), 8);
    ASSERT_EQ(kernels::classify(ccu).cls, kernels::GateClass::kControlled);
    ASSERT_EQ(kernels::classify(cu2).cls, kernels::GateClass::kControlled);
    for (const auto& qubits : placements) {
      EXPECT_TRUE(matches_generic(state, ccu, qubits));
      EXPECT_TRUE(matches_generic(state, cu2, qubits));
    }
  }
}

TEST(KernelEquivalence, NonUnitaryKrausLikeMatrices) {
  // Classification is structural, so it must also serve unnormalized
  // Kraus branches: diagonal damping, a scaled anti-diagonal, and a
  // singular lowering operator (dense: it has a zero row).
  const int n = 5;
  Rng rng(29);
  const StateVectorState state = random_state(n, rng);
  const Matrix damping(2, 2, {1.0, 0.0, 0.0, std::sqrt(0.5)});
  const Matrix scaled_flip(2, 2, {0.0, 0.3, 2.0, 0.0});
  const Matrix lowering(2, 2, {0.0, 0.6, 0.0, 0.0});
  for (const Matrix& m : {damping, scaled_flip, lowering}) {
    for (const Qubit q : {0, n - 1}) {
      EXPECT_TRUE(matches_generic(state, m, {q}));
    }
  }
}

TEST(KernelEquivalence, FusedOptimizerMatrices) {
  // The optimizer's fused 1q/2q products are the dense matrices the
  // sampler actually applies — exercise them end to end.
  const int n = 5;
  Rng circuit_rng(31), state_rng(37);
  RandomCircuitOptions options;
  options.num_moments = 20;
  options.op_density = 0.9;
  const Circuit circuit = generate_random_circuit(n, options, circuit_rng);
  const Circuit optimized = optimize_for_bgls(circuit);
  const StateVectorState state = random_state(n, state_rng);
  for (const auto& op : optimized.all_operations()) {
    if (!op.gate().is_unitary()) continue;
    const std::vector<Qubit> qubits(op.qubits().begin(), op.qubits().end());
    EXPECT_TRUE(matches_generic(state, op.gate().unitary(), qubits))
        << op.to_string();
  }
}

TEST(KernelEquivalence, LargeStateAboveParallelThreshold) {
  // 2^15 amplitudes exceeds the kernels' OpenMP threshold, so this
  // covers the parallel tasks when OpenMP is enabled (and the serial
  // loop nest when not), with runs shorter and longer than a task.
#ifdef BGLS_HAVE_OPENMP
  const int saved = omp_get_max_threads();
#endif
  const StateVectorState big = large_entangled_state();
  for (const int threads : omp_thread_counts()) {
#ifdef BGLS_HAVE_OPENMP
    omp_set_num_threads(threads);
#endif
    for (const auto& [name, m] : kernel_class_matrices()) {
      for (const auto& qubits : run_placements(m, big.num_qubits())) {
        EXPECT_TRUE(matches_generic(big, m, qubits))
            << name << " on qubit " << qubits[0] << " at " << threads
            << " threads";
      }
    }
  }
#ifdef BGLS_HAVE_OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(KernelDeterminism, HistogramsBitIdenticalKernelsOnOff) {
  Rng circuit_rng(43);
  RandomCircuitOptions options;
  options.num_moments = 15;
  options.op_density = 0.9;
  const Circuit circuit = generate_random_circuit(5, options, circuit_rng);

  Simulator<StateVectorState> sim{StateVectorState(5)};
  Counts specialized, generic;
  {
    kernels::ForceGenericScope scope(false);
    Rng rng(47);
    specialized = sim.sample(circuit, 5000, rng);
  }
  {
    kernels::ForceGenericScope scope(true);
    Rng rng(47);
    generic = sim.sample(circuit, 5000, rng);
  }
  // The specialized kernels perform magnitude-identical arithmetic, so
  // with a fixed seed the sampled histogram must match the generic
  // path's exactly — not just statistically.
  EXPECT_EQ(specialized, generic);
}

#ifdef BGLS_HAVE_OPENMP
TEST(KernelDeterminism, AmplitudesBitIdenticalAcrossOmpThreadCounts) {
  // Every kernel partitions the index space into disjoint runs with
  // identical per-index arithmetic, so thread count must not change a
  // single bit.
  const int saved = omp_get_max_threads();
  const auto evolve_with_threads = [&](int threads) {
    omp_set_num_threads(threads);
    StateVectorState state = large_entangled_state();
    const int n = state.num_qubits();
    for (int q = 0; q < n; ++q) state.apply(rz(0.1 * (q + 1), q));
    for (int q = 0; q + 2 < n; q += 2) state.apply(cz(q, q + 2));
    for (int q = 0; q < n; ++q) state.apply(ry(0.05 * (q + 1), q));
    for (const auto& [name, m] : kernel_class_matrices()) {
      for (const auto& qubits : run_placements(m, n)) {
        state.apply_matrix(m, qubits);
      }
    }
    return state;
  };
  const StateVectorState serial = evolve_with_threads(1);
  for (const int threads : {3, 4}) {
    EXPECT_EQ(serial.max_abs_diff(evolve_with_threads(threads)), 0.0)
        << threads << " threads";
  }
  omp_set_num_threads(saved);
}

TEST(KernelDeterminism, HistogramsBitIdenticalAcrossOmpThreadCounts) {
  const int n = 15;
  Circuit circuit = ghz_circuit(n);
  for (int q = 0; q < n; q += 2) circuit.append(t(q));
  const int saved = omp_get_max_threads();
  const auto sample_with_threads = [&](int threads) {
    omp_set_num_threads(threads);
    Simulator<StateVectorState> sim{StateVectorState(n)};
    Rng rng(53);
    return sim.sample(circuit, 500, rng);
  };
  const Counts serial = sample_with_threads(1);
  const Counts parallel = sample_with_threads(3);
  omp_set_num_threads(saved);
  EXPECT_EQ(serial, parallel);
}
#endif  // BGLS_HAVE_OPENMP

/// Diagonal gates on exactly the qubits of `support`: a one-qubit phase
/// on each, then two- and three-qubit ones on random subsets of it.
std::vector<Operation> diagonal_group(const std::vector<Qubit>& support,
                                      Rng& rng) {
  const auto pick = [&] {
    return support[rng.uniform_int(support.size())];
  };
  std::vector<Operation> ops;
  const std::array<Gate, 4> one_qubit{Gate::T(), Gate::S(), Gate::Z(),
                                      Gate::Rz(rng.uniform(0.0, 6.28))};
  for (const Qubit q : support) {
    ops.emplace_back(one_qubit[rng.uniform_int(one_qubit.size())],
                     std::vector<Qubit>{q});
  }
  for (int i = 0; i < 6; ++i) {
    const Qubit a = pick(), b = pick(), c = pick();
    if (a == b) continue;
    const std::array<Gate, 3> two_qubit{Gate::CZ(), Gate::ZZ(0.3 + i),
                                        Gate::CPhase(1.1 * (i + 1))};
    ops.emplace_back(two_qubit[static_cast<std::size_t>(i) % 3],
                     std::vector<Qubit>{a, b});
    if (c != a && c != b) {
      ops.emplace_back(Gate::CCZ(), std::vector<Qubit>{c, a, b});
    }
  }
  return ops;
}

TEST(PhaseTable, MatchesGateByGateAtEveryWidthAndThreadCount) {
  // One table pass against the same diagonal gates applied one by one:
  // equal to rounding (the table multiplies the phases together first),
  // and byte-identical at every thread count. Supports either reach
  // below qubit 6, where a 64-amplitude chunk needs a row of entries,
  // or lie wholly above it, where a chunk takes one factor.
  const int n = 16;
  Rng rng(71);
  const StateVectorState initial = random_state(n, rng);
#ifdef BGLS_HAVE_OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (int width = 2; width <= kernels::kMaxPhaseTableQubits; ++width) {
    for (const bool with_low : {true, false}) {
      std::vector<Qubit> pool;
      for (Qubit q = with_low ? 0 : 6; q < n; ++q) pool.push_back(q);
      std::vector<Qubit> support;
      if (with_low) support.push_back(static_cast<Qubit>(rng.uniform_int(6)));
      while (support.size() < static_cast<std::size_t>(width)) {
        const Qubit q = pool[rng.uniform_int(pool.size())];
        if (std::find(support.begin(), support.end(), q) == support.end()) {
          support.push_back(q);
        }
      }
      const std::vector<Operation> ops = diagonal_group(support, rng);
      StateVectorState gate_by_gate = initial;
      for (const Operation& op : ops) gate_by_gate.apply(op);

      std::vector<std::vector<Complex>> fused;
      for (const int threads : omp_thread_counts()) {
#ifdef BGLS_HAVE_OPENMP
        omp_set_num_threads(threads);
#endif
        kernels::PhaseTable table;
        table.reset(support);
        for (const Operation& op : ops) {
          table.multiply(op.gate().compiled_unitary()->classification.phases,
                         op.qubits());
        }
        std::vector<Complex> amplitudes(initial.amplitudes().begin(),
                                        initial.amplitudes().end());
        table.apply(amplitudes);
        fused.push_back(std::move(amplitudes));
      }
      SCOPED_TRACE("width " + std::to_string(width) +
                   (with_low ? " with" : " without") + " low qubits");
      double worst = 0.0;
      for (std::size_t i = 0; i < fused[0].size(); ++i) {
        worst = std::max(worst,
                         std::abs(fused[0][i] - gate_by_gate.amplitudes()[i]));
      }
      EXPECT_LE(worst, 1e-12);
      for (std::size_t t = 1; t < fused.size(); ++t) {
        EXPECT_TRUE(fused[t] == fused[0]) << omp_thread_counts()[t]
                                          << " threads";
      }
    }
  }
#ifdef BGLS_HAVE_OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(PhaseTable, TableWidthFollowsTheSizeRule) {
  EXPECT_EQ(kernels::phase_table_qubits(std::size_t{1} << 13), 0);
  EXPECT_EQ(kernels::phase_table_qubits(std::size_t{1} << 14),
            kernels::kMaxPhaseTableQubits);
  const kernels::ForceGenericScope generic(true);
  EXPECT_EQ(kernels::phase_table_qubits(std::size_t{1} << 20), 0);
}

TEST(KernelEquivalence, CompiledMatrixOverloadMatchesClassifyingOverload) {
  // The precomputed-classification overload (what Gate::compiled_unitary
  // feeds) must run the identical kernels as the classifying one.
  Rng rng(211);
  StateVectorState initial = random_state(6, rng);
  for (const Gate& gate : {Gate::H(), Gate::T(), Gate::CX(), Gate::CZ(),
                           Gate::CCX(), Gate::Rz(0.9)}) {
    std::vector<Qubit> qubits;
    for (int q = 0; q < gate.arity(); ++q) qubits.push_back(q + 1);
    const kernels::CompiledMatrix compiled = kernels::compile(gate.unitary());
    std::vector<Complex> via_compiled(initial.amplitudes().begin(),
                                      initial.amplitudes().end());
    kernels::apply_matrix(via_compiled, 6, compiled, qubits);
    StateVectorState via_classify = initial;
    via_classify.apply_matrix(gate.unitary(), qubits);
    for (std::size_t i = 0; i < via_compiled.size(); ++i) {
      ASSERT_EQ(via_compiled[i], via_classify.amplitudes()[i]) << gate.name();
    }
  }
}

TEST(KernelEquivalence, SamplingIdenticalThroughGateCacheAndRawMatrices) {
  // End to end: apply(op) routes through the per-gate cache; it must
  // sample bit-identically to explicit apply_matrix(unitary()). Both
  // simulators take custom hooks, so both resample after every gate and
  // read every state the two apply paths produce; only the apply
  // differs.
  Rng circuit_rng(97);
  const Circuit circuit = testing::with_terminal_measurement(
      random_clifford_t_circuit(4, 10, 5, circuit_rng), 4, "m");
  const auto probability = [](const StateVectorState& state, Bitstring b) {
    return state.probability(b);
  };
  Simulator<StateVectorState> cached{
      StateVectorState(4),
      [](const Operation& op, StateVectorState& state, Rng& rng) {
        apply_op(op, state, rng);
      },
      probability};
  Simulator<StateVectorState> raw{
      StateVectorState(4),
      [](const Operation& op, StateVectorState& state, Rng&) {
        state.apply_matrix(op.gate().unitary(), op.qubits());
      },
      probability};
  EXPECT_EQ(cached.run(circuit, 2000, 5).histogram("m"),
            raw.run(circuit, 2000, 5).histogram("m"));
}

/// Whether applies take the generic path, read off its arithmetic: the
/// generic product multiplies every entry of Z, so its off-diagonal
/// zero times an infinite amplitude writes NaN into the other entry;
/// the diagonal kernel multiplies that entry by its own phase only.
bool applies_take_generic_path() {
  std::vector<Complex> amplitudes{
      {std::numeric_limits<double>::infinity(), 0.0}, {0.0, 0.0}};
  const Matrix z(2, 2, {1.0, 0.0, 0.0, -1.0});
  const std::vector<int> qubit{0};
  kernels::apply_matrix(amplitudes, 1, z, qubit);
  return std::isnan(amplitudes[1].real());
}

TEST(Kernels, ForceGenericScopeRestoresState) {
  const bool before = applies_take_generic_path();
  EXPECT_FALSE(before);
  {
    kernels::ForceGenericScope outer(true);
    EXPECT_TRUE(applies_take_generic_path());
    {
      kernels::ForceGenericScope inner(false);
      EXPECT_FALSE(applies_take_generic_path());
    }
    EXPECT_TRUE(applies_take_generic_path());
  }
  EXPECT_EQ(applies_take_generic_path(), before);
}

}  // namespace
}  // namespace bgls
