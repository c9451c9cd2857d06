/// \file kernels.h
/// Gate-class-specialized statevector apply kernels.
///
/// The paper's cost model (Secs. 2, 4.1.2) makes statevector BGLS
/// runtime proportional to f(n, d) — the cost of applying d gates to a
/// 2^n amplitude vector. Funneling every gate through a dense complex
/// matmul wastes most of that budget: X, Z, S, T, CZ, CNOT and friends
/// have far more structure than an arbitrary unitary. Following qsim
/// (Isakov et al. 2021), this module classifies a gate matrix by
/// *structure* and dispatches to a kernel shaped for that class:
///
///  - diagonal       → a phase-multiply pass, no gather (Z, S, T, Rz,
///                      CZ, CPhase, ZZ, CCZ); phases equal to 1 are
///                      skipped entirely, so CZ touches only 2^n / 4
///                      amplitudes;
///  - permutation    → an index-swap pass along the permutation's
///                      cycles (X, Y, CX, SWAP, ISWAP, CCX, CSWAP);
///                      fixed points cost nothing, so CX touches only
///                      half the index space;
///  - controlled     → identity blocks are skipped and the dense inner
///                      block runs on the controlled half/quarter of
///                      the index space (controlled-U gates, e.g. from
///                      QASM imports or Kraus dilations);
///  - dense          → restructured 1q/2q loops: matrix entries hoisted
///                      into registers, cache-blocked iteration over
///                      contiguous low-stride runs so the compiler can
///                      vectorize, with an all-real fast path (H, Ry,
///                      real fused products).
///
/// Classification is structural, not name-based: it works equally for
/// named gates, fused matrix gates, and (non-unitary) Kraus operators,
/// and costs O(4^k) on a 2^k x 2^k matrix — noise next to the 2^n
/// amplitude pass it saves.
///
/// Every kernel walks the state through one run helper. A gate's group
/// bases, the indices whose target and control bits read 0, come in
/// runs of consecutive indices as long as its lowest stride, and each
/// group's other amplitudes sit at fixed offsets from its base, so a
/// kernel body is a unit-stride loop over one run. The serial path is a
/// plain loop nest over the runs and enters no OpenMP region. The
/// OpenMP path hands out tasks of a fixed number of bases: runs longer
/// than a task are split and shorter ones grouped, so a gate on qubit
/// 0 balances like one on qubit 19. The bodies multiply with
/// std::complex's finite-value formula, (re·re − im·im, re·im + im·re),
/// written out: GCC compiles `operator*` to scalar code with a NaN test
/// and a `__muldc3` call that recovers infinities, and that call keeps
/// every loop around it from vectorizing. Amplitudes and gate entries
/// are finite, so the written-out product rounds exactly as
/// `operator*` does and no amplitude byte changes. At 20 qubits on 4
/// OpenMP threads (BENCH_micro_states.json, medians of 5) H takes
/// 0.30 ms, X 0.32, Y 0.50, T 0.28, CNOT 0.21 and CZ 0.16.
///
/// A group of diagonal gates can also go in one pass (PhaseTable): a
/// table over the group's qubits (at most kMaxPhaseTableQubits, 1,024
/// entries) holds the product of the gates' phases in circuit order, and
/// each amplitude is multiplied once by its entry. The pass works in
/// chunks of 64 amplitudes, whose table bits above qubit 5 are fixed:
/// with no group qubit below 6 a chunk is one constant multiply (skipped
/// when the entry is 1); otherwise one 64-entry row per pattern of the
/// high bits is built first, so the inner loop multiplies two
/// unit-stride arrays. At the library's baseline codegen these kernels
/// are bound by complex multiplies rather than by memory bandwidth, so
/// the saving is the multiplies the group no longer makes, not only the
/// passes. The sampler defers diagonal gates into such groups
/// (core/simulator.h) on states of at least 2^14 amplitudes
/// (phase_table_qubits); below that, building the table costs more than
/// the gates it replaces.
///
/// Large passes parallelize over disjoint amplitude blocks with OpenMP
/// (BGLS_HAVE_OPENMP, enabled by the BGLS_ENABLE_OPENMP build flag).
/// Every kernel performs the same floating-point operations per
/// amplitude in every configuration, so results are bit-identical
/// across kernels on/off (for exact-zero-structured matrices), thread
/// counts, and loop shapes — the determinism the engine's tests pin. A
/// phase-table pass multiplies the gates' phases together first, so it
/// rounds differently from the same gates applied one by one, but
/// identically at every thread count.
///
/// A ForceGenericScope routes everything through the pre-specialization
/// dense paths, gate by gate (phase_table_qubits reads 0 under it);
/// tests and benches use them as the reference implementation.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace bgls::kernels {

/// Structural classes, cheapest dispatch first. (`int` qubit ids match
/// the circuit layer's Qubit alias; this module only depends on linalg.)
enum class GateClass {
  kDiagonal,     ///< nonzeros only on the diagonal
  kPermutation,  ///< exactly one nonzero per row and per column
  kControlled,   ///< identity unless all control bits read 1; dense inner
  kDense,        ///< no exploitable structure
};

/// Result of structurally classifying a 2^k x 2^k matrix.
struct Classification {
  GateClass cls = GateClass::kDense;
  /// kDiagonal: the 2^k diagonal entries (gate-local order).
  std::vector<Complex> phases;
  /// kPermutation: new_amp[r] = factors[r] * old_amp[perm[r]].
  std::vector<std::uint8_t> perm;
  std::vector<Complex> factors;
  /// kControlled: bit j set ⇔ gate-list position j (qubits[j]) is a
  /// control, plus the dense block applied when all controls read 1.
  std::uint32_t control_positions = 0;
  Matrix inner;
};

/// Classifies a gate matrix by structure. Zero/identity checks are
/// exact (no tolerance): gate constructors produce exact zeros, and
/// exactness keeps the specialized kernels bit-compatible with the
/// dense reference on the library's named gates.
[[nodiscard]] Classification classify(const Matrix& m);

/// A gate matrix bundled with its precomputed classification — the
/// memoizable unit. Gate caches one per gate (Gate::compiled_unitary),
/// so classification runs once per distinct gate instead of once per
/// apply_matrix call.
struct CompiledMatrix {
  Matrix matrix;
  Classification classification;
};

/// Classifies `m` and bundles it. Pure; the apply_matrix overload below
/// consumes the result without re-classifying.
[[nodiscard]] CompiledMatrix compile(Matrix m);

/// Applies the 2^k x 2^k matrix `m` to the listed qubits of a 2^n
/// amplitude vector, dispatching through classify(). The gate-local
/// index uses qubits[0] as the most significant bit (gate.h
/// convention). Matrices need not be unitary (Kraus branches).
void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const Matrix& m, std::span<const int> qubits);

/// Same, but reuses the precomputed classification (identical dispatch
/// and arithmetic, so results are bit-identical to the classifying
/// overload; a ForceGenericScope is still honored).
void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const CompiledMatrix& compiled,
                  std::span<const int> qubits);

/// Widest group of diagonal gates one PhaseTable pass takes, in qubits.
inline constexpr int kMaxPhaseTableQubits = 10;

/// The widest group of diagonal gates worth one PhaseTable pass on a
/// state of `dim` amplitudes, in qubits: kMaxPhaseTableQubits from 2^14
/// amplitudes up (the OpenMP threshold), and 0, meaning gate by gate,
/// below that or while a ForceGenericScope forces the generic path.
[[nodiscard]] int phase_table_qubits(std::size_t dim);

/// One pass for a group of diagonal gates (see file comment). reset()
/// starts a group, multiply() adds its gates in circuit order, apply()
/// multiplies the product into the amplitudes. A table reused across
/// passes allocates only when a pass needs more room than any before.
class PhaseTable {
 public:
  /// Starts a group on `qubits` (distinct, at most
  /// kMaxPhaseTableQubits, in any order): every entry reads 1.
  void reset(std::span<const int> qubits);

  /// Multiplies in a diagonal gate: `phases` are its diagonal in
  /// gate-local order (qubits[0] the most significant bit) on `qubits`,
  /// all of which belong to the group.
  void multiply(std::span<const Complex> phases, std::span<const int> qubits);

  /// Multiplies each amplitude by its entry, in one pass over the state,
  /// counted as one diagonal apply. Every thread count gives the same
  /// bytes.
  void apply(std::span<Complex> amplitudes);

 private:
  std::vector<int> qubits_;     // ascending; table bit j is qubits_[j]
  std::vector<Complex> table_;  // 2^|qubits_| entries
  std::vector<Complex> rows_;   // one 64-entry row per high-bit pattern
};

/// RAII toggle for tests/benches comparing the two paths: while alive,
/// every apply takes the generic dense path (`force`) or the
/// specialized kernels (`!force`); the previous setting comes back on
/// exit. Process-wide, so scopes on different threads must not
/// overlap.
class ForceGenericScope {
 public:
  explicit ForceGenericScope(bool force);
  ~ForceGenericScope();
  ForceGenericScope(const ForceGenericScope&) = delete;
  ForceGenericScope& operator=(const ForceGenericScope&) = delete;

 private:
  bool previous_;
};

}  // namespace bgls::kernels
