#include "statevector/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <type_traits>

#include "obs/metrics.h"

#ifdef BGLS_HAVE_OPENMP
#include <omp.h>
#endif

namespace bgls::kernels {
namespace {

/// Kernels switch to OpenMP above this dimension; below it the
/// fork/join overhead dominates.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 14;

/// An OpenMP task covers the group bases of this many amplitude
/// indices, so every task of one apply touches the same number of
/// amplitudes wherever the gate's qubits sit.
constexpr std::size_t kTaskSpan = std::size_t{1} << 12;

/// Specialized kernels cover gates up to this arity (the library's
/// kMaxGateArity); wider matrices take the generic gather path.
constexpr std::size_t kMaxKernelArity = 3;

/// Set while a ForceGenericScope routes every apply to the generic path.
std::atomic<bool> g_force_generic{false};

bool force_generic() {
  return g_force_generic.load(std::memory_order_relaxed);
}

#ifdef BGLS_HAVE_OPENMP
/// True when a pass over `dim` amplitudes should use an OpenMP team:
/// large enough to amortize fork/join, and more than one thread
/// available (on a one-thread budget the plain nest skips the
/// fork/join call altogether).
bool use_openmp(std::size_t dim) {
  return dim >= kParallelThreshold && omp_get_max_threads() > 1;
}
#endif

/// Inserts a zero bit at each of the (ascending) strides, spreading the
/// compact group index `g` into an amplitude base index.
inline std::size_t expand_index(std::size_t g,
                                std::span<const std::size_t> strides) {
  for (const std::size_t s : strides) {
    g = ((g & ~(s - 1)) << 1) | (g & (s - 1));
  }
  return g;
}

/// Strides of the gate's qubits plus any control bits, which the run
/// helper sorts and walks around.
struct Strides {
  std::array<std::size_t, kMaxKernelArity> values{};
  std::size_t count = 0;

  [[nodiscard]] std::span<const std::size_t> span() const {
    return {values.data(), count};
  }

  void add(std::size_t stride) { values[count++] = stride; }
  void add_mask_bits(std::size_t mask) {
    while (mask != 0) {
      add(mask & (0 - mask));
      mask &= mask - 1;
    }
  }
  // Insertion sort instead of std::sort: the array never exceeds
  // kMaxKernelArity entries (insertion sort wins at that size), and the
  // inlined libstdc++ sort trips GCC 12's bogus -Warray-bounds under
  // the sanitizer build.
  void sort() {
    const std::size_t n = std::min(count, values.size());
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t key = values[i];
      std::size_t j = i;
      for (; j > 0 && values[j - 1] > key; --j) values[j] = values[j - 1];
      values[j] = key;
    }
  }
};

inline bool is_one(const Complex& z) { return z == Complex{1.0, 0.0}; }

/// std::complex's product for finite operands, (re·re − im·im,
/// re·im + im·re), rounded exactly as operator* rounds it. GCC compiles
/// operator* to scalar code with a NaN test and a __muldc3 call that
/// recovers infinities, and that call keeps every loop around it
/// scalar. Amplitudes and gate entries are finite, so the call never
/// changes a result, and this form vectorizes.
inline Complex cmul(const Complex& a, const Complex& b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// --- Generic dense reference paths (pre-specialization code) ------------

void apply_generic_1q(std::span<Complex> amps, int q, const Matrix& m) {
  const std::size_t stride = std::size_t{1} << q;
  const std::size_t dim = amps.size();
  const Complex m00 = m(0, 0), m01 = m(0, 1), m10 = m(1, 0), m11 = m(1, 1);
  const std::int64_t num_pairs = static_cast<std::int64_t>(dim >> 1);
#pragma omp parallel for if (dim >= kParallelThreshold) schedule(static)
  for (std::int64_t p = 0; p < num_pairs; ++p) {
    // Base index: insert a 0 at bit position q of the pair index.
    const std::size_t pp = static_cast<std::size_t>(p);
    const std::size_t i0 = ((pp & ~(stride - 1)) << 1) | (pp & (stride - 1));
    const std::size_t i1 = i0 | stride;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

void apply_generic_2q(std::span<Complex> amps, int q0, int q1,
                      const Matrix& m) {
  // Gate-local index: q0 is the most significant bit.
  const std::size_t s0 = std::size_t{1} << q0;
  const std::size_t s1 = std::size_t{1} << q1;
  const std::size_t dim = amps.size();
  const std::size_t lo = std::min(s0, s1);
  const std::size_t hi = std::max(s0, s1);
  const std::int64_t num_groups = static_cast<std::int64_t>(dim >> 2);
#pragma omp parallel for if (dim >= kParallelThreshold) schedule(static)
  for (std::int64_t g = 0; g < num_groups; ++g) {
    // Spread the group index around the two target bit positions.
    std::size_t base = static_cast<std::size_t>(g);
    base = ((base & ~(lo - 1)) << 1) | (base & (lo - 1));
    base = ((base & ~(hi - 1)) << 1) | (base & (hi - 1));
    const std::size_t i00 = base;
    const std::size_t i01 = base | s1;
    const std::size_t i10 = base | s0;
    const std::size_t i11 = base | s0 | s1;
    const Complex a00 = amps[i00];
    const Complex a01 = amps[i01];
    const Complex a10 = amps[i10];
    const Complex a11 = amps[i11];
    amps[i00] = m(0, 0) * a00 + m(0, 1) * a01 + m(0, 2) * a10 + m(0, 3) * a11;
    amps[i01] = m(1, 0) * a00 + m(1, 1) * a01 + m(1, 2) * a10 + m(1, 3) * a11;
    amps[i10] = m(2, 0) * a00 + m(2, 1) * a01 + m(2, 2) * a10 + m(2, 3) * a11;
    amps[i11] = m(3, 0) * a00 + m(3, 1) * a01 + m(3, 2) * a10 + m(3, 3) * a11;
  }
}

void apply_generic_k(std::span<Complex> amps, std::span<const int> qubits,
                     const Matrix& m) {
  const std::size_t k = qubits.size();
  const std::size_t block = std::size_t{1} << k;
  std::size_t support_mask = 0;
  for (const int q : qubits) support_mask |= std::size_t{1} << q;

  std::vector<Complex> scratch(block);
  for (std::size_t base = 0; base < amps.size(); ++base) {
    if ((base & support_mask) != 0) continue;  // visit each group once
    // Gather group amplitudes; gate-local index has qubits[0] as MSB.
    for (std::size_t local = 0; local < block; ++local) {
      std::size_t idx = base;
      for (std::size_t j = 0; j < k; ++j) {
        if ((local >> (k - 1 - j)) & 1u) idx |= std::size_t{1} << qubits[j];
      }
      scratch[local] = amps[idx];
    }
    for (std::size_t row = 0; row < block; ++row) {
      Complex acc{0.0, 0.0};
      for (std::size_t col = 0; col < block; ++col) {
        acc += m(row, col) * scratch[col];
      }
      std::size_t idx = base;
      for (std::size_t j = 0; j < k; ++j) {
        if ((row >> (k - 1 - j)) & 1u) idx |= std::size_t{1} << qubits[j];
      }
      amps[idx] = acc;
    }
  }
}

void apply_generic(std::span<Complex> amps, const Matrix& m,
                   std::span<const int> qubits) {
  switch (qubits.size()) {
    case 1:
      apply_generic_1q(amps, qubits[0], m);
      break;
    case 2:
      apply_generic_2q(amps, qubits[0], qubits[1], m);
      break;
    default:
      apply_generic_k(amps, qubits, m);
  }
}

// --- Gate-local offset table --------------------------------------------

/// offsets[local] = OR of the strides of the qubits set in the
/// gate-local index `local` (qubits[0] = MSB convention).
std::array<std::size_t, 8> local_offsets(std::span<const int> qubits) {
  const std::size_t k = qubits.size();
  std::array<std::size_t, 8> offsets{};
  for (std::size_t local = 0; local < (std::size_t{1} << k); ++local) {
    std::size_t offset = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if ((local >> (k - 1 - j)) & 1u) offset |= std::size_t{1} << qubits[j];
    }
    offsets[local] = offset;
  }
  return offsets;
}

// --- Run helper ---------------------------------------------------------

/// Calls body(start, len) on the runs of `len` = s[0] consecutive
/// indices in [offset, offset + extent) whose bits at the strides
/// s[0] <= s[1] <= s[2] read 0. A stride equal to `extent` stands for a
/// bit above the range: its loop runs once.
template <typename Len, typename Body>
inline void run_nest(std::size_t offset, std::size_t extent,
                     const std::array<std::size_t, kMaxKernelArity>& s,
                     Len len, const Body& body) {
  for (std::size_t b2 = 0; b2 < extent; b2 += 2 * s[2]) {
    for (std::size_t b1 = b2; b1 < b2 + s[2]; b1 += 2 * s[1]) {
      for (std::size_t b0 = b1; b0 < b1 + s[1]; b0 += 2 * len) {
        body(offset + b0, len);
      }
    }
  }
}

/// Visits every group base of a gate — an index whose bits at `strides`
/// (its qubits and control bits) read 0 — once, as body(start, len) on
/// runs of consecutive bases. The body reaches a group's other
/// amplitudes at fixed offsets from its base, so every inner loop is
/// unit-stride. The serial path is the plain loop nest over the state.
/// The OpenMP path hands out tasks of kTaskSpan >> strides.count bases:
/// runs longer than a task are split, shorter ones grouped. Both paths
/// give each amplitude the same arithmetic, so no output bit depends on
/// the thread count. Runs of one or two amplitudes (a gate or control
/// bit on qubit 0 or 1) pass `len` as a constant, so the body's inner
/// loop compiles to straight-line code.
template <typename Body>
void for_each_run(std::size_t dim, Strides strides, const Body& body) {
  strides.sort();
  const auto nest = [&](std::size_t offset, std::size_t extent) {
    // Strides at or above `extent` lie outside the nest's range.
    std::array<std::size_t, kMaxKernelArity> s{};
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = i < strides.count ? std::min(strides.values[i], extent) : extent;
    }
    if (s[0] == 1) {
      run_nest(offset, extent, s, std::integral_constant<std::size_t, 1>{},
               body);
    } else if (s[0] == 2) {
      run_nest(offset, extent, s, std::integral_constant<std::size_t, 2>{},
               body);
    } else {
      run_nest(offset, extent, s, s[0], body);
    }
  };
#ifdef BGLS_HAVE_OPENMP
  if (use_openmp(dim)) {
    // A task's bases are a power-of-two block of compact indices; they
    // span `extent` amplitude indices, one bit wider for each stride
    // that falls inside.
    const std::size_t task = kTaskSpan >> strides.count;
    std::size_t extent = task;
    for (std::size_t i = 0; i < strides.count; ++i) {
      if (strides.values[i] < extent) extent <<= 1;
    }
    const std::int64_t num_tasks = static_cast<std::int64_t>(dim / kTaskSpan);
#pragma omp parallel for schedule(static)
    for (std::int64_t t = 0; t < num_tasks; ++t) {
      nest(expand_index(static_cast<std::size_t>(t) * task, strides.span()),
           extent);
    }
    return;
  }
#endif
  nest(0, dim);
}

/// p[j] *= factor over one run.
template <typename Len>
inline void scale_run(Complex* p, Len len, Complex factor) {
  for (std::size_t j = 0; j < len; ++j) p[j] = cmul(p[j], factor);
}

// --- Diagonal kernel ----------------------------------------------------

void apply_diagonal(std::span<Complex> amps, std::span<const int> qubits,
                    std::span<const Complex> phases) {
  // Phases equal to 1 are skipped outright: T and S touch half the
  // amplitudes, CZ, CPhase and CCZ a quarter or an eighth.
  const std::array<std::size_t, 8> offsets = local_offsets(qubits);
  std::array<std::size_t, 8> work_offsets{};
  std::array<Complex, 8> work_phases{};
  std::size_t work_count = 0;
  for (std::size_t local = 0; local < phases.size(); ++local) {
    if (!is_one(phases[local])) {
      work_offsets[work_count] = offsets[local];
      work_phases[work_count++] = phases[local];
    }
  }
  if (work_count == 0) return;  // identity

  Strides strides;
  for (const int q : qubits) strides.add(std::size_t{1} << q);
  Complex* a = amps.data();
  for_each_run(amps.size(), strides, [&](std::size_t start, auto len) {
    for (std::size_t w = 0; w < work_count; ++w) {
      scale_run(a + start + work_offsets[w], len, work_phases[w]);
    }
  });
}

// --- Permutation kernel -------------------------------------------------

void apply_permutation(std::span<Complex> amps, std::span<const int> qubits,
                       std::span<const std::uint8_t> perm,
                       std::span<const Complex> factors) {
  const std::size_t block = perm.size();
  const std::array<std::size_t, 8> offsets = local_offsets(qubits);
  // A unit factor moves an amplitude without a multiply. A one-qubit
  // swap multiplies both halves unless both of its factors are 1.
  std::array<bool, 8> unit{};
  for (std::size_t r = 0; r < block; ++r) unit[r] = is_one(factors[r]);
  if (block == 2) unit[0] = unit[1] = unit[0] && unit[1];

  // One pass per cycle; fixed points with factor 1 cost nothing (CX
  // touches only the c=1 half, CCX only the c0=c1=1 quarter), and a
  // scaled fixed point is a cycle of length 1. Every named permutation
  // gate is a single cycle.
  Strides strides;
  for (const int q : qubits) strides.add(std::size_t{1} << q);
  Complex* a = amps.data();
  std::array<bool, 8> visited{};
  for (std::size_t first = 0; first < block; ++first) {
    if (visited[first] || (perm[first] == first && unit[first])) continue;
    // new[r] = factors[r] * old[perm[r]] along the cycle.
    std::array<std::size_t, 8> cycle{};
    std::size_t n = 0;
    for (std::size_t r = first; n == 0 || r != first; r = perm[r]) {
      cycle[n++] = r;
      visited[r] = true;
    }
    const std::size_t o0 = offsets[cycle[0]], o1 = offsets[cycle[1]];
    const Complex f0 = factors[cycle[0]], f1 = factors[cycle[1]];
    if (n == 1) {
      for_each_run(amps.size(), strides, [=](std::size_t start, auto len) {
        scale_run(a + start + o0, len, f0);
      });
    } else if (n == 2 && unit[cycle[0]] && unit[cycle[1]]) {
      // X, CX, SWAP, CCX, CSWAP
      for_each_run(amps.size(), strides, [=](std::size_t start, auto len) {
        std::swap_ranges(a + start + o0, a + start + o0 + len, a + start + o1);
      });
    } else if (n == 2 && !unit[cycle[0]] && !unit[cycle[1]]) {
      // Y, ISWAP, scaled flips
      for_each_run(amps.size(), strides, [=](std::size_t start, auto len) {
        Complex* p0 = a + start + o0;
        Complex* p1 = a + start + o1;
        for (std::size_t j = 0; j < len; ++j) {
          const Complex x0 = p0[j];
          p0[j] = cmul(f0, p1[j]);
          p1[j] = cmul(f1, x0);
        }
      });
    } else {
      for_each_run(amps.size(), strides, [&](std::size_t start, auto len) {
        for (std::size_t j = start; j < start + len; ++j) {
          const Complex head = a[o0 + j];
          for (std::size_t t = 0; t < n; ++t) {
            const std::size_t r = cycle[t];
            const Complex value =
                t + 1 < n ? a[offsets[cycle[t + 1]] + j] : head;
            a[offsets[r] + j] = unit[r] ? value : cmul(factors[r], value);
          }
        }
      });
    }
  }
}

// --- Dense kernels ------------------------------------------------------

bool matrix_is_real(const Matrix& m) {
  for (const Complex& entry : m.data()) {
    if (entry.imag() != 0.0) return false;
  }
  return true;
}

/// Dense 1q butterfly between the runs at [i, i + len) and
/// [i + s, i + s + len); `fixed_mask` (control bits forced to 1)
/// restricts it to the controlled subspace.
void apply_dense_1q(std::span<Complex> amps, int q, const Matrix& m,
                    std::size_t fixed_mask) {
  const std::size_t dim = amps.size();
  const std::size_t s = std::size_t{1} << q;
  const Complex m00 = m(0, 0), m01 = m(0, 1), m10 = m(1, 0), m11 = m(1, 1);
  Strides strides;
  strides.add(s);
  strides.add_mask_bits(fixed_mask);

  // One arithmetic form per matrix form, whatever the loop shape, so
  // OpenMP never changes a bit. Controlled blocks keep the complex
  // form.
  if (fixed_mask == 0 && matrix_is_real(m)) {
    // Real coefficients act identically on the interleaved re/im
    // doubles: half the flops of the complex butterfly.
    double* d = reinterpret_cast<double*>(amps.data());
    const double r00 = m00.real(), r01 = m01.real();
    const double r10 = m10.real(), r11 = m11.real();
    for_each_run(dim, strides, [=](std::size_t start, auto len) {
      double* lo = d + 2 * start;
      double* hi = lo + 2 * s;
      for (std::size_t j = 0; j < 2 * len; ++j) {
        const double a0 = lo[j];
        const double a1 = hi[j];
        lo[j] = r00 * a0 + r01 * a1;
        hi[j] = r10 * a0 + r11 * a1;
      }
    });
    return;
  }

  Complex* a = amps.data() + fixed_mask;
  for_each_run(dim, strides, [=](std::size_t start, auto len) {
    Complex* lo = a + start;
    Complex* hi = lo + s;
    for (std::size_t j = 0; j < len; ++j) {
      const Complex a0 = lo[j];
      const Complex a1 = hi[j];
      lo[j] = cmul(m00, a0) + cmul(m01, a1);
      hi[j] = cmul(m10, a0) + cmul(m11, a1);
    }
  });
}

/// Dense 2q update of the four runs at offsets 0, s1, s0 and s0 + s1
/// from each base; `fixed_mask` restricts it to the controlled subspace.
void apply_dense_2q(std::span<Complex> amps, int q0, int q1, const Matrix& m,
                    std::size_t fixed_mask) {
  const std::size_t dim = amps.size();
  const std::size_t s0 = std::size_t{1} << q0;
  const std::size_t s1 = std::size_t{1} << q1;
  std::array<Complex, 16> e;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) e[4 * r + c] = m(r, c);
  }
  Strides strides;
  strides.add(s0);
  strides.add(s1);
  strides.add_mask_bits(fixed_mask);

  // As in apply_dense_1q: one arithmetic form per matrix form.
  if (fixed_mask == 0 && matrix_is_real(m)) {
    std::array<double, 16> r;
    for (std::size_t j = 0; j < 16; ++j) r[j] = e[j].real();
    double* d = reinterpret_cast<double*>(amps.data());
    for_each_run(dim, strides, [=](std::size_t start, auto len) {
      double* p00 = d + 2 * start;
      double* p01 = p00 + 2 * s1;
      double* p10 = p00 + 2 * s0;
      double* p11 = p10 + 2 * s1;
      for (std::size_t j = 0; j < 2 * len; ++j) {
        const double a00 = p00[j], a01 = p01[j];
        const double a10 = p10[j], a11 = p11[j];
        p00[j] = r[0] * a00 + r[1] * a01 + r[2] * a10 + r[3] * a11;
        p01[j] = r[4] * a00 + r[5] * a01 + r[6] * a10 + r[7] * a11;
        p10[j] = r[8] * a00 + r[9] * a01 + r[10] * a10 + r[11] * a11;
        p11[j] = r[12] * a00 + r[13] * a01 + r[14] * a10 + r[15] * a11;
      }
    });
    return;
  }

  Complex* a = amps.data() + fixed_mask;
  for_each_run(dim, strides, [=](std::size_t start, auto len) {
    Complex* p00 = a + start;
    Complex* p01 = p00 + s1;
    Complex* p10 = p00 + s0;
    Complex* p11 = p10 + s1;
    for (std::size_t j = 0; j < len; ++j) {
      const Complex a00 = p00[j], a01 = p01[j];
      const Complex a10 = p10[j], a11 = p11[j];
      p00[j] = cmul(e[0], a00) + cmul(e[1], a01) + cmul(e[2], a10) +
               cmul(e[3], a11);
      p01[j] = cmul(e[4], a00) + cmul(e[5], a01) + cmul(e[6], a10) +
               cmul(e[7], a11);
      p10[j] = cmul(e[8], a00) + cmul(e[9], a01) + cmul(e[10], a10) +
               cmul(e[11], a11);
      p11[j] = cmul(e[12], a00) + cmul(e[13], a01) + cmul(e[14], a10) +
               cmul(e[15], a11);
    }
  });
}

}  // namespace

// --- Classification -----------------------------------------------------

namespace {

bool classify_diagonal(const Matrix& m, Classification& out) {
  const std::size_t dim = m.rows();
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (r != c && m(r, c) != Complex{0.0, 0.0}) return false;
    }
  }
  out.cls = GateClass::kDiagonal;
  out.phases.resize(dim);
  for (std::size_t r = 0; r < dim; ++r) out.phases[r] = m(r, r);
  return true;
}

bool classify_permutation(const Matrix& m, Classification& out) {
  // Validate on the stack first (dim <= 8 on the kernel path) so the
  // common dense-gate rejection allocates nothing.
  const std::size_t dim = m.rows();
  if (dim > 8) return false;  // beyond kernel arity; dense path handles it
  std::array<std::uint8_t, 8> perm{};
  std::size_t columns_seen = 0;
  for (std::size_t r = 0; r < dim; ++r) {
    std::size_t nonzero_col = dim;
    for (std::size_t c = 0; c < dim; ++c) {
      if (m(r, c) != Complex{0.0, 0.0}) {
        if (nonzero_col != dim) return false;  // two nonzeros in a row
        nonzero_col = c;
      }
    }
    if (nonzero_col == dim) return false;  // zero row
    if (columns_seen & (std::size_t{1} << nonzero_col)) return false;
    columns_seen |= std::size_t{1} << nonzero_col;
    perm[r] = static_cast<std::uint8_t>(nonzero_col);
  }
  out.cls = GateClass::kPermutation;
  out.perm.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(dim));
  out.factors.resize(dim);
  for (std::size_t r = 0; r < dim; ++r) out.factors[r] = m(r, perm[r]);
  return true;
}

/// True when gate-local bit `b` acts as a control of `m`: every entry
/// in a row or column with bit b clear matches the identity.
bool is_control_bit(const Matrix& m, std::size_t b) {
  const std::size_t dim = m.rows();
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (((r >> b) & 1u) && ((c >> b) & 1u)) continue;
      const Complex expected = r == c ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
      if (m(r, c) != expected) return false;
    }
  }
  return true;
}

/// The sub-block of `m` on the subspace where bit `b` reads 1.
Matrix strip_control_bit(const Matrix& m, std::size_t b) {
  const std::size_t half = m.rows() >> 1;
  const std::size_t low = (std::size_t{1} << b) - 1;
  Matrix inner(half, half);
  for (std::size_t r = 0; r < half; ++r) {
    const std::size_t rf = ((r & ~low) << 1) | (std::size_t{1} << b) |
                           (r & low);
    for (std::size_t c = 0; c < half; ++c) {
      const std::size_t cf = ((c & ~low) << 1) | (std::size_t{1} << b) |
                             (c & low);
      inner(r, c) = m(rf, cf);
    }
  }
  return inner;
}

}  // namespace

Classification classify(const Matrix& m) {
  Classification out;
  if (classify_diagonal(m, out)) return out;
  if (classify_permutation(m, out)) return out;
  if (m.rows() > (std::size_t{1} << kMaxKernelArity)) return out;  // dense

  // Greedily strip control qubits. A matrix that is neither diagonal
  // nor a permutation but has control structure always ends in a dense
  // inner block (identity blocks + diagonal/permutation inner would
  // have made the whole matrix diagonal/permutation). `m` is only
  // copied once a control is actually found, so the common dense case
  // (H, rotations, fused products) classifies allocation-free.
  std::size_t k = 0;
  while ((std::size_t{1} << k) < m.rows()) ++k;
  Matrix stripped_block;
  const Matrix* current = &m;
  std::array<std::size_t, 8> positions{};  // current bit -> original list pos
  for (std::size_t j = 0; j < k; ++j) positions[j] = j;
  std::uint32_t control_positions = 0;
  std::size_t kk = k;
  while (kk >= 2) {
    bool stripped = false;
    for (std::size_t j = 0; j < kk; ++j) {
      const std::size_t b = kk - 1 - j;  // list position j = bit kk-1-j
      if (is_control_bit(*current, b)) {
        control_positions |= std::uint32_t{1} << positions[j];
        stripped_block = strip_control_bit(*current, b);
        current = &stripped_block;
        for (std::size_t t = j; t + 1 < kk; ++t) positions[t] = positions[t + 1];
        --kk;
        stripped = true;
        break;
      }
    }
    if (!stripped) break;
  }
  if (control_positions != 0) {
    out.cls = GateClass::kControlled;
    out.control_positions = control_positions;
    out.inner = std::move(stripped_block);
    return out;
  }
  out.cls = GateClass::kDense;
  return out;
}

// --- Dispatch -----------------------------------------------------------

namespace {

/// Routes an already classified matrix to its shaped kernel (shared by
/// both public apply_matrix overloads).
void dispatch_classified(std::span<Complex> amplitudes, const Matrix& m,
                         const Classification& c,
                         std::span<const int> qubits) {
  const std::size_t k = qubits.size();
  switch (c.cls) {
    case GateClass::kDiagonal:
      apply_diagonal(amplitudes, qubits, c.phases);
      return;
    case GateClass::kPermutation:
      apply_permutation(amplitudes, qubits, c.perm, c.factors);
      return;
    case GateClass::kControlled: {
      std::size_t fixed_mask = 0;
      std::array<int, kMaxKernelArity> inner_qubits{};
      std::size_t inner_count = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (c.control_positions & (std::uint32_t{1} << j)) {
          fixed_mask |= std::size_t{1} << qubits[j];
        } else {
          inner_qubits[inner_count++] = qubits[j];
        }
      }
      if (inner_count == 1) {
        apply_dense_1q(amplitudes, inner_qubits[0], c.inner, fixed_mask);
      } else {
        apply_dense_2q(amplitudes, inner_qubits[0], inner_qubits[1], c.inner,
                       fixed_mask);
      }
      return;
    }
    case GateClass::kDense:
      break;
  }
  switch (k) {
    case 1:
      apply_dense_1q(amplitudes, qubits[0], m, 0);
      return;
    case 2:
      apply_dense_2q(amplitudes, qubits[0], qubits[1], m, 0);
      return;
    default:
      apply_generic_k(amplitudes, qubits, m);
  }
}

// --- Telemetry ----------------------------------------------------------

/// Every apply is counted per dispatch class; applies are *timed* only
/// from this amplitude dimension up (n >= 12 qubits), where a clock
/// read pair is far below the kernel's own cost. The timing series
/// still registers either way, so scrapes see it (at zero) for small
/// circuits too.
constexpr std::size_t kTimedApplyDim = std::size_t{1} << 12;

/// One counter + latency histogram per dispatch class, registered once.
/// Index order matches GateClass; slot 4 is the generic fallback path
/// (forced or arity > kMaxKernelArity).
struct KernelMetrics {
  static constexpr int kGeneric = 4;
  obs::Counter applies[5];
  obs::Histogram seconds[5];

  KernelMetrics() {
    static constexpr const char* kClassNames[5] = {
        "diagonal", "permutation", "controlled", "dense", "generic"};
    auto& registry = obs::MetricsRegistry::global();
    for (int i = 0; i < 5; ++i) {
      const std::string label =
          std::string("{class=\"") + kClassNames[i] + "\"}";
      applies[i] = registry.counter(
          "bgls_kernel_apply_total" + label,
          "Statevector matrix applies by kernel dispatch class");
      seconds[i] = registry.histogram(
          "bgls_kernel_apply_seconds" + label,
          "Apply wall time by kernel dispatch class (dim >= 4096 only)");
    }
  }

  static KernelMetrics& instance() {
    static KernelMetrics metrics;
    return metrics;
  }
};

/// Counts (always) and times (large states only) one apply.
class TimedApply {
 public:
  TimedApply(int cls, std::size_t dim) noexcept {
    cls_ = cls;
    KernelMetrics::instance().applies[cls_].add();
    if (dim >= kTimedApplyDim && obs::enabled()) {
      timed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~TimedApply() {
    if (timed_) {
      KernelMetrics::instance().seconds[cls_].observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count());
    }
  }

 private:
  int cls_ = 0;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;
};

int class_index(GateClass cls) {
  switch (cls) {
    case GateClass::kDiagonal:
      return 0;
    case GateClass::kPermutation:
      return 1;
    case GateClass::kControlled:
      return 2;
    case GateClass::kDense:
      return 3;
  }
  return 3;
}

}  // namespace

CompiledMatrix compile(Matrix m) {
  CompiledMatrix out;
  out.matrix = std::move(m);
  out.classification = classify(out.matrix);
  return out;
}

void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const Matrix& m, std::span<const int> qubits) {
  (void)num_qubits;
  if (force_generic() || qubits.size() > kMaxKernelArity) {
    const TimedApply timer(KernelMetrics::kGeneric, amplitudes.size());
    apply_generic(amplitudes, m, qubits);
    return;
  }
  const Classification c = classify(m);
  const TimedApply timer(class_index(c.cls), amplitudes.size());
  dispatch_classified(amplitudes, m, c, qubits);
}

void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const CompiledMatrix& compiled,
                  std::span<const int> qubits) {
  (void)num_qubits;
  if (force_generic() || qubits.size() > kMaxKernelArity) {
    const TimedApply timer(KernelMetrics::kGeneric, amplitudes.size());
    apply_generic(amplitudes, compiled.matrix, qubits);
    return;
  }
  const TimedApply timer(class_index(compiled.classification.cls),
                         amplitudes.size());
  dispatch_classified(amplitudes, compiled.matrix, compiled.classification,
                      qubits);
}

// --- Phase-table pass ---------------------------------------------------

namespace {

/// A phase-table pass works in chunks of this many amplitudes; the table
/// bits of qubits at or above log2(kChunk) are fixed within a chunk.
constexpr std::size_t kChunk = 64;

}  // namespace

int phase_table_qubits(std::size_t dim) {
  return dim >= kParallelThreshold && !force_generic() ? kMaxPhaseTableQubits
                                                       : 0;
}

void PhaseTable::reset(std::span<const int> qubits) {
  qubits_.assign(qubits.begin(), qubits.end());
  std::sort(qubits_.begin(), qubits_.end());
  table_.assign(std::size_t{1} << qubits_.size(), Complex{1.0, 0.0});
}

void PhaseTable::multiply(std::span<const Complex> phases,
                          std::span<const int> qubits) {
  // The table bit of each gate qubit, gate-local MSB first.
  std::array<std::size_t, kMaxPhaseTableQubits> bits{};
  const std::size_t k = qubits.size();
  for (std::size_t j = 0; j < k; ++j) {
    bits[j] = static_cast<std::size_t>(
        std::lower_bound(qubits_.begin(), qubits_.end(), qubits[j]) -
        qubits_.begin());
  }
  for (std::size_t t = 0; t < table_.size(); ++t) {
    std::size_t local = 0;
    for (std::size_t j = 0; j < k; ++j) {
      local = (local << 1) | ((t >> bits[j]) & 1u);
    }
    table_[t] = cmul(table_[t], phases[local]);
  }
}

void PhaseTable::apply(std::span<Complex> amplitudes) {
  const TimedApply timer(class_index(GateClass::kDiagonal), amplitudes.size());
  const std::size_t dim = amplitudes.size();
  const std::size_t chunk = std::min(dim, kChunk);
  // Group qubits below the chunk width vary within a chunk ("low", table
  // bits [0, low)); the rest are fixed per chunk ("high").
  std::size_t low = 0;
  while (low < qubits_.size() &&
         (std::size_t{1} << qubits_[low]) < chunk) {
    ++low;
  }
  const std::size_t high = qubits_.size() - low;
  const auto pattern = [&](std::size_t base) {
    std::size_t p = 0;
    for (std::size_t i = 0; i < high; ++i) {
      p |= ((base >> qubits_[low + i]) & 1u) << i;
    }
    return p;
  };
  Complex* a = amplitudes.data();
  const auto num_chunks = static_cast<std::int64_t>(dim / chunk);

  if (low == 0) {
    // One factor per chunk.
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for schedule(static) if (use_openmp(dim))
#endif
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      const std::size_t base = static_cast<std::size_t>(c) * chunk;
      const Complex factor = table_[pattern(base)];
      if (!is_one(factor)) scale_run(a + base, chunk, factor);
    }
    return;
  }

  // One row per high pattern: row p holds the entries of the chunk's
  // amplitudes, in amplitude order.
  std::array<std::size_t, kChunk> low_index{};
  for (std::size_t j = 0; j < chunk; ++j) {
    for (std::size_t i = 0; i < low; ++i) {
      low_index[j] |= ((j >> qubits_[i]) & 1u) << i;
    }
  }
  const std::size_t patterns = std::size_t{1} << high;
  if (rows_.size() < patterns * chunk) rows_.resize(patterns * chunk);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t j = 0; j < chunk; ++j) {
      rows_[p * chunk + j] = table_[(p << low) | low_index[j]];
    }
  }
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for schedule(static) if (use_openmp(dim))
#endif
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    const std::size_t base = static_cast<std::size_t>(c) * chunk;
    Complex* amps = a + base;
    const Complex* row = rows_.data() + pattern(base) * chunk;
    for (std::size_t j = 0; j < chunk; ++j) amps[j] = cmul(amps[j], row[j]);
  }
}

ForceGenericScope::ForceGenericScope(bool force)
    : previous_(g_force_generic.exchange(force, std::memory_order_relaxed)) {}

ForceGenericScope::~ForceGenericScope() {
  g_force_generic.store(previous_, std::memory_order_relaxed);
}

}  // namespace bgls::kernels
