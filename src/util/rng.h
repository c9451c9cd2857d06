/// \file rng.h
/// Deterministic, seedable pseudo-random number generation.
///
/// The sampler is a Monte-Carlo algorithm, so the library owns its
/// randomness end-to-end: a fast xoshiro256++ engine plus the exact
/// discrete distributions the gate-by-gate sampler needs (categorical,
/// binomial, multinomial). No global state — every simulator call takes
/// an explicit Rng&, which makes runs reproducible and thread-safe by
/// construction (one engine per thread / trajectory).
///
/// The binomial sampler is exact (inversion for small n·p, the BTRS
/// transformed-rejection algorithm of Hörmann otherwise). Exactness
/// matters: multinomial splitting is what lets the sample-parallelized
/// simulator draw the counts for 10^6 repetitions in O(#categories)
/// instead of O(repetitions) per gate — the mechanism behind the runtime
/// saturation shown in Fig. 2 of the paper — and it must not distort the
/// sampled distribution.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace bgls {

/// xoshiro256++ engine with library-specific distribution helpers.
///
/// Satisfies (the core of) UniformRandomBitGenerator so it can also be
/// plugged into <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine; distinct seeds give independent-looking streams
  /// (seed is expanded through splitmix64 per the xoshiro authors'
  /// recommendation).
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit output.
  result_type operator()();

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (Lemire's rejection method).
  std::uint64_t uniform_int(std::uint64_t bound);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Samples an index from an *unnormalized* non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(std::span<const double> weights);

  /// Exact Binomial(n, p) sample.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Exact Multinomial(trials, weights) counts via conditional binomial
  /// splitting; weights may be unnormalized. O(len(weights)) expected
  /// time, independent of `trials`.
  void multinomial(std::uint64_t trials, std::span<const double> weights,
                   std::span<std::uint64_t> counts_out);

  /// Convenience overload returning a freshly allocated count vector.
  std::vector<std::uint64_t> multinomial(std::uint64_t trials,
                                         std::span<const double> weights);

  /// Derives an independent child stream (for per-trajectory engines).
  /// Stateful: advances this engine, so successive calls give distinct
  /// children.
  Rng split();

  /// Advances this engine by 2^128 steps using the standard xoshiro256++
  /// jump polynomial. Streams separated by jumps never overlap for fewer
  /// than 2^128 draws each, which makes them suitable as independent
  /// engines for parallel work.
  void jump();

  /// Returns the `index`-th jump-derived child stream: a copy of this
  /// engine advanced by (index + 1) jumps. Const — the parent stream is
  /// untouched, so split(i) is a pure function of (state, i) and a fixed
  /// seed yields the same stream family on every run and thread count.
  /// Costs O(index) jump applications; for a long run of consecutive
  /// streams, prefer jumping one engine incrementally.
  [[nodiscard]] Rng split(std::uint64_t index) const;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Seed of a keyed draw: hashes `value` into `key` (the splitmix64
/// finalizer over key + φ·(value + 1)). For a fixed key it is a
/// bijection in `value`, so two positions of one run never share a
/// seed. The sampler draws repetition r from Rng(mix_key(run_key, r))
/// and dictionary entry `bits` at gate g from
/// Rng(mix_key(mix_key(run_key, g), bits)) (core/simulator.h), so no
/// draw depends on how the work is split across threads.
[[nodiscard]] std::uint64_t mix_key(std::uint64_t key, std::uint64_t value);

}  // namespace bgls
