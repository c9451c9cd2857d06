#include "util/rng.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace bgls {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

/// Stirling series tail correction log(k!) - [k log k - k + 0.5 log(2 pi k)],
/// used by the BTRS acceptance bound. Table for small k, series otherwise
/// (Hörmann 1993; identical constants to the widely used TF implementation).
double stirling_approx_tail(double k) {
  static constexpr double kTable[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / (k + 1.0);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t bound) {
  BGLS_REQUIRE(bound > 0, "uniform_int bound must be positive");
  // Lemire's nearly-divisionless unbiased method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  BGLS_REQUIRE(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    BGLS_REQUIRE(w >= 0.0 && std::isfinite(w),
                 "categorical weights must be finite and non-negative, got ", w);
    total += w;
  }
  BGLS_REQUIRE(total > 0.0, "categorical weights must not all be zero");
  const double target = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  BGLS_REQUIRE(p >= -1e-12 && p <= 1.0 + 1e-12 && std::isfinite(p),
               "binomial probability out of range: ", p);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial(n, 1.0 - p);

  const double np = static_cast<double>(n) * p;
  if (np < 10.0 || n < 32) {
    // Inversion by sequential CDF walk: expected O(n·p + 1) iterations.
    const double q = 1.0 - p;
    const double s = p / q;
    const double base = std::pow(q, static_cast<double>(n));
    if (base > 0.0) {
      double u = uniform();
      double pmf = base;
      std::uint64_t k = 0;
      while (u > pmf && k < n) {
        u -= pmf;
        ++k;
        pmf *= s * (static_cast<double>(n - k + 1) / static_cast<double>(k));
      }
      return k;
    }
    // q^n underflowed (huge n with small-but-not-tiny p); fall through to
    // the rejection sampler which works in log space.
  }

  // BTRS: transformed rejection with squeeze (Hörmann 1993). Exact.
  const double dn = static_cast<double>(n);
  const double q = 1.0 - p;
  const double stddev = std::sqrt(dn * p * q);
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = dn * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((dn + 1.0) * p);
  for (;;) {
    const double u = uniform() - 0.5;
    double v = uniform();
    const double us = 0.5 - std::abs(u);
    const double kf = std::floor((2.0 * a / us + b) * u + c);
    if (kf < 0.0 || kf > dn) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kf);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (dn - m + 1.0))) +
        (dn + 1.0) * std::log((dn - m + 1.0) / (dn - kf + 1.0)) +
        (kf + 0.5) * std::log(r * (dn - kf + 1.0) / (kf + 1.0)) +
        stirling_approx_tail(m) + stirling_approx_tail(dn - m) -
        stirling_approx_tail(kf) - stirling_approx_tail(dn - kf);
    if (v <= upper) return static_cast<std::uint64_t>(kf);
  }
}

void Rng::multinomial(std::uint64_t trials, std::span<const double> weights,
                      std::span<std::uint64_t> counts_out) {
  BGLS_REQUIRE(counts_out.size() == weights.size(),
               "multinomial output span size mismatch: ", counts_out.size(),
               " vs ", weights.size());
  double remaining_weight = 0.0;
  for (double w : weights) {
    BGLS_REQUIRE(w >= 0.0 && std::isfinite(w),
                 "multinomial weights must be finite and non-negative, got ", w);
    remaining_weight += w;
  }
  BGLS_REQUIRE(weights.empty() || remaining_weight > 0.0 || trials == 0,
               "multinomial weights must not all be zero");
  std::uint64_t remaining = trials;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (remaining == 0) {
      counts_out[i] = 0;
      continue;
    }
    if (i + 1 == weights.size()) {
      counts_out[i] = remaining;
      break;
    }
    const double p =
        remaining_weight > 0.0 ? weights[i] / remaining_weight : 0.0;
    const std::uint64_t draw = binomial(remaining, std::min(p, 1.0));
    counts_out[i] = draw;
    remaining -= draw;
    remaining_weight -= weights[i];
  }
}

std::vector<std::uint64_t> Rng::multinomial(std::uint64_t trials,
                                            std::span<const double> weights) {
  std::vector<std::uint64_t> counts(weights.size(), 0);
  multinomial(trials, weights, counts);
  return counts;
}

Rng Rng::split() {
  // Derive a child seed from two raw outputs; the child reseeds through
  // splitmix64 so parent/child streams decorrelate.
  const std::uint64_t child_seed = (*this)() ^ rotl((*this)(), 32);
  return Rng(child_seed);
}

void Rng::jump() {
  // Standard xoshiro256++ jump polynomial (Blackman & Vigna): the result
  // state equals 2^128 sequential engine steps.
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (std::uint64_t{1} << bit)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (*this)();
    }
  }
  state_ = {s0, s1, s2, s3};
}

Rng Rng::split(std::uint64_t index) const {
  Rng child = *this;
  for (std::uint64_t i = 0; i <= index; ++i) child.jump();
  return child;
}

std::uint64_t mix_key(std::uint64_t key, std::uint64_t value) {
  std::uint64_t x = key + 0x9E3779B97F4A7C15ULL * value;
  return splitmix64(x);
}

}  // namespace bgls
