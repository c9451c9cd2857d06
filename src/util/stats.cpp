#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace bgls {

Distribution normalize(const Counts& counts) {
  std::uint64_t total = 0;
  for (const auto& [bits, count] : counts) total += count;
  BGLS_REQUIRE(total > 0, "cannot normalize empty counts");
  Distribution dist;
  for (const auto& [bits, count] : counts) {
    dist[bits] = static_cast<double>(count) / static_cast<double>(total);
  }
  return dist;
}

double distribution_overlap(const Distribution& p, const Distribution& q) {
  double overlap = 0.0;
  for (const auto& [bits, pb] : p) {
    const auto it = q.find(bits);
    if (it != q.end()) overlap += std::min(pb, it->second);
  }
  return overlap;
}

double total_variation_distance(const Distribution& p, const Distribution& q) {
  double sum = 0.0;
  for (const auto& [bits, pb] : p) {
    const auto it = q.find(bits);
    sum += std::abs(pb - (it != q.end() ? it->second : 0.0));
  }
  for (const auto& [bits, qb] : q) {
    if (!p.contains(bits)) sum += qb;
  }
  return 0.5 * sum;
}

double tvd_sampling_bound(const Distribution& expected, std::uint64_t samples,
                          double false_failure_rate) {
  BGLS_REQUIRE(samples > 0, "tvd_sampling_bound needs at least one sample");
  BGLS_REQUIRE(false_failure_rate > 0.0 && false_failure_rate < 1.0,
               "false_failure_rate must lie in (0, 1)");
  const double n = static_cast<double>(samples);
  double spread = 0.0;
  for (const auto& [bits, pb] : expected) {
    spread += std::sqrt(std::max(0.0, pb * (1.0 - pb)) / n);
  }
  return 0.5 * spread +
         std::sqrt(std::log(1.0 / false_failure_rate) / (2.0 * n));
}

double classical_fidelity(const Distribution& p, const Distribution& q) {
  double bc = 0.0;
  for (const auto& [bits, pb] : p) {
    const auto it = q.find(bits);
    if (it != q.end()) bc += std::sqrt(pb * it->second);
  }
  return bc * bc;
}

ChiSquareResult chi_square(const Counts& observed, const Distribution& expected,
                           double min_expected) {
  std::uint64_t total = 0;
  for (const auto& [bits, count] : observed) total += count;
  BGLS_REQUIRE(total > 0, "chi_square needs observations");

  double pooled_expected = 0.0;
  std::uint64_t pooled_observed = 0;
  ChiSquareResult result;
  int cells = 0;
  for (const auto& [bits, prob] : expected) {
    const double exp_count = prob * static_cast<double>(total);
    const auto it = observed.find(bits);
    const double obs_count =
        it != observed.end() ? static_cast<double>(it->second) : 0.0;
    if (exp_count < min_expected) {
      pooled_expected += exp_count;
      pooled_observed += static_cast<std::uint64_t>(obs_count);
      continue;
    }
    const double delta = obs_count - exp_count;
    result.statistic += delta * delta / exp_count;
    ++cells;
  }
  if (pooled_expected >= min_expected) {
    const double delta =
        static_cast<double>(pooled_observed) - pooled_expected;
    result.statistic += delta * delta / pooled_expected;
    ++cells;
  }
  result.degrees_of_freedom = std::max(cells - 1, 1);
  return result;
}

double mean(std::span<const double> xs) {
  BGLS_REQUIRE(!xs.empty(), "mean of empty range");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double median(std::vector<double> xs) {
  BGLS_REQUIRE(!xs.empty(), "median of empty range");
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  if (xs.size() % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(xs.begin(), mid);
  return 0.5 * (lo + hi);
}

double log_log_slope(std::span<const double> xs, std::span<const double> ys) {
  BGLS_REQUIRE(xs.size() == ys.size() && xs.size() >= 2,
               "log_log_slope needs matching inputs with >= 2 points");
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double n = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    BGLS_REQUIRE(xs[i] > 0.0 && ys[i] > 0.0,
                 "log_log_slope needs positive values");
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

}  // namespace bgls
