/// \file timing.h
/// Wall-clock timing helpers for the per-figure benches and the
/// sampler's telemetry (shard and phase durations, never results).

#pragma once

#include <chrono>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace bgls {

/// Monotonic stopwatch returning elapsed seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void reset() { start_ = Clock::now(); }

  /// seconds() and reset() with one clock read.
  double lap() {
    const Clock::time_point now = Clock::now();
    const double elapsed = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return elapsed;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Runs `fn` `reps` times and returns the median wall time in seconds.
/// One warm-up call is made first so allocation effects do not skew the
/// first measurement.
template <typename Fn>
[[nodiscard]] double median_runtime(Fn&& fn, int reps = 3) {
  fn();  // warm-up
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  return median(std::move(times));
}

}  // namespace bgls
