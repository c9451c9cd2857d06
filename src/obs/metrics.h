/// \file metrics.h
/// Process-wide telemetry: a lock-cheap metrics registry with counter,
/// gauge, and fixed-bucket latency-histogram series.
///
/// Design contract (ROADMAP "fleet-scale serving" direction):
///  - the hot path is relaxed atomics only — instrumentation sites hold
///    a cached handle (`Counter`/`Gauge`/`Histogram`) resolved once
///    under the registry mutex and then touch their cell lock-free;
///  - series cells live for the life of the process (the global
///    registry never erases), so handles are plain pointers;
///  - telemetry is observation-only: it never reads or advances RNG
///    state, so enabling it cannot perturb sampling determinism;
///  - collection can be toggled at runtime via set_enabled() — the
///    in-binary switch the overhead micro-bench uses for its
///    before/after rows.
///
/// Naming follows Prometheus conventions: snake_case base names with
/// unit suffixes (`_seconds`, `_total`), optional labels appended as
/// `name{key="value"}`. obs/exposition.h renders snapshots in the
/// Prometheus text exposition format and as JSON.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bgls::obs {

/// Runtime kill-switch (default on). Affects recording only — series
/// already registered keep their values; handles stay valid.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// RAII runtime toggle: sets enabled(on) for a scope, restores the
/// previous value on exit. Used by the overhead micro-bench and tests.
class EnabledScope {
 public:
  explicit EnabledScope(bool on) : previous_(enabled()) { set_enabled(on); }
  ~EnabledScope() { set_enabled(previous_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool previous_;
};

namespace detail {

/// Lock-free accumulation cell for one series. Counters/gauges use
/// `count` (counters also mirror the double view for fractional adds);
/// histograms own `buckets` (one slot per upper bound + overflow) and
/// track the running sum of observations.
///
/// Doubles accumulate by CAS on the bit pattern of an atomic<uint64_t>:
/// std::atomic<double>::fetch_add is C++20 and not universally
/// lock-free, while 64-bit CAS is on every target we build for.
struct Cell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_bits{0};  // double bit pattern
  std::vector<std::atomic<std::uint64_t>> buckets;  // histograms only
  std::vector<double> bounds;                       // histograms only

  void add_sum(double delta) noexcept;
  [[nodiscard]] double sum() const noexcept;
};

}  // namespace detail

/// Monotonically increasing series handle. Copyable, trivially cheap;
/// a default-constructed handle is inert.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t delta = 1) noexcept {
    if (cell_ != nullptr && enabled()) {
      cell_->count.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0
                            : cell_->count.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::Cell* cell) : cell_(cell) {}
  detail::Cell* cell_ = nullptr;
};

/// Instantaneous-value series handle (queue depth, active workers).
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t value) noexcept {
    if (cell_ != nullptr && enabled()) {
      cell_->count.store(static_cast<std::uint64_t>(value),
                         std::memory_order_relaxed);
    }
  }

  void add(std::int64_t delta = 1) noexcept {
    if (cell_ != nullptr && enabled()) {
      cell_->count.fetch_add(static_cast<std::uint64_t>(delta),
                             std::memory_order_relaxed);
    }
  }

  void sub(std::int64_t delta = 1) noexcept { add(-delta); }

  [[nodiscard]] std::int64_t value() const noexcept {
    return cell_ == nullptr ? 0
                            : static_cast<std::int64_t>(cell_->count.load(
                                  std::memory_order_relaxed));
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::Cell* cell) : cell_(cell) {}
  detail::Cell* cell_ = nullptr;
};

/// Fixed-bucket latency histogram handle. Buckets are cumulative at
/// exposition time only; observe() touches exactly one bucket slot plus
/// the count/sum cells, all relaxed atomics.
class Histogram {
 public:
  Histogram() = default;

  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return cell_ == nullptr ? 0
                            : cell_->count.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return cell_ == nullptr ? 0.0 : cell_->sum();
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::Cell* cell) : cell_(cell) {}
  detail::Cell* cell_ = nullptr;
};

/// Point-in-time copy of one series, as read by snapshot().
struct SeriesSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;  // full series name, labels included
  std::string help;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;                   // counter value / histogram count
  double gauge = 0.0;                        // gauge value
  double sum = 0.0;                          // histogram sum
  std::vector<double> bounds;                // histogram upper bounds
  std::vector<std::uint64_t> bucket_counts;  // per-bound (non-cumulative)
};

/// An ordered (by series name) snapshot of every registered series.
using MetricsSnapshot = std::vector<SeriesSnapshot>;

/// Default latency bucket bounds in seconds: 1 µs … 10 s, roughly one
/// step per 2–4×. Covers both single-gate applies (µs) and whole jobs.
[[nodiscard]] const std::vector<double>& default_latency_buckets();

/// Named-series registry. Registration (the `counter`/`gauge`/
/// `histogram` lookups) takes a mutex; recording through the returned
/// handles is lock-free. Series are identified by their full name —
/// append labels as `name{key="value"}` to get one cell per label set.
///
/// The process-wide instance is MetricsRegistry::global(); tests can
/// construct private registries for isolation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumentation site records into.
  [[nodiscard]] static MetricsRegistry& global();

  /// Finds or creates a series; throws bgls::ValueError when `name` is
  /// already registered with a different kind (or, for histograms,
  /// different bounds).
  [[nodiscard]] Counter counter(std::string_view name, std::string_view help);
  [[nodiscard]] Gauge gauge(std::string_view name, std::string_view help);
  [[nodiscard]] Histogram histogram(
      std::string_view name, std::string_view help,
      const std::vector<double>& bounds = default_latency_buckets());

  /// Copies every series, sorted by name. Safe to call concurrently
  /// with recording (values are read with relaxed loads; a snapshot is
  /// a consistent-enough point-in-time view, not a linearization).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every cell (testing only — handles stay valid).
  void reset_for_testing();

 private:
  struct Series {
    SeriesSnapshot::Kind kind;
    std::string help;
    std::unique_ptr<detail::Cell> cell;
  };

  detail::Cell* find_or_create(std::string_view name, std::string_view help,
                               SeriesSnapshot::Kind kind,
                               const std::vector<double>* bounds);

  mutable std::mutex mutex_;
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace bgls::obs
