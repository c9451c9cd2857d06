#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace bgls::obs {

namespace {

std::atomic<bool> g_enabled{true};

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {

void Cell::add_sum(double delta) noexcept {
  std::uint64_t observed = sum_bits.load(std::memory_order_relaxed);
  while (true) {
    const double updated = std::bit_cast<double>(observed) + delta;
    if (sum_bits.compare_exchange_weak(observed, std::bit_cast<std::uint64_t>(updated),
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
      return;
    }
  }
}

double Cell::sum() const noexcept {
  return std::bit_cast<double>(sum_bits.load(std::memory_order_relaxed));
}

}  // namespace detail

void Histogram::observe(double value) noexcept {
  if (cell_ == nullptr || !enabled()) return;
  // First bucket whose upper bound admits the value; past-the-end is
  // the overflow (+Inf) slot.
  const auto& bounds = cell_->bounds;
  const std::size_t slot = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  cell_->buckets[slot].fetch_add(1, std::memory_order_relaxed);
  cell_->count.fetch_add(1, std::memory_order_relaxed);
  cell_->add_sum(value);
}

const std::vector<double>& default_latency_buckets() {
  static const std::vector<double> kBounds = {
      1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
      1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0};
  return kBounds;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

detail::Cell* MetricsRegistry::find_or_create(
    std::string_view name, std::string_view help, SeriesSnapshot::Kind kind,
    const std::vector<double>* bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  if (it != series_.end()) {
    BGLS_REQUIRE(it->second.kind == kind, "metric series '", name,
                 "' already registered with a different kind");
    if (bounds != nullptr) {
      BGLS_REQUIRE(it->second.cell->bounds == *bounds, "histogram '", name,
                   "' already registered with different bucket bounds");
    }
    return it->second.cell.get();
  }
  Series series;
  series.kind = kind;
  series.help = std::string(help);
  series.cell = std::make_unique<detail::Cell>();
  if (bounds != nullptr) {
    BGLS_REQUIRE(!bounds->empty(), "histogram '", name, "' needs >=1 bucket");
    BGLS_REQUIRE(std::is_sorted(bounds->begin(), bounds->end()),
                 "histogram '", name, "' bucket bounds must be sorted");
    series.cell->bounds = *bounds;
    series.cell->buckets =
        std::vector<std::atomic<std::uint64_t>>(bounds->size() + 1);
  }
  detail::Cell* cell = series.cell.get();
  series_.emplace(std::string(name), std::move(series));
  return cell;
}

Counter MetricsRegistry::counter(std::string_view name,
                                 std::string_view help) {
  return Counter(
      find_or_create(name, help, SeriesSnapshot::Kind::kCounter, nullptr));
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return Gauge(
      find_or_create(name, help, SeriesSnapshot::Kind::kGauge, nullptr));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::string_view help,
                                     const std::vector<double>& bounds) {
  return Histogram(
      find_or_create(name, help, SeriesSnapshot::Kind::kHistogram, &bounds));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) {
    SeriesSnapshot snap;
    snap.name = name;
    snap.help = series.help;
    snap.kind = series.kind;
    const detail::Cell& cell = *series.cell;
    switch (series.kind) {
      case SeriesSnapshot::Kind::kCounter:
        snap.count = cell.count.load(std::memory_order_relaxed);
        break;
      case SeriesSnapshot::Kind::kGauge:
        snap.gauge = static_cast<double>(static_cast<std::int64_t>(
            cell.count.load(std::memory_order_relaxed)));
        break;
      case SeriesSnapshot::Kind::kHistogram:
        snap.count = cell.count.load(std::memory_order_relaxed);
        snap.sum = cell.sum();
        snap.bounds = cell.bounds;
        snap.bucket_counts.reserve(cell.buckets.size());
        for (const auto& bucket : cell.buckets) {
          snap.bucket_counts.push_back(
              bucket.load(std::memory_order_relaxed));
        }
        break;
    }
    out.push_back(std::move(snap));
  }
  // std::map already iterates in name order; keep the invariant
  // explicit for readers of snapshot().
  return out;
}

void MetricsRegistry::reset_for_testing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, series] : series_) {
    (void)name;
    series.cell->count.store(0, std::memory_order_relaxed);
    series.cell->sum_bits.store(0, std::memory_order_relaxed);
    for (auto& bucket : series.cell->buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace bgls::obs
