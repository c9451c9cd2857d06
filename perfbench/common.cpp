#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "util/json_writer.h"

#ifdef BGLS_HAVE_OPENMP
#include <omp.h>
#endif

namespace perfbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Outcome::print() const {
  std::ostringstream os;
  bgls::JsonWriter json(os, bgls::JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("failures").begin_array();
  for (const std::string& why : failures) json.value(why);
  json.end_array();
  json.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object();
    json.key("value").value(m.value);
    json.key("unit").value(m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << os.str() << std::endl;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

void add_timed_metrics(const std::vector<Completion>& done, double start_s,
                       double seconds, Outcome& out) {
  constexpr int kWindows = 6;
  const double width = seconds / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  std::vector<double> first(kWindows, 0.0), last(kWindows, 0.0);
  std::size_t samples = 0;
  for (const Completion& c : done) {
    const auto w = static_cast<std::ptrdiff_t>((c.end_s - start_s) / width);
    if (w < 0 || w >= kWindows) continue;
    const auto i = static_cast<std::size_t>(w);
    if (windows[i].empty()) first[i] = c.end_s;
    last[i] = c.end_s;
    windows[i].push_back(c.latency_s * 1e3);
    ++samples;
  }
  std::vector<double> rate, p50, p90, p99;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::vector<double>& ms = windows[i];
    if (ms.size() < 2) continue;
    // Completions per second between the window's first and last one, so
    // a window holding a dozen long jobs still gives an unrounded rate.
    rate.push_back(static_cast<double>(ms.size() - 1) / (last[i] - first[i]));
    p50.push_back(percentile(ms, 50));
    p90.push_back(percentile(ms, 90));
    p99.push_back(percentile(ms, 99));
  }
  out.add("jobs_per_s", median(rate), "1/s");
  out.add("latency_p50_ms", median(p50), "ms");
  out.add("latency_p90_ms", median(p90), "ms");
  out.add("latency_p99_ms", median(p99), "ms");
  out.add("latency_samples", static_cast<double>(samples), "count");
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

KernelTotals& KernelTotals::operator-=(const KernelTotals& other) {
  for (std::size_t i = 0; i < calls.size(); ++i) calls[i] -= other.calls[i];
  seconds -= other.seconds;
  return *this;
}

KernelTotals kernel_totals(const bgls::obs::MetricsSnapshot& snapshot) {
  KernelTotals totals;
  for (std::size_t i = 0; i < kKernelClasses.size(); ++i) {
    const std::string label =
        std::string("{class=\"") + kKernelClasses[i] + "\"}";
    for (const auto& series : snapshot) {
      if (series.name == "bgls_kernel_apply_total" + label) {
        totals.calls[i] = static_cast<double>(series.count);
      } else if (series.name == "bgls_kernel_apply_seconds" + label) {
        totals.seconds += series.sum;
      }
    }
  }
  return totals;
}

double peak_rss_mib(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double copy_gbps(std::size_t bytes, int repeats) {
  const std::unique_ptr<char[]> src(new char[bytes]);
  const std::unique_ptr<char[]> dst(new char[bytes]);
  int threads = 1;
#ifdef BGLS_HAVE_OPENMP
  threads = omp_get_max_threads();
#endif
  const std::size_t slice = (bytes + threads - 1) / threads;
  const auto each_slice = [&](auto&& body) {
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for schedule(static) num_threads(threads)
#endif
    for (int t = 0; t < threads; ++t) {
      const std::size_t begin = std::min(bytes, slice * t);
      body(begin, std::min(bytes, begin + slice) - begin);
    }
  };
  // First touch from the copying threads, then one untimed warm-up copy.
  each_slice([&](std::size_t at, std::size_t n) {
    std::memset(src.get() + at, 1, n);
    std::memset(dst.get() + at, 0, n);
  });
  std::vector<double> rates;
  for (int r = 0; r <= repeats; ++r) {
    const double start = now_s();
    each_slice([&](std::size_t at, std::size_t n) {
      std::memcpy(dst.get() + at, src.get() + at, n);
    });
    const double elapsed = now_s() - start;
    if (r > 0) rates.push_back(2.0 * static_cast<double>(bytes) / elapsed / 1e9);
  }
  return median(rates);
}

}  // namespace perfbench
