#include "service/result_cache.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace bgls::service {
namespace {

/// Cache series: process-wide, like the scheduler's (several caches —
/// e.g. in tests — accumulate into the same series; per-instance
/// numbers live in ResultCache::Stats).
struct CacheMetrics {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter evictions;
  obs::Gauge entries;
  obs::Gauge bytes;

  CacheMetrics() {
    auto& registry = obs::MetricsRegistry::global();
    hits = registry.counter("bgls_cache_hits_total",
                            "Submissions answered from the result cache");
    misses = registry.counter(
        "bgls_cache_misses_total",
        "Cacheable submissions that had to sample (results are inserted "
        "on completion)");
    evictions = registry.counter(
        "bgls_cache_evictions_total",
        "Entries dropped by the LRU bounds (max_entries/max_total_bytes)");
    entries =
        registry.gauge("bgls_cache_entries", "Results currently cached");
    bytes = registry.gauge("bgls_cache_bytes",
                           "Approximate bytes held by cached results");
  }

  static CacheMetrics& instance() {
    static CacheMetrics metrics;
    return metrics;
  }
};

// --- Canonical binary serialization -----------------------------------
// Fixed-width little-endian-by-memcpy fields with explicit counts; the
// layout is unambiguous (every variable-length run is preceded by its
// length), so two requests serialize identically iff their
// result-determining fields are identical.

void append_u64(std::string& out, std::uint64_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(value));
}

void append_f64(std::string& out, double value) {
  // Bit-exact: 0.1 vs 0.1+ulp are different circuits. (-0.0 and 0.0
  // hash apart — a spurious miss, never a wrong hit.)
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  append_u64(out, bits);
}

void append_str(std::string& out, const std::string& value) {
  append_u64(out, value.size());
  out.append(value);
}

void append_matrix(std::string& out, const Matrix& m) {
  append_u64(out, m.rows());
  append_u64(out, m.cols());
  for (const Complex& c : m.data()) {
    append_f64(out, c.real());
    append_f64(out, c.imag());
  }
}

/// Serializes one operation; false when it carries an unresolved
/// symbolic parameter (not runnable as-is, so never cacheable).
bool append_operation(std::string& out, const Operation& op) {
  const Gate& gate = op.gate();
  append_u64(out, static_cast<std::uint64_t>(gate.kind()));
  append_u64(out, static_cast<std::uint64_t>(gate.arity()));
  append_u64(out, op.qubits().size());
  for (const Qubit q : op.qubits()) {
    append_u64(out, static_cast<std::uint64_t>(q));
  }
  append_str(out, op.condition_key());
  if (gate.is_measurement()) {
    append_str(out, gate.measurement_key());
    return true;
  }
  if (gate.is_channel()) {
    const KrausChannel& channel = gate.channel();
    append_u64(out, channel.operators().size());
    for (const Matrix& kraus : channel.operators()) {
      append_matrix(out, kraus);
    }
    return true;
  }
  if (gate.is_parameterized()) return false;
  // The unitary pins every parameterized kind bit-exactly (kind alone
  // would alias Rz(0.1) with Rz(0.2)) and covers the fused kMatrix1/2
  // gates uniformly.
  append_matrix(out, gate.unitary());
  return true;
}

/// Estimated retained bytes of a result: the per-repetition records
/// dominate; keys and fixed fields get a flat allowance.
std::size_t estimated_bytes(const RunResult& result) {
  std::size_t bytes = 512;
  for (const std::string& key : result.measurements.keys()) {
    bytes += key.size() + 64;
    bytes += result.measurements.values(key).size() * sizeof(Bitstring);
  }
  return bytes;
}

}  // namespace

std::optional<std::string> ResultCache::key_for(const RunRequest& request) {
  // A resumed run's result depends on the checkpoint, not just the
  // request; checkpoint capture and progress streaming are observable
  // side effects a cache hit would silently skip.
  if (request.resume != nullptr) return std::nullopt;
  if (request.checkpoint.every > 0 || request.checkpoint.sink) {
    return std::nullopt;
  }
  if (request.progress.every > 0 || request.progress.sink) {
    return std::nullopt;
  }

  std::string key;
  key.reserve(256);
  append_u64(key, 3);  // layout version
  append_u64(key, request.repetitions);
  append_u64(key, request.seed);
  // Backend addressing: name wins over id (the Session's resolution
  // order). Two spellings of the same backend ("sv" vs "statevector")
  // key apart — a spurious miss, never a wrong hit.
  append_u64(key, static_cast<std::uint64_t>(request.backend));
  append_str(key, request.backend_name);
  // Knobs that do (or conservatively may) shape the sampled records.
  // Thread count is deliberately excluded: reports are pinned
  // byte-identical across thread counts.
  append_u64(key, (request.optimize_circuit ? 1u : 0u) |
                      (request.disable_sample_parallelization ? 2u : 0u));

  append_u64(key, static_cast<std::uint64_t>(request.circuit.num_qubits()));
  for (const auto& moment : request.circuit.moments()) {
    append_u64(key, 0xffffffffffffffffull);  // moment boundary
    append_u64(key, moment.operations().size());
    for (const Operation& op : moment.operations()) {
      if (!append_operation(key, op)) return std::nullopt;
    }
  }
  return key;
}

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {}

std::shared_ptr<const RunResult> ResultCache::lookup(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    CacheMetrics::instance().misses.add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  ++hits_;
  CacheMetrics::instance().hits.add();
  return it->second.result;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const RunResult> result) {
  if (result == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(key) != 0) return;  // identical by determinism
  lru_.push_front(key);
  Entry entry;
  entry.result = std::move(result);
  entry.bytes = key.size() + estimated_bytes(*entry.result);
  entry.lru_position = lru_.begin();
  total_bytes_ += entry.bytes;
  entries_.emplace(key, std::move(entry));
  evict_past_bounds_locked();
  CacheMetrics& metrics = CacheMetrics::instance();
  metrics.entries.set(static_cast<std::int64_t>(entries_.size()));
  metrics.bytes.set(static_cast<std::int64_t>(total_bytes_));
}

void ResultCache::evict_past_bounds_locked() {
  while (!lru_.empty() && (entries_.size() > options_.max_entries ||
                           total_bytes_ > options_.max_total_bytes)) {
    const std::string& victim = lru_.back();
    const auto it = entries_.find(victim);
    total_bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
    CacheMetrics::instance().evictions.add();
  }
}

ResultCache::Stats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.entries = entries_.size();
  out.bytes = total_bytes_;
  return out;
}

}  // namespace bgls::service
