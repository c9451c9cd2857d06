/// \file result_cache.h
/// Deterministic result cache for the sampling service.
///
/// BGLS sampling is a pure function of (circuit, seed, repetitions,
/// backend, knobs) — bit-identical on every run and every
/// thread count (the determinism contract every tier-1 suite pins).
/// That makes results perfectly cacheable: the million-user case is
/// mostly hot circuits, and a repeat submission can be answered with a
/// byte-identical report for the cost of a map lookup.
///
/// The key is the *full canonical serialization* of the
/// result-determining request fields (not just a hash of them): circuit
/// structure down to bit-exact gate parameters, Kraus operators and
/// moment boundaries, plus seed/repetitions/backend/knobs.
/// Storing the serialization itself makes collisions impossible — the
/// byte-identical-report contract must not hinge on a hash function.
/// Scheduling-only fields (threads, priority, tenant, deadline) are
/// excluded: they never change the sampled records.
///
/// Not cacheable (key_for returns nullopt): requests with a resume
/// checkpoint, caller-supplied checkpoint capture, or streaming
/// progress (a cache hit emits no intermediate updates, so serving one
/// would change observable behavior), and circuits with unresolved
/// symbolic parameters.
///
/// Bounded LRU: max_entries and an approximate max_total_bytes, oldest
/// hits evicted first. Thread-safe.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>  // bgls-lint: allow(unordered-serialization)

#include "api/run_types.h"

namespace bgls::service {

/// Cache bounds. Entry bytes are estimated from the stored measurement
/// records (the dominant term at large repetition counts) plus the key.
struct ResultCacheOptions {
  std::size_t max_entries = 1024;
  std::size_t max_total_bytes = 256ull * 1024 * 1024;
};

/// LRU map from canonical request serialization to the finished
/// RunResult. Entries are immutable shared_ptrs — a hit hands back the
/// original result object.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  /// Canonical serialization of the result-determining fields of
  /// `request`, or nullopt when the request must not be cached (see
  /// file comment).
  [[nodiscard]] static std::optional<std::string> key_for(
      const RunRequest& request);

  /// The cached result for `key`, or null. Counts a hit or miss.
  [[nodiscard]] std::shared_ptr<const RunResult> lookup(
      const std::string& key);

  /// Stores `result` under `key` (no-op when already present — the
  /// deterministic contract makes concurrent duplicates identical) and
  /// evicts least-recently-used entries past the bounds.
  void insert(const std::string& key,
              std::shared_ptr<const RunResult> result);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const RunResult> result;
    std::size_t bytes = 0;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_position;
  };

  void evict_past_bounds_locked();

  ResultCacheOptions options_;
  mutable std::mutex mutex_;
  std::list<std::string> lru_;
  // Never iterated — every access is a by-key find/emplace/erase, and
  // eviction order comes from the ordered lru_ list above, so hash
  // order cannot reach serialized bytes.
  // bgls-lint: allow(unordered-serialization)
  std::unordered_map<std::string, Entry> entries_;
  std::size_t total_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace bgls::service
