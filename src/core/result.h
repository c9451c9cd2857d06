/// \file result.h
/// Measurement results keyed by measurement key — the equivalent of the
/// cirq.Result object returned by simulator.run() in the paper's
/// quickstart, including the histogram used by Fig. 1.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/operation.h"
#include "util/stats.h"

namespace bgls {

/// Sampled measurement records for one run() call.
class Result {
 public:
  Result() = default;

  /// Declares a measurement key and the qubits it reads (in gate order).
  /// Called once per key before any record is appended.
  void declare_key(const std::string& key, std::vector<Qubit> qubits);

  /// Appends one repetition's packed outcome for `key`: bit j of `value`
  /// is the measured bit of the key's j-th qubit.
  void add_record(const std::string& key, Bitstring value);

  /// Appends `count` identical repetitions (dictionary-batched path).
  void add_records(const std::string& key, Bitstring value,
                   std::uint64_t count);

  /// Appends every record of `other` to this result (the sampler's
  /// shard merge). Keys unknown here are declared with the other
  /// result's qubits; keys known to both must measure the same qubits.
  void append(const Result& other);

  /// All keys in declaration order.
  [[nodiscard]] const std::vector<std::string>& keys() const { return keys_; }

  /// The qubits a key measures.
  [[nodiscard]] const std::vector<Qubit>& measured_qubits(
      const std::string& key) const;

  /// Per-repetition packed outcomes for a key.
  [[nodiscard]] const std::vector<Bitstring>& values(
      const std::string& key) const;

  /// Number of repetitions recorded (same for every key).
  [[nodiscard]] std::uint64_t repetitions() const;

  /// Outcome counts for a key (the histogram of Fig. 1).
  [[nodiscard]] Counts histogram(const std::string& key) const;

  /// Empirical distribution for a key.
  [[nodiscard]] Distribution distribution(const std::string& key) const;

 private:
  struct KeyData {
    std::vector<Qubit> qubits;
    std::vector<Bitstring> values;
  };
  const KeyData& key_data(const std::string& key) const;

  std::vector<std::string> keys_;
  std::map<std::string, KeyData> data_;
};

class Circuit;

/// Declares every measurement key of `circuit` (with its qubits, in
/// gate order) on `result` — the shared preamble of Simulator::run's
/// paths and shards and the Session facade, so a 0-repetition run
/// still yields a well-formed result with all keys present.
void declare_measurement_keys(const Circuit& circuit, Result& result);

/// All of a result's histograms keyed by measurement key — the
/// progress-snapshot shape (core/progress.h) of a run's final update
/// and of its checkpoints.
[[nodiscard]] std::map<std::string, Counts> key_histograms(
    const Result& result);

}  // namespace bgls
