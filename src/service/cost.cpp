#include "service/cost.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "api/selector.h"

namespace bgls::service {
namespace {

/// Reads a whole file; empty string on any failure (best-effort fit).
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// google-benchmark document → real_time (ns) of the named benchmark,
/// or 0 when absent/malformed.
double benchmark_real_time_ns(const JsonValue& doc, const std::string& name) {
  const JsonValue* benchmarks = doc.find("benchmarks");
  if (benchmarks == nullptr ||
      benchmarks->kind() != JsonValue::Kind::kArray) {
    return 0.0;
  }
  for (const JsonValue& row : benchmarks->items()) {
    if (row.string_or("name", "") != name) continue;
    const JsonValue* real_time = row.find("real_time");
    if (real_time == nullptr) return 0.0;
    const double value = real_time->as_double();
    // Committed artifacts record nanoseconds; honor the unit field if a
    // future recording changes it.
    const std::string unit = row.string_or("time_unit", "ns");
    if (unit == "us") return value * 1e3;
    if (unit == "ms") return value * 1e6;
    if (unit == "s") return value * 1e9;
    return value;
  }
  return 0.0;
}

/// BENCH_service.json row lookup → seconds-per-job, or 0 when absent.
double service_seconds_per_job(const JsonValue& doc,
                               const std::string& path_name) {
  const JsonValue* rows = doc.find("rows");
  const JsonValue* jobs = doc.find("jobs");
  if (rows == nullptr || rows->kind() != JsonValue::Kind::kArray ||
      jobs == nullptr) {
    return 0.0;
  }
  const double job_count = jobs->as_double();
  if (job_count <= 0) return 0.0;
  for (const JsonValue& row : rows->items()) {
    if (row.string_or("path", "") != path_name) continue;
    const JsonValue* seconds = row.find("seconds");
    if (seconds == nullptr) return 0.0;
    return seconds->as_double() / job_count;
  }
  return 0.0;
}

}  // namespace

CostModel CostModel::fitted(const JsonValue& micro_states,
                            const JsonValue& service) {
  CostCoefficients c;  // start from the committed-artifact defaults
  // One Hadamard sweep over 2^20 amplitudes: the cleanest
  // seconds-per-element sample the micro bench records. The density
  // matrix shares the coefficient (same dense per-element work).
  const double apply_h_20_ns =
      benchmark_real_time_ns(micro_states, "BM_StateVector_ApplyH/20");
  if (apply_h_20_ns > 0) {
    const double per_element = apply_h_20_ns * 1e-9 / std::ldexp(1.0, 20);
    c.sv_seconds_per_element = per_element;
    c.dm_seconds_per_element = per_element;
    // SVD-dominated MPS splits keep their relative factor to the
    // streaming dense kernels.
    c.mps_seconds_per_element = 16.0 * per_element;
  }
  // Scheduler overhead = per-job gap between the queued and direct
  // paths of the same workload.
  const double direct = service_seconds_per_job(service, "session_direct");
  const double queued = service_seconds_per_job(service, "scheduler_1");
  if (direct > 0 && queued > direct) {
    c.job_overhead_seconds = queued - direct;
  }
  return CostModel(c);
}

CostModel CostModel::fitted_from_files(const std::string& micro_states_path,
                                       const std::string& service_path) {
  JsonValue micro;
  JsonValue service;
  try {
    const std::string text = slurp(micro_states_path);
    if (!text.empty()) micro = JsonValue::parse(text);
  } catch (const Error&) {
    // keep defaults
  }
  try {
    const std::string text = slurp(service_path);
    if (!text.empty()) service = JsonValue::parse(text);
  } catch (const Error&) {
    // keep defaults
  }
  return fitted(micro, service);
}

double CostModel::estimated_bond_dimension(const CircuitProfile& profile) {
  // χ can at most double per entangling layer and saturates at
  // 2^(n/2) (the Schmidt rank bound across the middle cut). The
  // entangling-gate density is the cheap proxy for layers the selector
  // already extracts.
  const double layers =
      std::min(profile.entangling_gates_per_qubit(),
               static_cast<double>(profile.num_qubits) / 2.0);
  // 2^32 caps the estimate for adversarial profiles: past that the
  // prediction is "absurdly expensive" either way and the double stays
  // well-behaved.
  return std::pow(2.0, std::min(layers, 32.0));
}

double CostModel::predict_seconds(const CircuitProfile& profile,
                                  std::uint64_t repetitions,
                                  BackendId backend) const {
  const double n = static_cast<double>(profile.num_qubits);
  const double ops = static_cast<double>(
      std::max<std::size_t>(profile.num_operations, 1));
  const double reps = static_cast<double>(repetitions);
  // Unitary circuits evolve once (dictionary-batched repetitions);
  // channel-bearing circuits re-evolve once per trajectory on every
  // representation, the density matrix included (Simulator runs
  // channels as trajectories whatever the state).
  const double passes = profile.has_channels ? std::max(reps, 1.0) : 1.0;
  const double shared = reps * coefficients_.sample_seconds_per_repetition +
                        coefficients_.job_overhead_seconds;
  switch (backend) {
    case BackendId::kStateVector:
      return passes * ops * std::ldexp(1.0, profile.num_qubits) *
                 coefficients_.sv_seconds_per_element +
             shared;
    case BackendId::kDensityMatrix:
      return passes * ops * std::ldexp(1.0, 2 * profile.num_qubits) *
                 coefficients_.dm_seconds_per_element +
             shared;
    case BackendId::kStabilizer: {
      // Near-Clifford rotations branch per repetition
      // (sum-over-Cliffords); pure Clifford evolves once.
      const double ch_passes =
          profile.clifford_only ? 1.0 : std::max(reps, 1.0);
      const double packed_words = std::max(n * n / 64.0, 1.0);
      return ch_passes * ops * packed_words *
                 coefficients_.stabilizer_seconds_per_word +
             shared;
    }
    case BackendId::kMps: {
      const double chi = estimated_bond_dimension(profile);
      return passes * ops * n * chi * chi * chi *
                 coefficients_.mps_seconds_per_element +
             shared;
    }
    case BackendId::kAuto:
    case BackendId::kCustom:
      break;
  }
  detail::throw_error<ValueError>(
      "CostModel::predict_seconds needs a resolved builtin backend, got '",
      backend_id_name(backend), "'");
}

}  // namespace bgls::service
