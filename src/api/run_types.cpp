#include "api/run_types.h"

#include <algorithm>
#include <cctype>

namespace bgls {

namespace detail {

std::string ascii_lower(std::string_view text) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return lower;
}

}  // namespace detail

std::string_view backend_id_name(BackendId id) {
  switch (id) {
    case BackendId::kAuto: return "auto";
    case BackendId::kStateVector: return "statevector";
    case BackendId::kDensityMatrix: return "densitymatrix";
    case BackendId::kStabilizer: return "stabilizer";
    case BackendId::kMps: return "mps";
    case BackendId::kCustom: return "custom";
  }
  return "?";
}

SimulatorOptions RunRequest::simulator_options() const {
  SimulatorOptions options;
  options.disable_sample_parallelization = disable_sample_parallelization;
  options.num_threads = num_threads;
  options.cancel_token = cancel_token;
  options.progress = progress;
  options.trace = trace;
  options.checkpoint = checkpoint;
  options.resume = resume;
  return options;
}

}  // namespace bgls
