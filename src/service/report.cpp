#include "service/report.h"

#include <sstream>

#include "util/bits.h"
#include "util/json_writer.h"

namespace bgls::service {

RunReportContext report_context(const RunRequest& request, int num_qubits) {
  RunReportContext context;
  context.repetitions = request.repetitions;
  context.seed = request.seed;
  context.optimized = request.optimize_circuit;
  context.num_qubits = num_qubits;
  return context;
}

void write_run_report(std::ostream& os, const RunReportContext& context,
                      const RunResult& result) {
  JsonWriter json(os);
  json.begin_object();
  json.key("tool").value("bgls_run");
  json.key("backend").value(result.backend_name);
  json.key("selection_reason").value(result.selection_reason);
  json.key("num_qubits").value(context.num_qubits);
  json.key("repetitions").value(context.repetitions);
  json.key("seed").value(context.seed);
  json.key("optimized").value(context.optimized);

  json.key("measurements").begin_array();
  for (const std::string& key : result.measurements.keys()) {
    json.begin_object();
    json.key("key").value(key);
    const auto& qubits = result.measurements.measured_qubits(key);
    json.key("qubits").begin_array();
    for (const Qubit q : qubits) json.value(q);
    json.end_array();
    json.key("histogram").begin_array();
    for (const auto& [bits, count] : result.measurements.histogram(key)) {
      json.begin_object();
      // Library convention (util/bits.h to_string, print_histogram):
      // the key's qubit 0 prints first.
      json.key("bits").value(to_string(bits, static_cast<int>(qubits.size())));
      json.key("value").value(bits);
      json.key("count").value(count);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  // Scheduling-independent counters only: the report must be
  // byte-identical across thread counts for a fixed seed.
  json.key("stats").begin_object();
  json.key("state_applications").value(result.stats.state_applications);
  json.key("probability_evaluations")
      .value(result.stats.probability_evaluations);
  json.key("max_dictionary_size").value(result.stats.max_dictionary_size);
  json.key("trajectories").value(result.stats.trajectories);
  json.key("sample_parallelization")
      .value(result.stats.used_sample_parallelization);
  json.end_object();

  json.end_object();
  os << "\n";
}

std::string run_report_string(const RunReportContext& context,
                              const RunResult& result) {
  std::ostringstream os;
  write_run_report(os, context, result);
  return os.str();
}

}  // namespace bgls::service
