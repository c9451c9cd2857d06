/// \file report.h
/// The canonical bgls_run JSON report, shared between the CLI and the
/// `bgls_serve` daemon's result endpoint so a job submitted over the
/// socket yields *byte-identical* output to `bgls_run` on the same
/// input and seed (pinned by the service end-to-end test).
///
/// The report contains only result-determining fields (seed,
/// repetitions, backend, histograms, scheduling-independent counters),
/// so for a fixed seed it is byte-stable across runs, thread counts,
/// and CLI-vs-daemon transport.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "api/run_types.h"

namespace bgls::service {

/// The submission knobs echoed into the report (they determine the
/// sampled records, so they are part of the stable output).
struct RunReportContext {
  std::uint64_t repetitions = 0;
  std::uint64_t seed = 0;
  bool optimized = false;
  int num_qubits = 0;
};

/// Builds the context from the resolved request and its circuit width.
[[nodiscard]] RunReportContext report_context(const RunRequest& request,
                                              int num_qubits);

/// Writes the canonical report (pretty JSON + trailing newline).
void write_run_report(std::ostream& os, const RunReportContext& context,
                      const RunResult& result);

/// The report as a string (the daemon embeds it in a response field).
[[nodiscard]] std::string run_report_string(const RunReportContext& context,
                                            const RunResult& result);

}  // namespace bgls::service
