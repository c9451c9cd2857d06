/// \file exposition.h
/// Renders MetricsSnapshot in the Prometheus text exposition format
/// (for the daemon's `{"op":"metrics"}` endpoint and `bgls_client
/// metrics`) and as JSON (for the `--metrics-json` dump flags and the
/// BENCH_*.json metric sections).

#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.h"

namespace bgls::obs {

/// Prometheus text exposition format, version 0.0.4: `# HELP` / `# TYPE`
/// per metric family, `_bucket{le="..."}`/`_sum`/`_count` series per
/// histogram, cumulative bucket counts. Families are emitted in series
/// name order.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// The same snapshot as a pretty JSON document (schema: a top-level
/// `series` array).
void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace bgls::obs
