#include "obs/exposition.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/json_writer.h"

namespace bgls::obs {

namespace {

/// Shortest-ish decimal rendering: %.12g keeps bucket bounds like
/// 0.001 and 2.5e-05 readable while preserving far more precision
/// than any latency sum needs.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

/// Splits `base{k="v"}` into ("base", `k="v"`); labels empty when the
/// series name carries none.
void split_name(std::string_view name, std::string_view& base,
                std::string_view& labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    base = name;
    labels = {};
    return;
  }
  base = name.substr(0, brace);
  labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.remove_suffix(1);
}

std::string with_label(std::string_view labels, std::string_view extra) {
  std::string out = "{";
  if (!labels.empty()) {
    out += labels;
    out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

const char* type_name(SeriesSnapshot::Kind kind) {
  switch (kind) {
    case SeriesSnapshot::Kind::kCounter:
      return "counter";
    case SeriesSnapshot::Kind::kGauge:
      return "gauge";
    case SeriesSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  // snapshot() is name-sorted, so all series of one family (same base,
  // different labels) are adjacent: emit HELP/TYPE on base change only.
  std::string_view previous_base;
  for (const SeriesSnapshot& series : snapshot) {
    std::string_view base;
    std::string_view labels;
    split_name(series.name, base, labels);
    if (base != previous_base) {
      os << "# HELP " << base << " " << series.help << "\n";
      os << "# TYPE " << base << " " << type_name(series.kind) << "\n";
      previous_base = base;
    }
    switch (series.kind) {
      case SeriesSnapshot::Kind::kCounter:
        os << series.name << " " << series.count << "\n";
        break;
      case SeriesSnapshot::Kind::kGauge:
        os << series.name << " " << format_double(series.gauge) << "\n";
        break;
      case SeriesSnapshot::Kind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < series.bounds.size(); ++i) {
          cumulative += series.bucket_counts[i];
          os << base
             << "_bucket"
             << with_label(labels,
                           "le=\"" + format_double(series.bounds[i]) + "\"")
             << " " << cumulative << "\n";
        }
        os << base << "_bucket" << with_label(labels, "le=\"+Inf\"") << " "
           << series.count << "\n";
        std::string label_suffix;
        if (!labels.empty()) {
          label_suffix += '{';
          label_suffix += labels;
          label_suffix += '}';
        }
        os << base << "_sum" << label_suffix << " "
           << format_double(series.sum) << "\n";
        os << base << "_count" << label_suffix << " " << series.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  JsonWriter json(os);
  json.begin_object();
  json.key("series").begin_array();
  for (const SeriesSnapshot& series : snapshot) {
    json.begin_object();
    json.key("name").value(series.name);
    json.key("kind").value(type_name(series.kind));
    switch (series.kind) {
      case SeriesSnapshot::Kind::kCounter:
        json.key("value").value(series.count);
        break;
      case SeriesSnapshot::Kind::kGauge:
        json.key("value").value(series.gauge);
        break;
      case SeriesSnapshot::Kind::kHistogram: {
        json.key("count").value(series.count);
        json.key("sum").value(series.sum);
        json.key("buckets").begin_array();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < series.bounds.size(); ++i) {
          cumulative += series.bucket_counts[i];
          json.begin_object();
          json.key("le").value(series.bounds[i]);
          json.key("count").value(cumulative);
          json.end_object();
        }
        json.end_array();
        break;
      }
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
}

}  // namespace bgls::obs
