// Named metrics and the benchmark's output format.
//
// Every metric is printed by name with its unit on its own line, with its
// sample count where it is an order statistic, and the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The JSON carries only the metrics the caller selects (BENCHMARK.json's
// end-to-end list for a timed run, its per-layer list for a traced one);
// the rest are printed for the reader.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Metric names: a letter or digit, then up to 63 letters, digits, '_',
/// '.' or '-'.
bool ValidMetricName(std::string_view name);
/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
bool ValidUnit(std::string_view unit);

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Metric {
  std::string name;
  std::string unit;
  /// Empty when the workload does not measure it; printed with `note`.
  std::optional<double> value;
  /// Order statistics: how many samples the value was taken from.
  std::optional<std::size_t> samples;
  std::string note;
};

/// The metrics of one run, in the order of a fixed catalogue. Every
/// workload reports the same catalogue, so a metric a workload cannot
/// measure is still printed, as "not measured" with the reason.
class Report {
 public:
  /// Names and units are checked; a bad one is a programming error and
  /// aborts, as does a duplicate.
  explicit Report(std::vector<MetricSpec> catalogue);

  /// Records a measured value of a catalogued metric.
  void Add(const std::string& name, double value, std::string note = "");
  /// Records a percentile; an unsupported one stays not measured.
  void AddPercentile(const std::string& name, const PercentileResult& p);
  /// Records why this workload does not measure a catalogued metric.
  void AddNotMeasured(const std::string& name, std::string why);

  const Metric* Find(std::string_view name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One line per metric: name, value or "not measured", unit, notes.
  void Print(std::ostream& out) const;

  /// The result line. Fails (returns nullopt, naming the culprit in
  /// `error`) when a selected metric is unknown or not measured.
  std::optional<std::string> ResultJson(
      bool correct, std::int64_t attempted, std::int64_t failed,
      const std::vector<std::string>& selected, std::string* error) const;

 private:
  Metric& At(const std::string& name);

  std::vector<Metric> metrics_;
};

/// JSON string literal with quotes, backslashes and control bytes escaped.
std::string JsonString(std::string_view s);
/// A finite double in the shortest form that reads back exactly, or null.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
