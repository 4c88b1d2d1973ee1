// Spans the benchmark records around its calls into the engine's layers,
// and the per-layer ledger file of a traced run.
//
// Spans live in an obs::TraceRecorder (in memory) and are written out once,
// at the end of the run, as a Chrome trace. A disabled SpanLog records
// nothing, so the timed run pays one branch per call site.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "report.h"

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Seconds on the trace timeline.
  double Now() const { return recorder_.Now(); }

  /// Records [begin_s, end_s) for layer `category` (e.g. "exec",
  /// "energy", "check"). `query` is the benchmark's query sequence
  /// number, -1 outside queries; `client` is the issuing client.
  void Add(const std::string& name, const std::string& category,
           double begin_s, double end_s, int query = -1, int client = 0);

  std::size_t size() const { return recorder_.spans().size(); }

  eedc::Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  eedc::obs::TraceRecorder recorder_;
};

/// Writes `report` and the run metadata as one JSON object: metadata
/// under "info", every metric (measured or not) under "metrics".
eedc::Status WriteLedger(const std::string& path,
                         const std::vector<std::string>& info,
                         const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
