// The benchmark's workloads on the paper's mixed fleet 1B,2W.
//
// Each workload builds the fleet from the engine's public entry points
// (tpch::GenerateDatabase, exec::ClusterData loads, cluster::
// PlacementPolicy::Place), drives queries through one of the engine's
// public execution paths in a closed loop, checks every result against a
// single-node reference, and fills a Report with the end-to-end and
// per-layer metrics. Only the calls into the engine are timed; result
// checks run outside each query's latency window.
//
//   inproc_serial  SF 0.1, one query at a time through
//                  exec::Executor::ExecutePerNode over an in-process
//                  transport with the energy meter attached.
//   process_small  SF 0.01, one query at a time through
//                  workload::EngineFleet::MeasureProcess (one OS process
//                  per node, real sockets).
//   inproc_corun   SF 0.1, min(4, nproc) queries in flight on one
//                  exec::ExecutorRuntime, one resource group per kind.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  /// Seeds dbgen and the order in which query kinds are issued.
  std::uint64_t seed = 1;
  /// Length of the measured window. The window also extends until every
  /// kind has enough samples for a supported p90 (see stats.h), and
  /// always ends after a whole round of the four kinds.
  double seconds = 10.0;
  /// Separate traced run: operator profiling on, spans recorded around
  /// every layer call and written out with the per-layer ledger.
  bool trace = false;
  /// Directory for the trace and ledger files of a traced run.
  std::string out_dir = ".bench_out";
  /// Source revision, printed with the run metadata.
  std::string commit = "unknown";
  /// Smoke mode: one set-up, a short warm-up and no minimum sample
  /// count, so a run takes seconds; every result is still checked.
  bool smoke = false;
};

struct RunResult {
  Report report;
  /// "key=value" run metadata, printed before the metrics.
  std::vector<std::string> info;
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

eedc::StatusOr<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
