// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload inproc_serial --seed 1 --seconds 4 --trace 0
//       [--out .bench_out] [--commit REV] [--emit name,name,...] [--smoke]
//
// Prints the run metadata ("# key=value"), one line per metric, and as
// the last line the JSON result with the metrics named by --emit (all
// measured metrics when --emit is absent). perfbench/run.py builds this
// binary and passes --emit from BENCHMARK.json.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] "
               "[--commit REV] [--emit a,b,...] [--smoke]\nworkloads:";
  for (const std::string& w : perfbench::WorkloadNames()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::vector<std::string> emit;
  bool emit_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--out") {
        options.out_dir = value;
      } else if (arg == "--commit") {
        options.commit = value;
      } else if (arg == "--emit") {
        emit = SplitCommas(value);
        emit_given = true;
      } else {
        return Usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");

  eedc::StatusOr<perfbench::RunResult> run = perfbench::RunWorkload(options);
  if (!run.ok()) {
    std::cerr << "perfbench: " << run.status().ToString() << "\n";
    return 1;
  }
  for (const std::string& line : run->info) std::cout << "# " << line << "\n";
  run->report.Print(std::cout);
  if (!emit_given) {
    for (const perfbench::Metric& m : run->report.metrics()) {
      if (m.value.has_value()) emit.push_back(m.name);
    }
  }
  std::string error;
  const std::optional<std::string> json = run->report.ResultJson(
      run->correct, run->attempted, run->failed, emit, &error);
  if (!json.has_value()) {
    std::cout.flush();
    std::cerr << "perfbench: " << error << "\n";
    return 1;
  }
  std::cout << *json << std::endl;
  return 0;
}
