// The benchmark's four workloads and the metrics they report.
//
// Every workload repeats one unit of work (a "rep") with seeds derived
// from --seed until --seconds of work have been measured, then reports
// end-to-end rates over the reps' summed time and medians of everything
// else.  Untraced reps give the end-to-end metrics; a traced run pairs
// each untraced rep with a traced rep of the same seed, which gives the
// per-layer metrics and the tracing overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// paper_batch, paper_batch_shard, table_12_3, steady_churn.
[[nodiscard]] const std::vector<std::string>& workload_names();

struct workload_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for checkpoint files and the span dump.
  std::string work_dir;
};

struct metric_value {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct workload_report {
  std::vector<metric_value> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Human-readable lines printed before the result: engine path, checks
  /// that failed, the paper-fidelity table.
  std::vector<std::string> notes;
};

/// Runs one workload.  Output-check failures are counted in the report
/// (never thrown); an unknown workload name throws std::invalid_argument.
[[nodiscard]] workload_report run_workload(const workload_args& args);

}  // namespace perfbench
