// nb_perfbench: runs one benchmark workload and prints its metrics.
//
//   nb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --work-dir <dir>
//
// Prints host metadata, the engine path, check failures and every metric
// by name with its unit, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Exits 1 when an output check failed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::fprintf(stderr, "nb_perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: nb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\nworkloads:");
  for (const auto& name : perfbench::workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::workload_args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    return usage("--workload and --work-dir are required");
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return usage("unknown workload '" + args.workload + "'");
  }
  std::filesystem::create_directories(args.work_dir);

  std::printf("host %s\n", perfbench::host_json().c_str());
  const perfbench::workload_report report = perfbench::run_workload(args);
  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());
  std::string metrics;
  for (const auto& m : report.metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char buf[256];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  return report.failed == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
