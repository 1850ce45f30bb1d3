#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "noisebalance.hpp"
#include "util/host_info.hpp"
#include "util/hugepage.hpp"
#include "util/perf_counters.hpp"

#ifndef NB_PERFBENCH_BUILD_TYPE
#define NB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string l3_size() {
  std::ifstream sysfs("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string size;
  if (std::getline(sysfs, size) && !size.empty()) return size;
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? std::to_string(bytes / 1024) + "K" : "unknown";
}

}  // namespace

std::size_t bench_threads() {
  return std::min<std::size_t>(nb::detect_host_info().hardware_concurrency, 4);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double stolen_cpu_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return cpu == "cpu" ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

std::string host_json() {
  const nb::host_info host = nb::detect_host_info();
  const nb::perf_counter_set pmu;
  std::string s = "{";
  s += "\"cpu\": \"" + escaped(host.cpu_model) + "\"";
  s += ", \"nproc\": " + std::to_string(host.hardware_concurrency);
  s += ", \"l3\": \"" + escaped(l3_size()) + "\"";
  s += ", \"kernel_isa\": \"" + std::string(nb::kernel_isa_name(nb::detect_kernel_isa())) + "\"";
  s += ", \"compiler\": \"" + escaped(__VERSION__) + "\"";
  s += ", \"build_type\": \"" NB_PERFBENCH_BUILD_TYPE "\"";
  s += std::string(", \"hugepages\": ") + (nb::hugepages_enabled() ? "true" : "false");
  s += std::string(", \"perf_counters\": ") + (pmu.available() ? "true" : "false");
  s += "}";
  return s;
}

}  // namespace perfbench
