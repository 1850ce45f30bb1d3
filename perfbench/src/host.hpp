// Host and build metadata recorded with every benchmark result, plus the
// process's peak resident memory.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

/// One JSON object: CPU model, nproc, L3 size, the kernel ISA the library
/// resolves, compiler, build type and the huge-page setting.
[[nodiscard]] std::string host_json();

/// Peak resident set size of this process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// CPU time the hypervisor has stolen from this machine so far, summed over
/// all CPUs, in seconds (the "steal" column of /proc/stat; 0 when absent).
[[nodiscard]] double stolen_cpu_s();

/// Worker threads a workload may use: min(4, nproc).
[[nodiscard]] std::size_t bench_threads();

}  // namespace perfbench
