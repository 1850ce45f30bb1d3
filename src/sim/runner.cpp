#include "sim/runner.hpp"

#include <cmath>

namespace nb {

engine_config engine_config_from_flags(const engine_flag_values& flags) {
  const auto backend = kernel_isa_from_name(flags.kernel);
  NB_REQUIRE(flags.kernel == "off" || backend.has_value(),
             "--kernel must be off, scalar, avx2, avx512, neon, auto or simd");
  NB_REQUIRE(flags.lanes <= static_cast<std::int64_t>(kernel_max_lanes),
             "--lanes must be in [1, kernel_max_lanes]");
  engine_config engine;
  engine.threads_per_run = static_cast<std::size_t>(flags.threads_per_run);
  engine.shards = static_cast<std::size_t>(flags.shards);
  engine.use_kernel = backend.has_value() && engine.threads_per_run == 0;
  engine.lanes = static_cast<std::size_t>(flags.lanes);
  engine.isa = backend.value_or(kernel_isa::auto_detect);
  return engine;
}

summary repeat_result::gap_summary() const {
  std::vector<double> gaps;
  gaps.reserve(runs.size());
  for (const auto& r : runs) gaps.push_back(r.gap);
  return summarize(std::move(gaps));
}

double repeat_result::mean_gap() const {
  if (runs.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& r : runs) acc += r.gap;
  return acc / static_cast<double>(runs.size());
}

repeat_result run_repeated(const std::function<any_process()>& factory, step_count m,
                           const repeat_options& opt) {
  NB_REQUIRE(factory != nullptr, "process factory must not be empty");
  return run_repeated_with(factory, m, opt);
}

}  // namespace nb
