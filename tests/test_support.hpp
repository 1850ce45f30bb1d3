// Shared helpers for the noisebalance test suites.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noisebalance.hpp"

namespace nb::testing {

/// Runs `process` for m balls from a fresh RNG with `seed`.
template <allocation_process P>
std::vector<load_t> run_and_snapshot(P process, step_count m, std::uint64_t seed) {
  rng_t rng(seed);
  for (step_count t = 0; t < m; ++t) process.step(rng);
  return process.state().loads();
}

/// Asserts two processes produce *identical* load vectors when driven by
/// identical RNG streams -- the strongest form of process equivalence
/// (same sampling decisions, same entropy consumption, same allocations).
template <allocation_process P1, allocation_process P2>
::testing::AssertionResult traces_identical(P1 a, P2 b, step_count m, std::uint64_t seed) {
  rng_t rng_a(seed);
  rng_t rng_b(seed);
  for (step_count t = 0; t < m; ++t) {
    a.step(rng_a);
    b.step(rng_b);
    if (a.state().loads() != b.state().loads()) {
      return ::testing::AssertionFailure()
             << a.name() << " and " << b.name() << " diverged at step " << (t + 1) << " of " << m;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Mean gap over `runs` independent runs (deterministic given the seed).
template <typename Factory>
double mean_gap_of(Factory&& factory, step_count m, std::size_t runs, std::uint64_t seed) {
  double acc = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    auto process = factory();
    rng_t rng(derive_seed(seed, r));
    acc += simulate(process, m, rng).gap;
  }
  return acc / static_cast<double>(runs);
}

/// Every kernel_isa the dispatch knows (excluding auto_detect), supported
/// or not.
inline const std::vector<kernel_isa>& all_isas() {
  static const std::vector<kernel_isa> isas = {kernel_isa::scalar, kernel_isa::avx2,
                                               kernel_isa::avx512, kernel_isa::neon};
  return isas;
}

/// The targets this machine can execute (scalar always can): the
/// allocation and departure kernels and the window commit pass dispatch
/// on them.
inline std::vector<kernel_isa> supported_isas() {
  std::vector<kernel_isa> isas;
  for (const kernel_isa isa : all_isas()) {
    if (kernel_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Bin counts around the commit pass's vector widths and unrolling, plus
/// a large one that leaves a remainder at every width.
inline std::vector<bin_count> commit_pass_sizes() { return {15, 16, 17, 64, 100003}; }

/// Total number of balls across bins.
inline std::int64_t total_balls(const std::vector<load_t>& loads) {
  std::int64_t sum = 0;
  for (const load_t x : loads) sum += x;
  return sum;
}

}  // namespace nb::testing
