// Runtime ISA dispatch and the block driver of the allocation kernel.
//
// The driver owns everything backend-independent: lane-state setup, the
// Lemire threshold hoist, cutting the run into L1-resident blocks (always
// at multiples of the lane count, so every backend sees the same aligned
// lane rotation), and handing each decided block on: kernel_run folds it
// into the caller's count row, kernel_emit passes it to the caller's sink.
// Backends only fill the block's chosen-bin buffer.
//
// The fold is where the kernel meets the memory wall at paper scale: one
// random read-modify-write per ball.  It counts in bytes (byte_counts), so
// at n = 10^6 the row is 1 MB and shares the L2 with the 1 MB snapshot the
// backends gather from; a 4 MB uint32 row did not fit next to it.  The
// fold issues no software prefetch: the byte row mostly hits the L2, and
// a prefetch a fixed distance ahead measured slower than none even on the
// uint32 row.
#include "core/kernel/kernel.hpp"

#include <string>

#include "core/kernel/kernel_common.hpp"

namespace nb {
namespace {

/// Chosen-bin buffer capacity per block: 32 KiB, L1-resident alongside the
/// lane state, and a multiple of every legal lane count's round size after
/// the driver rounds it down.
constexpr std::size_t kBlockBalls = 8192;
static_assert(kBlockBalls % kernel_max_lanes == 0);

kernel_detail::fill_fn pick_fill(kernel_isa resolved) noexcept {
  switch (resolved) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return kernel_detail::fill_avx2;
    case kernel_isa::avx512:
      return kernel_detail::fill_avx512;
#endif
#if defined(__aarch64__)
    case kernel_isa::neon:
      return kernel_detail::fill_neon;
#endif
    default:
      return kernel_detail::fill_scalar;
  }
}

/// Folds one decided block into the caller's byte counts.
void fold_block(byte_counts& counts, const std::uint32_t* chosen, std::size_t count) {
  std::uint8_t* low = counts.low.data();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t c = chosen[i];
    if (++low[c] == 0) [[unlikely]] counts.carry(c);
  }
}

/// The block loop shared by every entry point: `fill(state, threshold,
/// chosen, count)` decides the next `count` balls into `chosen`, and
/// `emit(chosen, count)` consumes them before the next block overwrites
/// the buffer.
template <typename Fill, typename Emit>
void drive(std::size_t lanes, bin_count n, step_count balls, std::uint64_t seed, const Fill& fill,
           const Emit& emit) {
  NB_REQUIRE(lanes >= 1 && lanes <= kernel_max_lanes, "kernel lanes must be in [1, 64]");
  NB_REQUIRE(n >= 1, "kernel needs at least one bin");
  NB_ASSERT(balls >= 0);
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t threshold = kernel_detail::lemire_threshold(n);
  const std::size_t block = (kBlockBalls / lanes) * lanes;  // multiple of the lane count
  alignas(64) std::uint32_t chosen[kBlockBalls];
  while (balls > 0) {
    const std::size_t count =
        balls < static_cast<step_count>(block) ? static_cast<std::size_t>(balls) : block;
    fill(state, threshold, chosen, count);
    emit(static_cast<const std::uint32_t*>(chosen), count);
    balls -= static_cast<step_count>(count);
  }
}

kernel_detail::fill_alias_fn pick_fill_alias(kernel_isa resolved) noexcept {
  switch (resolved) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return kernel_detail::fill_alias_avx2;
    case kernel_isa::avx512:
      return kernel_detail::fill_alias_avx512;
#endif
#if defined(__aarch64__)
    case kernel_isa::neon:
      return kernel_detail::fill_alias_neon;
#endif
    default:
      return kernel_detail::fill_alias_scalar;
  }
}

template <typename Emit>
void run_uniform(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                 step_count balls, std::uint64_t seed, const Emit& emit) {
  NB_ASSERT(snap != nullptr);
  const kernel_detail::fill_fn fill = pick_fill(resolve_kernel_isa(isa));
  drive(lanes, n, balls, seed,
        [&](kernel_detail::lane_soa& state, std::uint64_t threshold, std::uint32_t* chosen,
            std::size_t count) { fill(state, n, threshold, snap, chosen, count); },
        emit);
}

template <typename Emit>
void run_alias(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
               const std::uint64_t* thresh, const bin_index* alias, step_count balls,
               std::uint64_t seed, const Emit& emit) {
  NB_ASSERT(snap != nullptr && thresh != nullptr && alias != nullptr);
  const kernel_detail::fill_alias_fn fill = pick_fill_alias(resolve_kernel_isa(isa));
  drive(lanes, n, balls, seed,
        [&](kernel_detail::lane_soa& state, std::uint64_t threshold, std::uint32_t* chosen,
            std::size_t count) { fill(state, n, threshold, snap, thresh, alias, chosen, count); },
        emit);
}

}  // namespace

kernel_isa detect_kernel_isa() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // AVX-512 gating: F (foundation) + DQ/BW/VL for the 64-bit mask
  // compares, narrowing converts and 256-bit masked blends the backend
  // uses -- the Skylake-SP+ server baseline.  CPUs with exotic partial
  // AVX-512 subsets fall back to AVX2.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")) {
    return kernel_isa::avx512;
  }
  if (__builtin_cpu_supports("avx2")) return kernel_isa::avx2;
#elif defined(__aarch64__)
  return kernel_isa::neon;  // AdvSIMD is architecturally mandatory on aarch64
#endif
  return kernel_isa::scalar;
}

bool kernel_isa_supported(kernel_isa isa) noexcept {
  switch (isa) {
    case kernel_isa::scalar:
    case kernel_isa::auto_detect:
      return true;
    case kernel_isa::avx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case kernel_isa::avx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 && __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
    case kernel_isa::neon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

kernel_isa resolve_kernel_isa(kernel_isa requested) noexcept {
  if (requested == kernel_isa::auto_detect) return detect_kernel_isa();
  if (kernel_isa_supported(requested)) return requested;
  // Unsupported explicit request: downgrade to the best available backend.
  // Legal because backends are bit-identical -- but an explicitly forced
  // backend falling back is usually a misconfigured bench or CI job, so
  // say it once instead of silently benchmarking the wrong ISA.
  const kernel_isa best = detect_kernel_isa();
  warn_once(std::string("kernel-isa-fallback:") + kernel_isa_name(requested),
            std::string("requested kernel ISA '") + kernel_isa_name(requested) +
                "' is not supported on this CPU; falling back to '" + kernel_isa_name(best) +
                "' (results are bit-identical across backends)");
  return best;
}

const char* kernel_isa_name(kernel_isa isa) noexcept {
  switch (isa) {
    case kernel_isa::scalar:
      return "scalar";
    case kernel_isa::avx2:
      return "avx2";
    case kernel_isa::avx512:
      return "avx512";
    case kernel_isa::neon:
      return "neon";
    case kernel_isa::auto_detect:
      return "auto";
  }
  return "unknown";
}

std::optional<kernel_isa> kernel_isa_from_name(std::string_view name) noexcept {
  if (name == "scalar") return kernel_isa::scalar;
  if (name == "avx2") return kernel_isa::avx2;
  if (name == "avx512") return kernel_isa::avx512;
  if (name == "neon") return kernel_isa::neon;
  if (name == "auto" || name == "simd") return kernel_isa::auto_detect;
  return std::nullopt;
}

void byte_counts::reset(bin_count n) {
  low.assign(n, 0);
  carries.clear();
  if (!wide.empty()) wide.assign(n, 0);
  wrapped = false;
}

void byte_counts::carry(bin_index i) {
  wrapped = true;
  carries.push_back(i);
  if (carries.size() > low.size() / 4) {
    if (wide.size() != low.size()) wide.assign(low.size(), 0);
    for (const bin_index c : carries) wide[c] += 256;
    carries.clear();
  }
}

void byte_counts::widen() {
  const std::size_t n = low.size();
  if (wide.size() != n) wide.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    wide[i] += low[i];
    low[i] = 0;
  }
  for (const bin_index c : carries) wide[c] += 256;
  carries.clear();
  wrapped = false;
}

void kernel_run(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                byte_counts& counts, step_count balls, std::uint64_t seed) {
  NB_REQUIRE(counts.low.size() == n, "kernel counts must hold one entry per bin");
  run_uniform(isa, lanes, n, snap, balls, seed,
              [&counts](const std::uint32_t* chosen, std::size_t count) {
                fold_block(counts, chosen, count);
              });
}

void kernel_emit(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                 step_count balls, std::uint64_t seed, const kernel_sink& sink) {
  run_uniform(isa, lanes, n, snap, balls, seed, sink);
}

void kernel_run_alias(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                      const std::uint64_t* thresh, const bin_index* alias, byte_counts& counts,
                      step_count balls, std::uint64_t seed) {
  NB_REQUIRE(counts.low.size() == n, "kernel counts must hold one entry per bin");
  run_alias(isa, lanes, n, snap, thresh, alias, balls, seed,
            [&counts](const std::uint32_t* chosen, std::size_t count) {
              fold_block(counts, chosen, count);
            });
}

void kernel_emit_alias(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                       const std::uint64_t* thresh, const bin_index* alias, step_count balls,
                       std::uint64_t seed, const kernel_sink& sink) {
  run_alias(isa, lanes, n, snap, thresh, alias, balls, seed, sink);
}

}  // namespace nb
