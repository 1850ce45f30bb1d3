// Lane-interleaved SIMD allocation kernel: the data-parallel inner loop of
// every frozen-window allocation decision.
//
// One kernel call answers "given a frozen 8-bit load snapshot, allocate
// `balls` two-sample decisions and count the chosen bins" -- the body of a
// shard in the parallel engine and of a whole window in the serial kernel
// engine.  The kernel runs L independent xoshiro256++ *lanes* (lane l is
// seeded derive_seed(seed, l)); ball t belongs to lane t % L, and each ball
// consumes from its lane, in order:
//
//   1. one-or-more raw u64 draws for the first bin index i1 (Lemire
//      multiply-shift with rejection -- unbiased, same accept rule as
//      nb::bounded),
//   2. the same for the second bin index i2,
//   3. exactly one raw u64 draw c for the tie bit.
//
// The decision is the canonical two-sample rule over the snapshot:
// the less loaded of snap[i1]/snap[i2], ties broken by the top bit of c
// (bit set -> i1), and the chosen bin's count is incremented (kernel_run)
// or the chosen bin is handed to the caller (kernel_emit).
//
// CONTRACT (enforced by tests/test_kernel.cpp): the accumulated counts (and
// the emitted bin sequence) are a pure function of (lanes, n, snapshot,
// balls, seed).  The instruction-
// set backend -- scalar, AVX2, AVX-512 or NEON, selected at runtime
// -- is execution only and NEVER affects results; `lanes` is a sampling
// parameter exactly like shard_options::shards (changing it changes which
// lane streams exist and therefore the drawn randomness).
//
// Snapshot gather safety: vector backends read the snapshot 4 bytes at a
// time, so `snap` must stay readable for 3 bytes past index n - 1.
// compact_snapshot allocates exactly this tail padding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace nb {

/// Instruction-set backend of the allocation kernel.  Execution-only:
/// every backend is bit-identical for a fixed lane count.  The numeric
/// values are NOT serialized anywhere (checkpoint fingerprints and the
/// bench JSON both use the names), so the enum may grow freely.
enum class kernel_isa : std::uint8_t {
  scalar = 0,       ///< portable reference (defines the contract)
  avx2 = 2,         ///< 4 lanes per vector + hardware gathers
  avx512 = 3,       ///< 8 lanes per vector, masked rejection replay
  neon = 4,         ///< aarch64 baseline: vector RNG/Lemire, scalar gathers
  auto_detect = 5,  ///< resolve to the best backend this CPU supports
};

/// Ceiling on the lane count (keeps lane state stack-resident; far above
/// any useful configuration -- AVX2 consumes 4 lanes per vector).
inline constexpr std::size_t kernel_max_lanes = 64;

/// Best backend the running CPU supports (never auto_detect).
[[nodiscard]] kernel_isa detect_kernel_isa() noexcept;

/// True when `isa` can execute on this CPU (auto_detect is always true).
[[nodiscard]] bool kernel_isa_supported(kernel_isa isa) noexcept;

/// Maps auto_detect to the detected best backend and downgrades an
/// unsupported request to the best supported one -- legal because the
/// backend never affects results.  The downgrade emits a one-shot
/// warn_once diagnostic (key "kernel-isa-fallback:<name>") so a forced
/// --isa that silently fell back is visible, not just legal.
[[nodiscard]] kernel_isa resolve_kernel_isa(kernel_isa requested) noexcept;

/// "scalar" / "avx2" / "avx512" / "neon" / "auto".
[[nodiscard]] const char* kernel_isa_name(kernel_isa isa) noexcept;

/// Inverse of kernel_isa_name, plus the aliases "simd" (= auto_detect)
/// used by bench CLIs.  nullopt for anything else.
[[nodiscard]] std::optional<kernel_isa> kernel_isa_from_name(std::string_view name) noexcept;

/// Receives kernel_emit's decisions in ball order, one block at a time:
/// chosen[0, count) are the chosen bins of the next `count` balls.  The
/// buffer is reused for the next block once the sink returns.
using kernel_sink = std::function<void(const std::uint32_t* chosen, std::size_t count)>;

/// Per-bin ball counts of one window, a byte wide while no bin reaches
/// 256: bin i holds low[i] + 256 x (its entries in `carries`) + wide[i].
/// A fold that wraps a byte calls carry(i).  While no byte wrapped
/// (`wrapped` false: every bin got fewer than 256 balls) `low` is the
/// count row itself -- a quarter of a uint32 row's bytes, which the random
/// increments and the commit both touch.  Whether a window wraps depends
/// on its sampling, not only its size: at n = b = 10^6 a uniform window
/// never comes near 256 balls in a bin, a zipf:1 window puts about 4,800
/// into bin 0 (the balls that sample it twice).  Memory: `low` holds n
/// bytes; `carries` is added into `wide` whenever it passes n / 4
/// entries, so it stays near n bytes however many balls a window holds;
/// `wide` (4n bytes) is sized by the first window that wraps and is all
/// zero between windows.
struct byte_counts {
  std::vector<std::uint8_t> low;
  std::vector<bin_index> carries;
  std::vector<std::uint32_t> wide;
  /// A byte wrapped since the last reset or widen.
  bool wrapped = false;

  /// Zero counts over n bins.
  void reset(bin_count n);
  /// Records a wrap of low[i] (the fold's rare path).
  void carry(bin_index i);
  /// Moves the counts into `wide` (wide[i] becomes bin i's count) and
  /// zeroes `low`, `carries` and `wrapped`.
  void widen();
};

/// Runs `balls` lane-interleaved decisions against `snap` (n bins, 8-bit
/// offsets, 3 bytes of tail padding) and adds one ball per decision to
/// the chosen bin's count in `counts` (the serial kernel engine's
/// whole-window counts, over n bins: see byte_counts::reset).
void kernel_run(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                byte_counts& counts, step_count balls, std::uint64_t seed);

/// The same decisions as kernel_run, handed to `sink` block by block
/// instead of folded into a row: folding every emitted bin gives
/// kernel_run's counts exactly.  The shard engine partitions them by bin
/// range, so no shard needs a row of its own.
void kernel_emit(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                 step_count balls, std::uint64_t seed, const kernel_sink& sink);

/// Alias-sampled variant (non-uniform bin probabilities): each of a ball's
/// two bin indices is one alias draw -- a Lemire-bounded slot over [n)
/// followed by one raw u64 tested against the slot's 64-bit fixed-point
/// keep-threshold (`thresh[slot]`, else `alias[slot]`; both arrays live in
/// an nb::alias_table).  The decision over the snapshot is unchanged.
/// Same hard contract as kernel_run with the table joining the pure-
/// function inputs: counts depend only on (lanes, n, snap, thresh, alias,
/// balls, seed); backends are bit-identical (AVX2 gathers the tables and
/// the snapshot; NEON vectorizes the draw generation and picks scalar --
/// table lookups without hardware gathers don't pay).
void kernel_run_alias(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                      const std::uint64_t* thresh, const bin_index* alias, byte_counts& counts,
                      step_count balls, std::uint64_t seed);

/// kernel_emit for the alias-sampled decisions of kernel_run_alias.
void kernel_emit_alias(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                       const std::uint64_t* thresh, const bin_index* alias, step_count balls,
                       std::uint64_t seed, const kernel_sink& sink);

}  // namespace nb
