// Block driver of the departure kernel (see kernel_depart.hpp for the
// channel laws and the sampling contract).
//
// The driver owns everything backend-independent, mirroring kernel.cpp:
// lane-state setup, threshold hoists, cutting the run into L1-resident
// blocks at lane-count multiples, and folding decided events into the
// caller's departure-count row.  The fold is also where departures differ
// from arrivals: counts must never overdraw a bin, so the drain fold
// checks the chosen bin's remaining load per event (replaying drained-dry
// picks on a dedicated scalar stream) and the random fold folds the
// capacity check into the acceptance test itself.  The random channel
// also has a second, exact sampler for sparse snapshots, selected per
// block (see dense_random_preferred).
#include "core/kernel/kernel_depart.hpp"

#include <string>
#include <vector>

#include "core/kernel/kernel_common.hpp"
#include "core/load_vector.hpp"

namespace nb {
namespace {

/// Same L1-resident block capacity as the allocation driver.
constexpr std::size_t kBlockBalls = 8192;
static_assert(kBlockBalls % kernel_max_lanes == 0);

/// Replay attempts before the drain fold falls back to the deterministic
/// fullest-bin scan.  Generous: a redraw only fails while nearly every
/// sampled pair is drained dry, so hitting the cap at all means the block
/// is retiring a large fraction of the snapshot's total load.
constexpr int kDrainReplayAttempts = 4096;

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

kernel_detail::fill_pair_fn pick_fill_pair(kernel_isa resolved) noexcept {
  switch (resolved) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return kernel_detail::fill_pair_avx2;
    case kernel_isa::avx512:
      return kernel_detail::fill_pair_avx512;
#endif
    // aarch64 deliberately lands on the scalar reference (see the note in
    // kernel_common.hpp) -- bit-identical by contract.
    default:
      return kernel_detail::fill_pair_scalar;
  }
}

/// Drain: fill backends decide "fuller of two snapshot samples" over the
/// byte-inverted snapshot; the fold retires weight w per event with a
/// per-event remaining-capacity check.
template <typename Row>
void depart_drain(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                  load_t snap_base, weight_t w, Row* rel, step_count k, std::uint64_t seed) {
  const kernel_detail::fill_fn fill = pick_fill(resolve_kernel_isa(isa));
  const kernel_tuning tune = current_kernel_tuning();
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t threshold = kernel_detail::lemire_threshold(n);

  // Byte-inverted snapshot: max-select over off[] IS the canonical
  // min-select over 255 - off[] with identical tie semantics, so the
  // allocation fill backends serve drain verbatim.  Thread-local so shard
  // tasks reuse their buffer across windows; the tail padding stays
  // readable for the vector gathers, its values are never used.
  thread_local std::vector<std::uint8_t> inv;
  inv.resize(static_cast<std::size_t>(n) + compact_snapshot::tail_padding);
  for (bin_count i = 0; i < n; ++i) inv[i] = static_cast<std::uint8_t>(255 - snap[i]);
  for (std::size_t p = n; p < inv.size(); ++p) inv[p] = 0;

  // Dedicated scalar stream for drained-dry picks: lane streams occupy
  // derive_seed(seed, 0..lanes-1), so the replay stream is the next one.
  xoshiro256pp replay(derive_seed(seed, lanes));

  const auto remaining = [&](std::uint32_t c) noexcept -> weight_t {
    return static_cast<weight_t>(snap_base) + snap[c] - static_cast<weight_t>(rel[c]) * w;
  };
  const auto replay_one = [&]() {
    for (int attempt = 0; attempt < kDrainReplayAttempts; ++attempt) {
      const auto i = static_cast<std::uint32_t>(bounded(replay, n));
      const auto j = static_cast<std::uint32_t>(bounded(replay, n));
      const weight_t ri = remaining(i);
      const weight_t rj = remaining(j);
      // Serial drain's eligibility and selection laws, over remaining load.
      if (ri < w && rj < w) continue;
      std::uint32_t c;
      if (ri != rj) {
        c = ri > rj ? i : j;
      } else {
        c = (replay.next() >> 63) != 0 ? i : j;
      }
      ++rel[c];
      return;
    }
    // Deterministic fallback: the fullest remaining bin, first index wins.
    std::uint32_t best = 0;
    weight_t best_rem = remaining(0);
    for (bin_count i = 1; i < n; ++i) {
      const weight_t r = remaining(i);
      if (r > best_rem) {
        best = i;
        best_rem = r;
      }
    }
    NB_REQUIRE(best_rem >= w, "drain departure block cannot retire weight " + std::to_string(w) +
                                  ": no bin's remaining load covers it");
    ++rel[best];
  };

  const std::size_t block = (kBlockBalls / lanes) * lanes;
  alignas(64) std::uint32_t chosen[kBlockBalls];
  while (k > 0) {
    const std::size_t count =
        k < static_cast<step_count>(block) ? static_cast<std::size_t>(k) : block;
    fill(state, n, threshold, inv.data(), chosen, count, tune);
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint32_t c = chosen[t];
      if (remaining(c) >= w) {
        ++rel[c];
      } else {
        replay_one();
      }
    }
    k -= static_cast<step_count>(count);
  }
}

/// Random: the pair fill bulk-generates (bin, acceptance) attempt pairs;
/// the fold serves an attempt iff its acceptance draw lands under the
/// bin's remaining load, until k departures are served.
template <typename Row>
void depart_random(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                   load_t snap_base, std::uint8_t snap_span, Row* rel, step_count k,
                   std::uint64_t seed) {
  // Frozen acceptance bound: the snapshot maximum.  load_t is 32-bit, so
  // base + span always fits the pair fill's < 2^32 bound contract.
  const std::uint64_t bound = static_cast<std::uint64_t>(snap_base) + snap_span;
  NB_REQUIRE(bound >= 1, "random departure kernel needs resident load in the snapshot");
  const kernel_detail::fill_pair_fn fill = pick_fill_pair(resolve_kernel_isa(isa));
  const kernel_tuning tune = current_kernel_tuning();
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t thresh_n = kernel_detail::lemire_threshold(n);
  const std::uint64_t thresh_b = kernel_detail::lemire_threshold(bound);
  const std::size_t block = (kBlockBalls / lanes) * lanes;
  alignas(64) std::uint32_t idx[kBlockBalls];
  alignas(64) std::uint32_t acc[kBlockBalls];
  while (k > 0) {
    // Full fixed-size attempt blocks until k departures are served; the
    // final block's unused tail is discarded (declared draw order).
    fill(state, n, thresh_n, bound, thresh_b, idx, acc, block, tune);
    for (std::size_t t = 0; t < block && k > 0; ++t) {
      const std::uint32_t j = idx[t];
      const weight_t rem =
          static_cast<weight_t>(snap_base) + snap[j] - static_cast<weight_t>(rel[j]);
      if (rem > 0 && static_cast<weight_t>(acc[t]) < rem) {
        ++rel[j];
        --k;
      }
    }
  }
}

/// Resident load units in the snapshot: N = n * base + sum of offsets.
/// At most 2^32 * (2^31 + 255) < 2^64, so it fits unsigned 64-bit.
std::uint64_t resident_units(bin_count n, const std::uint8_t* snap, load_t snap_base) noexcept {
  std::uint64_t offsets = 0;
  for (bin_count i = 0; i < n; ++i) offsets += snap[i];
  return static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(snap_base) + offsets;
}

/// Sampler selection for a random block of k departures over N resident
/// units.  The rejection kernel pays about 1/alpha attempts per
/// departure, alpha = N / (n * B) its acceptance ratio (B = base + span,
/// the frozen bound), each attempt two random accesses and a
/// mispredicted branch.  The dense sampler pays about 1.4 draws per
/// departure into an N-bit bitmap plus one pass over n bins and N/64
/// words, so it loses once a block is short against n or N.  Dense iff
///   N <= 32 k  and  (alpha < 3/4 and n <= 2 k  or  alpha < 1/2 and n <= 8 k),
/// alpha compared as 4 N < 3 n B and 2 N < n B in 128-bit.  The constants
/// come from a measured crossover (README, "Steady-state churn") and leave
/// the rejection kernel every measured shape where it was faster.
bool dense_random_preferred(bin_count n, load_t snap_base, std::uint8_t snap_span,
                            std::uint64_t units, step_count k) noexcept {
  using u128 = unsigned __int128;
  const u128 capacity = static_cast<u128>(n) * (static_cast<std::uint64_t>(snap_base) + snap_span);
  const u128 resident = units;
  const auto block = static_cast<u128>(k);
  if (resident > 32 * block) return false;
  return (4 * resident < 3 * capacity && n <= 2 * block) ||
         (2 * resident < capacity && n <= 8 * block);
}

/// Population count by SWAR arithmetic: portable builds target baseline
/// x86-64, where std::popcount lowers to a libgcc call.
constexpr std::uint64_t popcount64(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

/// Random, dense exact sampler: a block of k random departures is a
/// uniform k-subset of the snapshot's N resident load units (bin i owns
/// units [sum_{j<i} l_j, sum_{j<=i} l_j), l_i = base + snap[i]).  One
/// scalar stream rng_t(derive_seed(seed, lanes)) draws bounded(N)
/// positions into an N-bit bitmap, discarding positions already marked,
/// until k distinct units are marked -- or, when 2k > N, until the N - k
/// units that STAY are marked.  One sequential pass then counts each
/// bin's marked units (stayers subtracted from l_i in the complement
/// case).  Capacity holds by construction: rel[i] <= l_i.
template <typename Row>
void depart_random_dense(std::size_t lanes, bin_count n, const std::uint8_t* snap,
                         load_t snap_base, std::uint64_t units, Row* rel, step_count k,
                         std::uint64_t seed) {
  const auto departing = static_cast<std::uint64_t>(k);
  const bool complement = 2 * departing > units;
  const std::uint64_t marks = complement ? units - departing : departing;

  // Thread-local like the drain snapshot inversion.  The padding word
  // keeps the count pass's read at position N in bounds.
  thread_local std::vector<std::uint64_t> bitmap;
  thread_local std::vector<std::uint32_t> below_word;
  const std::size_t words = static_cast<std::size_t>(units / 64) + 1;
  bitmap.assign(words, 0);
  below_word.resize(words);
  std::uint64_t* bits = bitmap.data();

  // Rounds of exactly (marks - marked) draws: a round can at most reach
  // `marks`, so it consumes the same draws as stopping at the first draw
  // that does, and its loads carry no dependence into the loop control.
  xoshiro256pp rng(derive_seed(seed, lanes));
  std::uint64_t marked = 0;
  while (marked < marks) {
    for (std::uint64_t d = marks - marked; d > 0; --d) {
      const std::uint64_t p = bounded(rng, units);
      const std::uint64_t bit = std::uint64_t{1} << (p & 63);
      std::uint64_t& word = bits[p >> 6];
      marked += (word & bit) == 0 ? 1 : 0;
      word |= bit;
    }
  }

  // Count pass, branch-free per bin: with M(x) = marked units below
  // position x, bin i holds M(end_i) - M(end_{i-1}).  M comes from a
  // per-word prefix table plus one masked popcount.  Both run mod 2^32,
  // which is exact because no bin holds 2^32 units.
  std::uint32_t running = 0;
  for (std::size_t w = 0; w < words; ++w) {
    below_word[w] = running;
    running += static_cast<std::uint32_t>(popcount64(bits[w]));
  }
  const auto base = static_cast<std::uint64_t>(snap_base);
  std::uint64_t end = 0;
  std::uint32_t below_prev = 0;
  for (bin_count i = 0; i < n; ++i) {
    const std::uint64_t len = base + snap[i];
    end += len;
    const std::uint64_t low_bits = (std::uint64_t{1} << (end & 63)) - 1;
    const std::uint32_t below =
        below_word[end >> 6] + static_cast<std::uint32_t>(popcount64(bits[end >> 6] & low_bits));
    const std::uint32_t hit = below - below_prev;
    below_prev = below;
    rel[i] = static_cast<Row>(rel[i] + (complement ? static_cast<std::uint32_t>(len) - hit : hit));
  }
}

template <typename Row>
void depart_impl(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                 const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                 weight_t weight_per_ball, Row* rel, step_count k, std::uint64_t seed) {
  NB_REQUIRE(lanes >= 1 && lanes <= kernel_max_lanes, "kernel lanes must be in [1, 64]");
  NB_REQUIRE(n >= 1, "kernel needs at least one bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  NB_ASSERT(k >= 0 && snap != nullptr && rel != nullptr);
  switch (channel) {
    case depart_channel::drain:
      depart_drain(isa, lanes, n, snap, snap_base, weight_per_ball, rel, k, seed);
      return;
    case depart_channel::random: {
      NB_REQUIRE(weight_per_ball == 1, "the random departure channel retires unit quanta");
      const std::uint64_t units = resident_units(n, snap, snap_base);
      NB_REQUIRE(units >= 1, "random departure kernel needs resident load in the snapshot");
      NB_REQUIRE(static_cast<std::uint64_t>(k) <= units,
                 "random departure block of " + std::to_string(k) + " events exceeds the " +
                     std::to_string(units) + " resident load units in the snapshot");
      if (dense_random_preferred(n, snap_base, snap_span, units, k)) {
        depart_random_dense(lanes, n, snap, snap_base, units, rel, k, seed);
      } else {
        depart_random(isa, lanes, n, snap, snap_base, snap_span, rel, k, seed);
      }
      return;
    }
  }
}

}  // namespace

void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint16_t* rel, step_count k,
                   std::uint64_t seed) {
  depart_impl(isa, lanes, channel, n, snap, snap_base, snap_span, weight_per_ball, rel, k, seed);
}

void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint32_t* rel, step_count k,
                   std::uint64_t seed) {
  depart_impl(isa, lanes, channel, n, snap, snap_base, snap_span, weight_per_ball, rel, k, seed);
}

}  // namespace nb
