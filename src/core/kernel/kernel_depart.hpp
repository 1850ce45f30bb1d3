// Lane-interleaved SIMD departure kernel: the bulk mirror of the
// allocation kernel for the steady-state churn regime.
//
// One call answers "serve k departure events against a frozen 8-bit load
// snapshot and count the departures per bin" -- the departure half of a
// churn cycle in the serial kernel engine and of a shard's block in the
// parallel engine.  Two channels vectorize (the lease channel is RNG-free
// FIFO ring popping and never needs a kernel):
//
//   * drain -- two-choice in reverse.  Per event, lane l consumes
//     bounded(n), bounded(n) and exactly one raw tie draw, and the FULLER
//     bin by snapshot offset wins (tie bit set -> first index).  That is
//     the allocation kernel's canonical min-select over the byte-INVERTED
//     snapshot (255 - off[i]) with identical tie semantics, so every
//     fill backend -- scalar, AVX2, AVX-512, NEON -- is reused
//     verbatim and cross-backend bit-identity is inherited, not re-proven.
//     At fold time the chosen bin's *remaining* load (snapshot load minus
//     this call's own departures) must still cover the per-ball weight; a
//     drained-dry pick is re-served from a dedicated scalar replay stream
//     (rng_t(derive_seed(seed, lanes)), the stream "one past" the lanes)
//     that redraws (i, j[, tie]) over remaining loads under the serial
//     drain eligibility law, with a deterministic fullest-bin fallback
//     after a bounded attempt budget (contract_error when even that bin
//     cannot cover the weight).
//
//   * random -- a block of k departures is a uniform k-subset of the
//     snapshot's N = n * base + sum(offsets) resident load units (the
//     multivariate hypergeometric law of k serial uniform departures with
//     no arrival in between).  Two exact samplers, selected per block
//     from (n, snapshot, k) alone:
//       - dense, iff N <= 32 k and either alpha < 3/4 and n <= 2 k or
//         alpha < 1/2 and n <= 8 k, alpha = N / (n * B) the rejection
//         sampler's acceptance ratio (B = base + span): one scalar stream
//         rng_t(derive_seed(seed, lanes))
//         -- the stream one past the lanes, like the drain replay -- draws
//         bounded(N) positions into an N-bit bitmap, discarding positions
//         already marked, until k distinct units are marked; when 2k > N
//         it marks the N - k units that STAY instead.  Bin i owns units
//         [l_0 + ... + l_{i-1}, l_0 + ... + l_i), l_i = base + snap[i], and
//         departs its marked units (or l_i minus its marked stayers).
//       - rejection otherwise: the acceptance bound freezes at the
//         snapshot maximum B; per attempt, lane l consumes bounded(n) (a
//         bin j) then bounded(B) (an acceptance draw u), and the attempt
//         serves one departure iff u < remaining(j) -- acceptance against
//         the *remaining* load embeds the capacity check and keeps each
//         departure uniform over the remaining units.  Attempts are
//         consumed in ball order until k are served; the unused tail of
//         the final fixed-size attempt block is discarded (part of the
//         declared draw order).
//     Both retire unit quanta only, like the serial channel, and need
//     k <= N (contract_error otherwise).
//
// CONTRACT (mirroring kernel_run, enforced by tests/test_depart_kernel.cpp): the
// per-bin departure counts are a pure function of (channel, lanes, n,
// snapshot + base, weight, k, seed).  The ISA backend is execution-only
// and bit-identical to the scalar reference; `lanes` is a sampling
// parameter exactly like the allocation kernel's.  The batched draw order
// is deliberately NOT the serial per-event stream (the serial channels
// sample live loads; the kernel samples the frozen snapshot plus its own
// counts) -- batched departures are a declared sampling-contract
// parameter exactly like engine windows and kernel lanes, and the
// per-event serial path in core/process.hpp remains the reference law.
//
// Snapshot gather safety: like kernel_run, `snap` must stay readable for
// compact_snapshot::tail_padding bytes past index n - 1.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "core/kernel/kernel.hpp"

namespace nb {

/// Departure channel served by the kernel.  The numeric values are not
/// serialized anywhere (fingerprints and bench JSON use channel labels).
enum class depart_channel : std::uint8_t {
  random = 0,  ///< a uniformly random resident load unit departs
  drain = 1,   ///< two-choice drain: the fuller of two samples loses one ball
};

/// Serves `k` departures against `snap` (n bins, 8-bit offsets over
/// `snap_base`, `snap_span` = max offset, tail-padded like kernel_run) and
/// accumulates `++rel[chosen]` per departing ball.  `weight_per_ball` is
/// the weight each drain departure retires (deterministic weightings only;
/// must be 1 for the random channel) -- the capacity fold guarantees
/// snap_base + snap[i] - weight_per_ball * rel[i] stays non-negative for
/// every bin, so the caller can apply the counts with
/// load_state::apply_releases unguarded.  The random channel needs
/// k <= the snapshot's resident load.  The uint16 overload is the
/// shard-engine row (caller caps per-call departures like the allocation
/// row cap); the uint32 overload serves whole serial blocks.
void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint16_t* rel, step_count k,
                   std::uint64_t seed);
void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint32_t* rel, step_count k,
                   std::uint64_t seed);

}  // namespace nb
