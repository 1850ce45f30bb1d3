// The lane-interleaved SIMD departure kernel (core/kernel/kernel_depart)
// and its contract: per-bin departure counts are a pure function of
// (channel, lanes, n, snapshot, weight, k, seed) -- the ISA backend is
// execution-only and NEVER affects results.  Mirroring test_kernel.cpp,
// the suite pins
//   (1) the scalar backend of both channels to an independently written
//       replay of the documented draw order (drain: bounded(n) pairs plus
//       a raw tie draw, fuller-by-snapshot wins, drained-dry picks
//       re-served from the dedicated replay stream; random: bounded(n) /
//       bounded(B) attempt pairs accepted against remaining load, or, on
//       sparse snapshots, the dense sampler's distinct bounded(N) unit
//       positions with the complement branch), the sampler selection on
//       each side of every boundary, and the random channel's law (the
//       multivariate hypergeometric) on both samplers,
//   (2) every vector backend to the scalar backend, bit for bit,
//       including the drain replay/fallback path and multi-block runs,
//   (3) the capacity guarantee (no bin is ever overdrawn) and the count
//       sum, so commit via load_state::apply_releases never trips,
//   (4) golden FNV values per channel (and per random sampler) so the
//       sampling contract cannot drift silently between releases,
//   (5) the engines' batched-departure routing: ISA- and thread-count
//       invariance, the bulk lease pop, and the warn_once diagnostics on
//       every silent serial fallback (no commit_departures, undersized
//       block, span-saturated snapshot).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/kernel/kernel_common.hpp"
#include "test_support.hpp"

namespace {

using namespace nb;

using nb::testing::all_isas;
using nb::testing::supported_isas;

/// The allocation suite's snapshot shape (offsets cycle 0..4, padded for
/// the vector gathers) -- plenty of ties for the drain tie-break.
std::vector<std::uint8_t> make_snapshot(bin_count n) {
  std::vector<std::uint8_t> snap(static_cast<std::size_t>(n) + compact_snapshot::tail_padding, 0);
  for (bin_count i = 0; i < n; ++i) snap[i] = static_cast<std::uint8_t>(i % 5);
  return snap;
}

std::uint8_t span_of(const std::vector<std::uint8_t>& snap, bin_count n) {
  std::uint8_t mx = 0;
  for (bin_count i = 0; i < n; ++i) mx = snap[i] > mx ? snap[i] : mx;
  return mx;
}

std::vector<std::uint32_t> depart_counts(kernel_isa isa, std::size_t lanes,
                                         depart_channel channel, bin_count n,
                                         const std::vector<std::uint8_t>& snap, load_t base,
                                         weight_t w, step_count k, std::uint64_t seed) {
  std::vector<std::uint32_t> rel(n, 0);
  kernel_depart(isa, lanes, channel, n, snap.data(), base, span_of(snap, n), w, rel.data(), k,
                seed);
  return rel;
}

// ---------------------------------------------------------------------------
// (1) The scalar backend vs independent replays of the documented laws.

/// An independent replay of the drain channel: per-lane xoshiro streams,
/// ball t uses lane t % lanes and draws bounded(n), bounded(n), one raw
/// tie word; the FULLER bin by snapshot offset wins (tie bit set -> first
/// index).  Drained-dry picks re-serve from rng_t(derive_seed(seed,
/// lanes)) under the serial eligibility law over remaining load, with the
/// deterministic fullest-bin fallback.  Valid for k within one fill block
/// of the driver (lane rotation restarts per block).
std::vector<std::uint32_t> drain_reference(std::size_t lanes, bin_count n,
                                           const std::vector<std::uint8_t>& snap, load_t base,
                                           weight_t w, step_count k, std::uint64_t seed) {
  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < lanes; ++l) lane_rng.emplace_back(derive_seed(seed, l));
  rng_t replay(derive_seed(seed, lanes));
  std::vector<std::uint32_t> rel(n, 0);
  const auto remaining = [&](std::uint32_t c) {
    return static_cast<weight_t>(base) + snap[c] - static_cast<weight_t>(rel[c]) * w;
  };
  const auto replay_one = [&] {
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const auto i = static_cast<std::uint32_t>(bounded(replay, n));
      const auto j = static_cast<std::uint32_t>(bounded(replay, n));
      const weight_t ri = remaining(i);
      const weight_t rj = remaining(j);
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
    std::uint32_t best = 0;
    weight_t best_rem = remaining(0);
    for (bin_count i = 1; i < n; ++i) {
      if (remaining(i) > best_rem) {
        best = i;
        best_rem = remaining(i);
      }
    }
    ++rel[best];
  };
  for (step_count t = 0; t < k; ++t) {
    rng_t& rng = lane_rng[static_cast<std::size_t>(t) % lanes];
    const auto i1 = static_cast<std::uint32_t>(bounded(rng, n));
    const auto i2 = static_cast<std::uint32_t>(bounded(rng, n));
    const std::uint64_t c = rng.next();
    const std::uint32_t chosen = snap[i1] > snap[i2]   ? i1
                                 : snap[i2] > snap[i1] ? i2
                                 : ((c >> 63) != 0 ? i1 : i2);
    if (remaining(chosen) >= w) {
      ++rel[chosen];
    } else {
      replay_one();
    }
  }
  return rel;
}

TEST(DepartKernel, ScalarDrainMatchesDocumentedDrawOrder) {
  // base 12 over 97 bins: k = 1003 retires ~74% of the snapshot's total
  // load, so the fold's remaining-capacity check and the replay stream
  // are exercised heavily, not just the happy path.
  const bin_count n = 97;
  const std::size_t lanes = 4;
  const step_count k = 1003;
  const auto snap = make_snapshot(n);
  const auto expected = drain_reference(lanes, n, snap, 12, 1, k, 77);
  EXPECT_EQ(depart_counts(kernel_isa::scalar, lanes, depart_channel::drain, n, snap, 12, 1, k, 77),
            expected);
  EXPECT_EQ(std::accumulate(expected.begin(), expected.end(), std::int64_t{0}), k);
}

TEST(DepartKernel, ScalarWeightedDrainMatchesDocumentedDrawOrder) {
  // Fixed per-ball weight 3: eligibility, the remaining fold and the
  // capacity guarantee all scale by w.
  const bin_count n = 16;
  const std::size_t lanes = 3;
  const step_count k = 120;
  const auto snap = make_snapshot(n);
  const auto expected = drain_reference(lanes, n, snap, 30, 3, k, 5);
  const auto got =
      depart_counts(kernel_isa::scalar, lanes, depart_channel::drain, n, snap, 30, 3, k, 5);
  EXPECT_EQ(got, expected);
  for (bin_count i = 0; i < n; ++i) {
    EXPECT_LE(static_cast<weight_t>(got[i]) * 3, static_cast<weight_t>(30) + snap[i])
        << "bin " << i << " overdrawn";
  }
}

/// An independent replay of the random channel's rejection sampler: per
/// attempt, lane t % lanes draws bounded(n) (a bin) then bounded(B)
/// (acceptance, B frozen at base + span); the attempt serves iff the draw
/// lands under the bin's remaining load.  Valid within one attempt block
/// of the driver; `attempts` reports how many the replay used.
std::vector<std::uint32_t> rejection_reference(std::size_t lanes, bin_count n,
                                               const std::vector<std::uint8_t>& snap,
                                               load_t base, step_count k, std::uint64_t seed,
                                               std::size_t& attempts) {
  const std::uint64_t bound = static_cast<std::uint64_t>(base) + span_of(snap, n);
  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < lanes; ++l) lane_rng.emplace_back(derive_seed(seed, l));
  std::vector<std::uint32_t> rel(n, 0);
  step_count served = 0;
  attempts = 0;
  while (served < k) {
    rng_t& rng = lane_rng[attempts % lanes];
    const auto j = static_cast<std::uint32_t>(bounded(rng, n));
    const auto u = static_cast<weight_t>(bounded(rng, bound));
    const weight_t rem = static_cast<weight_t>(base) + snap[j] - rel[j];
    if (rem > 0 && u < rem) {
      ++rel[j];
      ++served;
    }
    ++attempts;
  }
  return rel;
}

/// An independent replay of the random channel's dense sampler: one
/// scalar stream rng_t(derive_seed(seed, lanes)) draws bounded(N) unit
/// positions, skipping repeats, until k distinct units are chosen -- or,
/// when 2k > N, until the N - k units that STAY are chosen.  Unit u
/// belongs to the bin whose cumulative-load range holds it.
std::vector<std::uint32_t> dense_reference(std::size_t lanes, bin_count n,
                                           const std::vector<std::uint8_t>& snap, load_t base,
                                           step_count k, std::uint64_t seed) {
  std::vector<std::uint64_t> ends;
  std::uint64_t total = 0;
  for (bin_count i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(base) + snap[i];
    ends.push_back(total);
  }
  const bool stay = 2 * static_cast<std::uint64_t>(k) > total;
  const std::uint64_t picks = stay ? total - static_cast<std::uint64_t>(k) : k;
  rng_t rng(derive_seed(seed, lanes));
  std::set<std::uint64_t> chosen;
  while (chosen.size() < picks) chosen.insert(bounded(rng, total));
  std::vector<std::uint32_t> rel(n, 0);
  for (const std::uint64_t u : chosen) {
    ++rel[std::upper_bound(ends.begin(), ends.end(), u) - ends.begin()];
  }
  if (stay) {
    for (bin_count i = 0; i < n; ++i) rel[i] = static_cast<std::uint32_t>(base + snap[i]) - rel[i];
  }
  return rel;
}

TEST(DepartKernel, ScalarRandomMatchesDocumentedDrawOrder) {
  // The rejection sampler (base >> k keeps the acceptance ratio near 1).
  // The replay is valid within one attempt block; at this acceptance
  // that holds by a mile.
  const bin_count n = 97;
  const std::size_t lanes = 4;
  const step_count k = 1000;
  const load_t base = 10000;
  const auto snap = make_snapshot(n);
  std::size_t attempts = 0;
  const auto expected = rejection_reference(lanes, n, snap, base, k, 123, attempts);
  ASSERT_LT(attempts, 8000u) << "reference must stay within one attempt block";

  EXPECT_EQ(
      depart_counts(kernel_isa::scalar, lanes, depart_channel::random, n, snap, base, 1, k, 123),
      expected);
}

TEST(DepartKernel, ScalarDenseRandomMatchesDocumentedDrawOrder) {
  // Sparse snapshots take the dense sampler: distinct bounded(N) unit
  // positions on the stream one past the lanes, the complement branch
  // when 2k > N, and a per-bin count over cumulative load ranges.
  const bin_count n = 97;
  // Base 0 under the cyclic offsets: average load ~2 against a bound of
  // 4 (acceptance ratio ~1/2), N = 191.
  const auto snap = make_snapshot(n);
  step_count total = 0;
  for (bin_count i = 0; i < n; ++i) total += snap[i];
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const step_count k : {step_count{40}, step_count{95}, step_count{150}, total}) {
      const auto expected = dense_reference(lanes, n, snap, 0, k, 99);
      EXPECT_EQ(std::accumulate(expected.begin(), expected.end(), std::int64_t{0}), k);
      EXPECT_EQ(depart_counts(kernel_isa::scalar, lanes, depart_channel::random, n, snap, 0, 1, k,
                              99),
                expected)
          << "lanes=" << lanes << " k=" << k;
    }
  }
  // Bins wider than a bitmap word: one bin in seven holds 200 units
  // (N = 1600 over 50 bins, acceptance ratio 0.16).
  std::vector<std::uint8_t> wide(50 + compact_snapshot::tail_padding, 0);
  for (bin_count i = 0; i < 50; i += 7) wide[i] = 200;
  for (const step_count k : {step_count{100}, step_count{1000}}) {
    EXPECT_EQ(depart_counts(kernel_isa::scalar, 8, depart_channel::random, 50, wide, 0, 1, k, 7),
              dense_reference(8, 50, wide, 0, k, 7))
        << "k=" << k;
  }
}

TEST(DepartKernel, RandomSamplerSelectionBoundaries) {
  // Dense iff N <= 32 k and (4 N < 3 n B and n <= 2 k, or 2 N < n B and
  // n <= 8 k).  Each pair below sits on both sides of one condition with
  // the others satisfied; the counts must match the replay of the side's
  // sampler, and the two replays must differ so the check has teeth.
  struct side {
    std::vector<std::uint8_t> offsets;
    step_count k;
    bool dense;
  };
  const auto repeat = [](const std::vector<std::uint8_t>& pattern, std::size_t times) {
    std::vector<std::uint8_t> offsets;
    for (std::size_t t = 0; t < times; ++t) {
      offsets.insert(offsets.end(), pattern.begin(), pattern.end());
    }
    return offsets;
  };
  // One unit per bin under a single 4-unit peak: acceptance ratio ~1/4.
  const auto flat = [](std::size_t bins) {
    std::vector<std::uint8_t> offsets(bins, 1);
    offsets[0] = 4;
    return offsets;
  };
  auto just_under_half = repeat({4, 0}, 20);
  just_under_half[38] = 3;
  const std::vector<side> sides = {
      // Acceptance ratio 3/4 at n = 2 k: 4 * 90 == 3 * 40 * 3 is not
      // below, 4 * 80 is.
      {repeat({3, 3, 3, 0}, 10), 20, false},
      {repeat({3, 3, 2, 0}, 10), 20, true},
      // Bins per departure at acceptance ratio 2/3: n = 40 > 2 * 19.
      {repeat({3, 3, 2, 0}, 10), 19, false},
      // Acceptance ratio 1/2 at n = 4 k: 2 * 80 == 40 * 4 is not below,
      // 2 * 79 is.
      {repeat({4, 0}, 20), 10, false},
      {just_under_half, 10, true},
      // Bins per departure at acceptance ratio ~1/4: n = 65 > 8 * 8,
      // n = 64 <= 8 * 8.
      {flat(65), 8, false},
      {flat(64), 8, true},
      // Units per departure: N = 1281 > 32 * 40, N = 1280 <= 32 * 40.
      {{255, 255, 255, 255, 255, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 40, false},
      {{255, 255, 255, 255, 255, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 40, true},
  };
  for (std::size_t c = 0; c < sides.size(); ++c) {
    const auto n = static_cast<bin_count>(sides[c].offsets.size());
    auto snap = sides[c].offsets;
    snap.resize(n + compact_snapshot::tail_padding, 0);
    const step_count k = sides[c].k;
    std::size_t attempts = 0;
    const auto rejection = rejection_reference(8, n, snap, 0, k, 2024, attempts);
    const auto dense = dense_reference(8, n, snap, 0, k, 2024);
    EXPECT_NE(rejection, dense) << "side " << c << " cannot tell the samplers apart";
    for (const kernel_isa isa : supported_isas()) {
      EXPECT_EQ(depart_counts(isa, 8, depart_channel::random, n, snap, 0, 1, k, 2024),
                sides[c].dense ? dense : rejection)
          << "side " << c << " " << kernel_isa_name(isa);
    }
  }
}

TEST(DepartKernel, RandomLawIsMultivariateHypergeometricOnBothSamplers) {
  // A block of k random departures is a uniform k-subset of the N
  // resident units, so bin i's count has mean k p_i and variance
  // k p_i (1 - p_i) (N - k) / (N - 1), p_i = l_i / N.  One mixed-load
  // snapshot (N = 251, acceptance ratio 0.31) meets every sampler by k:
  // k = 7 fails N <= 32 k and takes rejection, k = 8 the dense sampler,
  // k = 200 its complement branch.
  const bin_count n = 8;
  std::vector<std::uint8_t> snap = {0, 3, 7, 12, 25, 40, 64, 100};
  snap.resize(n + compact_snapshot::tail_padding, 0);
  const double total = 251.0;
  const int runs = 20000;
  for (const step_count k : {step_count{7}, step_count{8}, step_count{200}}) {
    std::size_t attempts = 0;
    const bool dense = k >= 8;
    EXPECT_EQ(depart_counts(kernel_isa::scalar, 8, depart_channel::random, n, snap, 0, 1, k, 1),
              dense ? dense_reference(8, n, snap, 0, k, 1)
                    : rejection_reference(8, n, snap, 0, k, 1, attempts))
        << "k=" << k << " must take the " << (dense ? "dense" : "rejection") << " sampler";
    std::vector<double> sum(n, 0.0), sum2(n, 0.0), sum3(n, 0.0), sum4(n, 0.0);
    for (int r = 0; r < runs; ++r) {
      const auto rel = depart_counts(kernel_isa::scalar, 8, depart_channel::random, n, snap, 0, 1,
                                     k, derive_seed(777, static_cast<std::uint64_t>(r)));
      for (bin_count i = 0; i < n; ++i) {
        const double x = rel[i];
        sum[i] += x;
        sum2[i] += x * x;
        sum3[i] += x * x * x;
        sum4[i] += x * x * x * x;
      }
    }
    const double kk = static_cast<double>(k);
    for (bin_count i = 0; i < n; ++i) {
      const double p = snap[i] / total;
      const double mean_law = kk * p;
      const double var_law = kk * p * (1 - p) * (total - kk) / (total - 1);
      const double mean = sum[i] / runs;
      // Central moments from raw sums.
      const double m2 = sum2[i] / runs - mean * mean;
      const double m4 = sum4[i] / runs - 4 * mean * sum3[i] / runs +
                        6 * mean * mean * sum2[i] / runs - 3 * mean * mean * mean * mean;
      if (var_law == 0.0) {
        EXPECT_EQ(sum[i], mean_law * runs) << "k=" << k << " bin " << i;
        continue;
      }
      EXPECT_NEAR(mean, mean_law, 4.5 * std::sqrt(var_law / runs)) << "k=" << k << " bin " << i;
      EXPECT_NEAR(m2, var_law, 4.5 * std::sqrt(std::max(m4 - m2 * m2, 0.0) / runs))
          << "k=" << k << " bin " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// (2) Backend bit-parity.

TEST(DepartKernel, BackendsBitIdenticalAcrossShapes) {
  // Every supported backend must reproduce the scalar counts bit for bit
  // over awkward shapes, for both channels: remainder lanes (1, 3, 5),
  // one AVX-512 vector plus remainder lanes (13), whole vectors (8, 16,
  // 64), tiny bins, and event counts that cross the driver's 8192-event
  // block.
  const auto isas = supported_isas();
  ASSERT_GE(isas.size(), 1u);
  for (const bin_count n : {1u, 2u, 7u, 97u, 4096u}) {
    const auto snap = make_snapshot(n);
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{3}, std::size_t{5}, std::size_t{8}, std::size_t{13},
          std::size_t{16}, std::size_t{64}}) {
      for (const step_count k : {step_count{1}, step_count{63}, step_count{1000},
                                 step_count{20000}}) {
        for (const depart_channel channel : {depart_channel::drain, depart_channel::random}) {
          // base 25000 keeps even the n = 1, k = 20000 shape within
          // capacity for both channels.
          const auto reference =
              depart_counts(kernel_isa::scalar, lanes, channel, n, snap, 25000, 1, k, 31337);
          EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), std::int64_t{0}), k);
          for (const kernel_isa isa : isas) {
            EXPECT_EQ(depart_counts(isa, lanes, channel, n, snap, 25000, 1, k, 31337), reference)
                << kernel_isa_name(isa) << " channel=" << static_cast<int>(channel) << " n=" << n
                << " lanes=" << lanes << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(DepartKernel, DenseRandomBackendsAndRowsAgree) {
  // The dense sampler draws on one scalar stream on every backend; AVX2
  // and AVX-512 count with hardware popcount, the rest portably.  Every
  // backend must match the replay bit for bit, and the shard engine's
  // uint16 row the serial uint32 row.  Shapes span one bitmap word to
  // thousands, with and without the complement branch.
  const auto isas = supported_isas();
  for (const bin_count n : {7u, 97u, 4096u, 100003u}) {
    const auto snap = make_snapshot(n);  // base 0: acceptance ratio ~1/2
    step_count total = 0;
    for (bin_count i = 0; i < n; ++i) total += snap[i];
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      for (const step_count k : {total / 4, total / 2 + 1, total - total / 4}) {
        const auto reference = dense_reference(lanes, n, snap, 0, k, 4242);
        for (const kernel_isa isa : isas) {
          EXPECT_EQ(depart_counts(isa, lanes, depart_channel::random, n, snap, 0, 1, k, 4242),
                    reference)
              << kernel_isa_name(isa) << " n=" << n << " lanes=" << lanes << " k=" << k;
          if (k > shard_deltas::max_row_count) continue;
          std::vector<std::uint16_t> row16(n, 0);
          kernel_depart(isa, lanes, depart_channel::random, n, snap.data(), 0, span_of(snap, n),
                        1, row16.data(), k, 4242);
          EXPECT_TRUE(std::equal(row16.begin(), row16.end(), reference.begin()))
              << kernel_isa_name(isa) << " uint16 row, n=" << n << " lanes=" << lanes
              << " k=" << k;
        }
      }
    }
  }
}

TEST(DepartKernel, DenseRandomFullDrainRetiresEveryUnit) {
  // k = N departs every resident unit (the complement branch marks no
  // stayers): each bin's count is exactly its snapshot load, on every
  // backend.  One more departure than N refuses loudly instead of
  // looping on an empty snapshot.
  const bin_count n = 97;
  const auto snap = make_snapshot(n);
  step_count total = 0;
  for (bin_count i = 0; i < n; ++i) total += snap[i];
  for (const kernel_isa isa : supported_isas()) {
    const auto rel = depart_counts(isa, 8, depart_channel::random, n, snap, 0, 1, total, 3);
    for (bin_count i = 0; i < n; ++i) {
      EXPECT_EQ(rel[i], snap[i]) << kernel_isa_name(isa) << " bin " << i;
    }
    try {
      (void)depart_counts(isa, 8, depart_channel::random, n, snap, 0, 1, total + 1, 3);
      FAIL() << "departing past the resident load must throw (" << kernel_isa_name(isa) << ")";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
    }
  }
}

TEST(DepartKernel, DrainFullExhaustionBitIdenticalAndGuarded) {
  // k equal to the snapshot's total load drains every bin to exactly
  // zero -- the replay stream and the deterministic fullest-bin fallback
  // both fire, on every backend, with identical counts.  One more event
  // must refuse with the weight-naming contract error.
  const bin_count n = 97;
  const auto snap = make_snapshot(n);
  const load_t base = 12;
  step_count capacity = 0;
  for (bin_count i = 0; i < n; ++i) capacity += base + snap[i];

  const auto reference =
      depart_counts(kernel_isa::scalar, 8, depart_channel::drain, n, snap, base, 1, capacity, 9);
  for (bin_count i = 0; i < n; ++i) {
    EXPECT_EQ(reference[i], static_cast<std::uint32_t>(base + snap[i])) << "bin " << i;
  }
  for (const kernel_isa isa : supported_isas()) {
    EXPECT_EQ(depart_counts(isa, 8, depart_channel::drain, n, snap, base, 1, capacity, 9),
              reference)
        << kernel_isa_name(isa);
    try {
      (void)depart_counts(isa, 8, depart_channel::drain, n, snap, base, 1, capacity + 1, 9);
      FAIL() << "draining past the total load must throw (" << kernel_isa_name(isa) << ")";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("weight 1"), std::string::npos) << e.what();
    }
  }
}

TEST(DepartKernel, UInt16AndUInt32RowsAgree) {
  const bin_count n = 53;
  const auto snap = make_snapshot(n);
  for (const depart_channel channel : {depart_channel::drain, depart_channel::random}) {
    for (const kernel_isa isa : supported_isas()) {
      std::vector<std::uint16_t> row16(n, 0);
      kernel_depart(isa, 8, channel, n, snap.data(), 25000, span_of(snap, n), 1, row16.data(),
                    9999, 5);
      const auto row32 = depart_counts(isa, 8, channel, n, snap, 25000, 1, 9999, 5);
      for (bin_index i = 0; i < n; ++i) {
        EXPECT_EQ(row16[i], row32[i])
            << kernel_isa_name(isa) << " channel=" << static_cast<int>(channel) << " bin " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (3) Capacity guarantee and count sums.

TEST(DepartKernel, CountsSumToKAndRespectCapacity) {
  const bin_count n = 64;
  const auto snap = make_snapshot(n);
  for (const kernel_isa isa : supported_isas()) {
    // Weighted drain: rel[i] * w can never exceed the bin's snapshot load.
    const auto drained = depart_counts(isa, 8, depart_channel::drain, n, snap, 301, 3, 5000, 11);
    EXPECT_EQ(std::accumulate(drained.begin(), drained.end(), std::int64_t{0}), 5000);
    for (bin_count i = 0; i < n; ++i) {
      EXPECT_LE(static_cast<weight_t>(drained[i]) * 3, static_cast<weight_t>(301) + snap[i])
          << kernel_isa_name(isa) << " bin " << i;
    }
    // Random: unit quanta, same per-bin bound.
    const auto random = depart_counts(isa, 8, depart_channel::random, n, snap, 100, 1, 6000, 12);
    EXPECT_EQ(std::accumulate(random.begin(), random.end(), std::int64_t{0}), 6000);
    for (bin_count i = 0; i < n; ++i) {
      EXPECT_LE(random[i], static_cast<std::uint32_t>(100 + snap[i]))
          << kernel_isa_name(isa) << " bin " << i;
    }
  }
}

TEST(DepartKernel, LaneCountIsASamplingParameter) {
  const bin_count n = 512;
  const auto snap = make_snapshot(n);
  const auto l4 = depart_counts(kernel_isa::scalar, 4, depart_channel::drain, n, snap, 100, 1,
                                10000, 42);
  const auto l8 = depart_counts(kernel_isa::scalar, 8, depart_channel::drain, n, snap, 100, 1,
                                10000, 42);
  EXPECT_NE(l4, l8);
}

// ---------------------------------------------------------------------------
// (4) Golden contract regression.

TEST(DepartKernel, GoldenContractRegression) {
  // Frozen FNV-1a folds of the count vectors for (seed 42, n 101, lanes
  // 8, k 10^5, base 2000) on the cyclic snapshot, per channel.  EVERY
  // compiled backend must hit the same golden hash directly -- a contract
  // drift that slipped into all backends at once still fails here.
  const bin_count n = 101;
  const auto snap = make_snapshot(n);
  const auto fnv_of = [](const std::vector<std::uint32_t>& counts) {
    std::uint64_t fnv = 0xCBF29CE484222325ULL;
    for (const std::uint32_t c : counts) {
      fnv ^= c;
      fnv *= 0x100000001B3ULL;
    }
    return fnv;
  };
  for (const kernel_isa isa : supported_isas()) {
    const auto drained = depart_counts(isa, 8, depart_channel::drain, n, snap, 2000, 1, 100000, 42);
    EXPECT_EQ(std::accumulate(drained.begin(), drained.end(), std::int64_t{0}), 100000)
        << kernel_isa_name(isa);
    EXPECT_EQ(fnv_of(drained), 7532978351616542871ULL) << kernel_isa_name(isa);
    const auto random = depart_counts(isa, 8, depart_channel::random, n, snap, 2000, 1, 100000, 42);
    EXPECT_EQ(std::accumulate(random.begin(), random.end(), std::int64_t{0}), 100000)
        << kernel_isa_name(isa);
    EXPECT_EQ(fnv_of(random), 14558517916894183099ULL) << kernel_isa_name(isa);
  }
}

TEST(DepartKernel, GoldenDenseRandomRegression) {
  // The random channel's dense sampler on a sparse snapshot (n 10007,
  // base 0, lanes 8, seed 42): k 5000 marks departing units, k 15000
  // (over half of N = 20011) marks the stayers.  Frozen FNV-1a folds,
  // hit by every compiled backend directly.
  const bin_count n = 10007;
  const auto snap = make_snapshot(n);
  const auto fnv_of = [](const std::vector<std::uint32_t>& counts) {
    std::uint64_t fnv = 0xCBF29CE484222325ULL;
    for (const std::uint32_t c : counts) {
      fnv ^= c;
      fnv *= 0x100000001B3ULL;
    }
    return fnv;
  };
  for (const kernel_isa isa : supported_isas()) {
    const auto departing = depart_counts(isa, 8, depart_channel::random, n, snap, 0, 1, 5000, 42);
    EXPECT_EQ(fnv_of(departing), 3810973258842324073ULL) << kernel_isa_name(isa);
    const auto staying = depart_counts(isa, 8, depart_channel::random, n, snap, 0, 1, 15000, 42);
    EXPECT_EQ(fnv_of(staying), 10402463800640982009ULL) << kernel_isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// (5) Contract surface.

TEST(DepartKernel, RejectsContractViolations) {
  const auto snap = make_snapshot(8);
  std::vector<std::uint32_t> rel(8, 0);
  // Lanes and bins, like kernel_run.
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 0, depart_channel::drain, 8, snap.data(), 100, 4,
                             1, rel.data(), 10, 1),
               contract_error);
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, kernel_max_lanes + 1, depart_channel::drain, 8,
                             snap.data(), 100, 4, 1, rel.data(), 10, 1),
               contract_error);
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::drain, 0, snap.data(), 100, 4,
                             1, rel.data(), 10, 1),
               contract_error);
  // The random channel retires unit quanta only, and needs resident load.
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::random, 8, snap.data(), 100, 4,
                             2, rel.data(), 10, 1),
               contract_error);
  const std::vector<std::uint8_t> empty(8 + compact_snapshot::tail_padding, 0);
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::random, 8, empty.data(), 0, 0,
                             1, rel.data(), 10, 1),
               contract_error);
  // Weight bounds.
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::drain, 8, snap.data(), 100, 4,
                             0, rel.data(), 10, 1),
               contract_error);
}

// ---------------------------------------------------------------------------
// (6) Engine routing: batched departures through the serial kernel engine
// and the shard engine.

any_process churned_process(const char* channel, bin_count n, step_count warm,
                            std::uint64_t seed, rng_t& rng) {
  any_process process{two_choice(n)};
  process.set_model(make_model("unit", "uniform", n, channel));
  rng = rng_t(seed);
  step_many(process, rng, warm);
  return process;
}

TEST(DepartEngineKernel, BatchedBitIdenticalAcrossIsaBackends) {
  for (const char* channel : {"drain", "random"}) {
    std::vector<load_t> reference;
    std::uint64_t reference_rng_state = 0;
    for (const kernel_isa isa : supported_isas()) {
      rng_t rng(7);
      any_process process = churned_process(channel, 64, 20000, 7, rng);
      kernel_engine engine(kernel_options{.lanes = 8, .isa = isa, .min_window = 1});
      engine.depart_many(process, rng, 8000);
      EXPECT_EQ(process.state().balls(), 12000) << channel;
      if (reference.empty()) {
        reference = process.state().loads();
        reference_rng_state = rng.next();
      } else {
        EXPECT_EQ(process.state().loads(), reference)
            << channel << " " << kernel_isa_name(isa);
        EXPECT_EQ(rng.next(), reference_rng_state)
            << channel << " " << kernel_isa_name(isa);
      }
    }
    // The batched path is a declared sampling-contract change: it must
    // NOT reproduce the serial per-event stream.
    rng_t serial_rng(7);
    any_process serial = churned_process(channel, 64, 20000, 7, serial_rng);
    depart_many(serial, serial_rng, 8000);
    EXPECT_NE(serial.state().loads(), reference) << channel;
  }
}

TEST(DepartEngineShard, BatchedBitIdenticalAcrossThreadCountsAndBackends) {
  std::vector<load_t> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const kernel_isa isa : supported_isas()) {
      rng_t rng(21);
      any_process process = churned_process("drain", 64, 20000, 21, rng);
      shard_engine engine(shard_options{
          .threads = threads, .shards = 8, .min_window = 1, .lanes = 8, .isa = isa});
      engine.depart_many(process, rng, 8000);
      EXPECT_EQ(process.state().balls(), 12000);
      if (reference.empty()) {
        reference = process.state().loads();
      } else {
        EXPECT_EQ(process.state().loads(), reference)
            << threads << " threads, " << kernel_isa_name(isa);
      }
    }
  }
}

TEST(DepartEngineKernel, BulkLeasePopIsBitIdenticalToSerial) {
  // The lease channel is RNG-free FIFO popping: the engine's bulk path
  // must be the serial per-event loop exactly, stream position included.
  rng_t rng_a(3);
  any_process batched = churned_process("lease", 32, 5000, 3, rng_a);
  kernel_engine engine(kernel_options{.min_window = 1});
  engine.depart_many(batched, rng_a, 4000);

  rng_t rng_b(3);
  any_process serial = churned_process("lease", 32, 5000, 3, rng_b);
  depart_many(serial, rng_b, 4000);

  EXPECT_EQ(batched.state().loads(), serial.state().loads());
  EXPECT_EQ(batched.state().balls(), 1000);
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(DepartEngineKernel, WeightedDrainRetiresTheBallsActualWeight) {
  // Fixed per-ball weight 3: every batched departure must retire exactly
  // 3 load units, so total load tracks 3 * balls throughout.
  const bin_count n = 32;
  any_process process{two_choice(n)};
  process.set_model(make_model("fixed:3", "uniform", n, "drain"));
  rng_t rng(9);
  step_many(process, rng, 3000);
  ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 9000);
  kernel_engine engine(kernel_options{.min_window = 1});
  engine.depart_many(process, rng, 1000);
  EXPECT_EQ(process.state().balls(), 2000);
  EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 6000);
}

// ---------------------------------------------------------------------------
// (7) The silent-fallback diagnostics: every path that quietly serves a
// batched-departure request through the serial per-event loop must say so
// once (warn_once), and must still serve it bit-identically to the serial
// reference.

/// Runs `check(engine)` on a serial kernel engine and on a shard engine
/// built with the same `min_window`: both route departures through the
/// same shared fallbacks.  warn_once keys are process-global, so after
/// the first engine a key check alone proves nothing -- every check also
/// compares against the serial per-event reference.
template <typename Check>
void on_both_engines(step_count min_window, const Check& check) {
  {
    SCOPED_TRACE("kernel engine");
    kernel_engine kernel(kernel_options{.min_window = min_window});
    check(kernel);
  }
  {
    SCOPED_TRACE("shard engine");
    shard_engine shard(shard_options{.threads = 2, .shards = 4, .min_window = min_window});
    check(shard);
  }
}

TEST(DepartEngineKernel, UndersizedBlocksFallBackToSerialWithDiagnostic) {
  on_both_engines(4096, [](auto& engine) {  // both engines' default min_window
    rng_t rng_a(13);
    any_process via_engine = churned_process("drain", 64, 2000, 13, rng_a);
    const std::string key = "depart-engine-window/" + via_engine.name();
    engine.depart_many(via_engine, rng_a, 100);
    EXPECT_TRUE(warned(key)) << key;

    rng_t rng_b(13);
    any_process serial = churned_process("drain", 64, 2000, 13, rng_b);
    depart_many(serial, rng_b, 100);
    EXPECT_EQ(via_engine.state().loads(), serial.state().loads());
    EXPECT_EQ(rng_a.next(), rng_b.next());
  });
}

/// Three fixed-weight-300 balls over two bins: loads {600, 300}, a
/// 300-unit span beyond the compact snapshot's 8-bit range.
any_process span_saturated_process(rng_t& rng) {
  any_process process{two_choice(2)};
  process.set_model(make_model("fixed:300", "uniform", 2, "drain"));
  rng = rng_t(1);
  step_many(process, rng, 3);
  return process;
}

TEST(DepartEngineKernel, SpanSaturatedLoadsFallBackToSerialWithDiagnostic) {
  // The batched path must decline, warn once, and serve serially.
  on_both_engines(1, [](auto& engine) {
    rng_t rng_a(0);
    any_process process = span_saturated_process(rng_a);
    ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 900);
    const std::string key = "depart-engine-span/" + process.name();
    engine.depart_many(process, rng_a, 1);
    EXPECT_TRUE(warned(key)) << key;
    EXPECT_EQ(process.state().balls(), 2);
    EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 600);

    rng_t rng_b(0);
    any_process serial = span_saturated_process(rng_b);
    depart_many(serial, rng_b, 1);
    EXPECT_EQ(process.state().loads(), serial.state().loads());
    EXPECT_EQ(rng_a.next(), rng_b.next());
  });
}

TEST(DepartEngine, TypeErasedRouteMatchesTemplateRoute) {
  // The engines' any_process depart_many overloads must cross the erasure
  // into the concrete type's batched path: identical loads and generator
  // position on every channel and on both random samplers, and never the
  // not-batch-departable fallback.
  struct scenario {
    const char* channel;
    bin_count n;
    step_count warm;
    step_count k;
  };
  const scenario scenarios[] = {
      {"drain", 64, 20000, 8000},
      // Average load ~312: the random channel's rejection sampler.
      {"random", 64, 20000, 8000},
      // Average load 1/2, max >= 2 (asserted below), k = n/4: 2 N < n B
      // and n <= 8 k hold per kernel block and per shard, so the dense
      // sampler.
      {"random", 256, 128, 64},
      {"lease", 32, 5000, 4000},
  };
  for (const scenario& s : scenarios) {
    SCOPED_TRACE(std::string(s.channel) + " n=" + std::to_string(s.n));
    two_choice warmed(s.n);
    warmed.set_model(make_model("unit", "uniform", s.n, s.channel));
    rng_t rng(5);
    step_many(warmed, rng, s.warm);
    if (s.warm < static_cast<step_count>(s.n)) {
      ASSERT_GE(warmed.state().max_load(), 2);
    }
    on_both_engines(1, [&](auto& engine) {
      two_choice direct = warmed;
      any_process erased{warmed};
      rng_t rng_a = rng;
      rng_t rng_b = rng;
      engine.depart_many(direct, rng_a, s.k);
      engine.depart_many(erased, rng_b, s.k);
      EXPECT_EQ(direct.state().loads(), erased.state().loads());
      EXPECT_EQ(rng_a.next(), rng_b.next());
      EXPECT_FALSE(warned("depart-engine/" + erased.name()));
      if (std::string(s.channel) != "lease") {
        // The batched path really ran: it does not reproduce the serial
        // per-event stream (lease is RNG-free and identical by design).
        two_choice serial = warmed;
        rng_t rng_s = rng;
        depart_many(serial, rng_s, s.k);
        EXPECT_NE(serial.state().loads(), direct.state().loads());
      }
    });
  }
}

/// A minimal process with a per-event depart() but no commit_departures:
/// the engines must accept it, warn once, and run the serial loop.
struct bare_departer {
  load_state st{16};
  void step(rng_t& rng) { st.allocate(static_cast<bin_index>(bounded(rng, 16))); }
  void depart(rng_t& rng) {
    (void)rng;
    const auto& loads = st.loads();
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (loads[i] > 0) {
        st.release(static_cast<bin_index>(i), 1);
        return;
      }
    }
  }
  [[nodiscard]] const load_state& state() const { return st; }
  [[nodiscard]] std::string name() const { return "bare-departer"; }
};

TEST(DepartEngine, NonBatchDepartableFallsBackToSerialWithDiagnostic) {
  bare_departer process;
  rng_t rng(2);
  for (int i = 0; i < 50; ++i) process.step(rng);
  kernel_engine kernel(kernel_options{.min_window = 1});
  kernel.depart_many(process, rng, 5);
  EXPECT_TRUE(warned("depart-engine/bare-departer"));
  EXPECT_EQ(process.state().balls(), 45);

  shard_engine shard(shard_options{.threads = 2, .min_window = 1});
  shard.depart_many(process, rng, 5);
  EXPECT_EQ(process.state().balls(), 40);
}

}  // namespace
