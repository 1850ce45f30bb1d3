// Tests for the b-Batch process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;
using nb::testing::mean_gap_of;
using nb::testing::run_and_snapshot;
using nb::testing::total_balls;

TEST(BBatch, RejectsBatchBelowOne) { EXPECT_THROW(b_batch(8, 0), nb::contract_error); }

TEST(BBatch, ConservesBalls) {
  EXPECT_EQ(total_balls(run_and_snapshot(b_batch(64, 100), 5000, 1)), 5000);
}

TEST(BBatch, ReportedLoadsFrozenWithinBatch) {
  const bin_count n = 16;
  const step_count b = 50;
  b_batch p(n, b);
  rng_t rng(2);
  for (int batch = 0; batch < 20; ++batch) {
    // Snapshot reported loads at the batch start; they must not change
    // until the batch completes.
    std::vector<load_t> reported(n);
    for (bin_index i = 0; i < n; ++i) reported[i] = p.reported_load(i);
    for (step_count s = 0; s < b; ++s) {
      for (bin_index i = 0; i < n; ++i) {
        ASSERT_EQ(p.reported_load(i), reported[i])
            << "batch " << batch << " step " << s << " bin " << i;
      }
      p.step(rng);
    }
  }
}

TEST(BBatch, SnapshotRefreshesToTrueLoadsAtBoundary) {
  const bin_count n = 16;
  const step_count b = 37;
  b_batch p(n, b);
  rng_t rng(3);
  for (int batch = 0; batch < 15; ++batch) {
    for (step_count s = 0; s < b; ++s) p.step(rng);
    for (bin_index i = 0; i < n; ++i) {
      ASSERT_EQ(p.reported_load(i), p.state().load(i)) << "after batch " << batch;
    }
  }
}

TEST(BBatch, FirstBatchReportsAllZero) {
  b_batch p(8, 100);
  rng_t rng(4);
  for (int s = 0; s < 99; ++s) {
    p.step(rng);
    for (bin_index i = 0; i < 8; ++i) ASSERT_EQ(p.reported_load(i), 0);
  }
}

TEST(BBatch, GapGrowsWithBatchSize) {
  const bin_count n = 256;
  const step_count m = 100000;
  const double b1 = mean_gap_of([&] { return b_batch(n, 1); }, m, 10, 5);
  const double bn = mean_gap_of([&] { return b_batch(n, n); }, m, 10, 6);
  const double b10n = mean_gap_of([&] { return b_batch(n, 10 * n); }, m, 10, 7);
  EXPECT_LT(b1, bn);
  EXPECT_LT(bn, b10n);
}

TEST(BBatch, HeavyBatchRegimeScalesLikeBOverN) {
  // For b >= n log n the tight gap is Theta(b/n) [LS22a].  Doubling b
  // should roughly double the gap.
  const bin_count n = 128;
  const step_count m = 200000;
  const auto blo = static_cast<step_count>(16 * n);
  const double g_lo = mean_gap_of([&] { return b_batch(n, blo); }, m, 10, 8);
  const double g_hi = mean_gap_of([&] { return b_batch(n, 2 * blo); }, m, 10, 9);
  EXPECT_GT(g_hi / g_lo, 1.35);
  EXPECT_LT(g_hi / g_lo, 3.0);
}

TEST(BBatch, BatchOfNStaysNearLogOverLogLog) {
  // Theorem 10.2: Gap = Theta(log n / log log n) for b = n.
  const bin_count n = 1024;
  const step_count m = 200000;
  const double gap = mean_gap_of([&] { return b_batch(n, n); }, m, 10, 10);
  const double shape = std::log(n) / std::log(std::log(n));
  EXPECT_GT(gap, 0.4 * shape);
  EXPECT_LT(gap, 4.0 * shape);
}

TEST(BBatch, DominatedByAdversarialDelayAtSameScale) {
  const bin_count n = 256;
  const step_count m = 80000;
  const double batch = mean_gap_of([&] { return b_batch(n, n); }, m, 15, 11);
  const double delay = mean_gap_of([&] { return tau_delay<delay_adversarial>(n, n); }, m, 15, 12);
  EXPECT_LE(batch, delay + 1.0);
}

TEST(BBatch, ResetClearsSnapshotState) {
  b_batch p(32, 20);
  rng_t rng(13);
  for (int t = 0; t < 30; ++t) p.step(rng);  // mid-batch
  p.reset();
  EXPECT_EQ(p.state().balls(), 0);
  for (bin_index i = 0; i < 32; ++i) EXPECT_EQ(p.reported_load(i), 0);
  rng_t a(14);
  rng_t b(14);
  b_batch q(32, 20);
  for (int t = 0; t < 500; ++t) {
    p.step(a);
    q.step(b);
  }
  EXPECT_EQ(p.state().loads(), q.state().loads());
}

/// A b-Batch run (random departures configured) after `arrivals` serial
/// balls and then `departures` per-event departures.  Departures never
/// refresh the snapshot, so afterwards some entries differ from the loads.
b_batch churned_batch(bin_count n, step_count b, step_count arrivals, int departures,
                      rng_t& rng) {
  b_batch p(n, b);
  alloc_model model;
  model.departures = departure_model::random();
  p.set_model(model);
  p.step_many(rng, arrivals);
  for (int d = 0; d < departures; ++d) p.depart(rng);
  return p;
}

/// Merged window counts: `balls` balls spread over bins [lo, hi).
std::vector<std::uint32_t> window_counts(bin_count n, step_count balls, bin_index lo,
                                         bin_index hi, rng_t& rng) {
  std::vector<std::uint32_t> inc(n, 0);
  for (step_count t = 0; t < balls; ++t) ++inc[lo + bounded(rng, hi - lo)];
  return inc;
}

std::vector<load_t> reported_loads(const b_batch& p) {
  std::vector<load_t> out(p.state().n());
  for (bin_index i = 0; i < p.state().n(); ++i) out[i] = p.reported_load(i);
  return out;
}

/// The process-held window snapshot equals compact_snapshot::assign of its
/// stale row: ok and base always; span, every byte and the tail padding
/// when ok.
::testing::AssertionResult snapshot_is_coherent(b_batch& p) {
  const std::vector<load_t> stale = reported_loads(p);
  compact_snapshot want;
  want.assign(stale);
  const compact_snapshot& got = p.window_snapshot();
  if (got.ok() != want.ok() || got.base() != want.base()) {
    return ::testing::AssertionFailure()
           << "ok/base " << got.ok() << "/" << got.base() << ", want " << want.ok() << "/"
           << want.base();
  }
  if (!want.ok()) return ::testing::AssertionSuccess();
  if (got.size() != want.size() || got.max_off() != want.max_off()) {
    return ::testing::AssertionFailure() << "size/span " << got.size() << "/"
                                         << int{got.max_off()} << ", want " << want.size()
                                         << "/" << int{want.max_off()};
  }
  for (std::size_t i = 0; i < want.size() + compact_snapshot::tail_padding; ++i) {
    if (got.data()[i] != want.data()[i]) {
      return ::testing::AssertionFailure() << "byte " << i << " is " << int{got.data()[i]}
                                           << ", want " << int{want.data()[i]};
    }
  }
  return ::testing::AssertionSuccess();
}

std::string pass_trace(kernel_isa isa, bin_count n) {
  return std::string("isa ") + kernel_isa_name(isa) + ", n " + std::to_string(n);
}

TEST(BBatch, BoundaryCommitAfterDeparturesKeepsUntouchedSnapshot) {
  const step_count b = 16;
  for (const kernel_isa isa : nb::testing::supported_isas()) {
    for (const bin_count n : nb::testing::commit_pass_sizes()) {
      SCOPED_TRACE(pass_trace(isa, n));
      rng_t rng(21 + n);
      b_batch p = churned_batch(n, b, 64, 32, rng);
      ASSERT_EQ(p.snapshot_window(), b);  // 32 balls left: a whole batch ahead
      ASSERT_TRUE(snapshot_is_coherent(p));
      const std::vector<load_t> loads = p.state().loads();
      const std::vector<load_t> stale = reported_loads(p);
      std::vector<std::uint32_t> inc = window_counts(n, b, 0, n, rng);

      // Naive reference: loads gain inc; entries of bins the window
      // touched refresh to the new loads; every other entry stays as it
      // was.
      std::vector<load_t> want_loads = loads;
      std::vector<load_t> want_stale = stale;
      int kept_differing = 0;
      for (bin_index i = 0; i < n; ++i) {
        want_loads[i] += static_cast<load_t>(inc[i]);
        if (inc[i] != 0) {
          want_stale[i] = want_loads[i];
        } else if (stale[i] != loads[i]) {
          ++kept_differing;
        }
      }
      ASSERT_GT(kept_differing, 0) << "no untouched bin whose snapshot differs from its load";

      p.commit_window(inc, b, isa);
      EXPECT_EQ(p.state().loads(), want_loads);
      EXPECT_EQ(reported_loads(p), want_stale);
      EXPECT_EQ(inc, std::vector<std::uint32_t>(n, 0)) << "count row not handed back zeroed";
      EXPECT_TRUE(snapshot_is_coherent(p));
    }
  }
}

TEST(BBatch, PartialWindowsRecordTouchedBins) {
  // Two partial windows on disjoint bin ranges, then the window that ends
  // the batch on a third: the boundary must refresh every bin any of the
  // three touched, and only those.
  const step_count b = 16;
  for (const kernel_isa isa : nb::testing::supported_isas()) {
    for (const bin_count n : nb::testing::commit_pass_sizes()) {
      SCOPED_TRACE(pass_trace(isa, n));
      rng_t rng(22 + n);
      b_batch p = churned_batch(n, b, 64, 32, rng);
      const std::vector<load_t> stale = reported_loads(p);
      const std::vector<std::uint8_t> bytes(p.window_snapshot().data(),
                                            p.window_snapshot().data() + n);
      const bin_index third = n / 3;
      std::vector<std::vector<std::uint32_t>> windows = {
          window_counts(n, 3, 0, third, rng), window_counts(n, 4, third, 2 * third, rng),
          window_counts(n, b - 7, 2 * third, n, rng)};
      std::vector<bool> touched(n, false);
      for (std::size_t w = 0; w < windows.size(); ++w) {
        step_count balls = 0;
        for (bin_index i = 0; i < n; ++i) {
          balls += windows[w][i];
          if (windows[w][i] != 0) touched[i] = true;
        }
        p.commit_window(windows[w], balls, isa);
        EXPECT_EQ(windows[w], std::vector<std::uint32_t>(n, 0)) << "window " << w;
        if (w + 1 < windows.size()) {
          EXPECT_EQ(reported_loads(p), stale) << "snapshot moved mid-batch after window " << w;
          EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), p.window_snapshot().data()))
              << "compact snapshot moved mid-batch after window " << w;
        }
      }
      ASSERT_EQ(p.snapshot_window(), b);
      std::vector<load_t> want_stale = stale;
      int kept_differing = 0;
      for (bin_index i = 0; i < n; ++i) {
        if (touched[i]) {
          want_stale[i] = p.state().load(i);
        } else if (stale[i] != p.state().load(i)) {
          ++kept_differing;
        }
      }
      ASSERT_GT(kept_differing, 0) << "no untouched bin whose snapshot differs from its load";
      EXPECT_EQ(reported_loads(p), want_stale);
      EXPECT_TRUE(snapshot_is_coherent(p));
    }
  }
}

/// One replayable trial of BBatch.ProcessSnapshotStaysCoherent: a b-Batch
/// run whose configuration and traffic mix are drawn from `seed`.  Adds
/// to `moved_down` / `saturated` the engine arrival steps after which the
/// snapshot base sat lower than before / the snapshot was unusable.
void coherence_trial(std::uint64_t seed, int& moved_down, int& saturated) {
  rng_t cfg(seed);
  const std::vector<bin_count> sizes = {15, 16, 17, 64, 257};
  const bin_count n = sizes[bounded(cfg, sizes.size())];
  const step_count b = static_cast<step_count>(n) * (1 + static_cast<step_count>(bounded(cfg, 3)));
  alloc_model model;
  const std::vector<weight_t> weights = {1, 3, 128};  // 128: spans cross 255
  const weight_t w = weights[bounded(cfg, weights.size())];
  if (w > 1) model.weighting = ball_weighting::fixed(w);
  const std::vector<departure_model> channels = {
      departure_model::random(), departure_model::lease(), departure_model::drain()};
  model.departures = channels[bounded(cfg, channels.size())];
  const std::vector<kernel_isa> isas = nb::testing::supported_isas();
  const kernel_isa isa = isas[bounded(cfg, isas.size())];
  SCOPED_TRACE("n " + std::to_string(n) + ", b " + std::to_string(b) + ", weight " +
               std::to_string(w) + ", departures " + model.departures.label() + ", isa " +
               kernel_isa_name(isa));

  b_batch p(n, b);
  p.set_model(model);
  kernel_options kopt;
  kopt.isa = isa;
  kopt.min_window = 1;
  kernel_engine kernel(kopt);
  shard_options sopt;
  sopt.threads = 2;
  sopt.shards = 3;
  sopt.min_window = 1;
  sopt.isa = isa;
  shard_engine shards(sopt);
  rng_t rng(derive_seed(seed, 1));
  std::vector<std::uint8_t> saved;
  for (int op = 0; op < 80; ++op) {
    const auto kind = bounded(cfg, 10);
    // Up to three batches: whole windows, partial ones, and cuts between.
    const auto arrivals = 1 + static_cast<step_count>(bounded(cfg, 3 * b));
    const step_count resident = p.state().balls();
    const auto departures =
        static_cast<step_count>(bounded(cfg, static_cast<std::uint64_t>(resident) + 1));
    const load_t base_before = p.window_snapshot().base();
    SCOPED_TRACE("op " + std::to_string(op) + ", kind " + std::to_string(kind));
    if (kind <= 1) {
      kernel.step_many(p, rng, arrivals);
    } else if (kind <= 3) {
      shards.step_many(p, rng, arrivals);
    } else if (kind == 4) {
      p.step_many(rng, arrivals);
    } else if (kind == 5) {
      kernel.depart_many(p, rng, departures);
    } else if (kind == 6) {
      shards.depart_many(p, rng, departures);
    } else if (kind == 7) {
      for (step_count d = 0; d < std::min<step_count>(departures, 8); ++d) p.depart(rng);
    } else if (kind == 8) {
      if (saved.empty() || bounded(cfg, 2) == 0) {
        state_writer wr;
        p.save_checkpoint(wr);
        saved = wr.bytes();
      } else {
        state_reader rd(saved);
        p.restore_checkpoint(rd);
      }
    } else if (bounded(cfg, 4) == 0) {
      p.reset();
    }
    ASSERT_TRUE(snapshot_is_coherent(p));
    if (kind <= 3) {
      if (p.window_snapshot().base() < base_before) ++moved_down;
      if (!p.window_snapshot().ok()) ++saturated;
    }
  }
}

TEST(BBatch, ProcessSnapshotStaysCoherent) {
  // The process-held compact snapshot must equal a fresh assign() of the
  // stale row after every step of every traffic mix.  Each trial's seed
  // is printed; coherence_trial(seed, ...) replays it alone.
  const std::uint64_t master = 0x5eedc0de;
  int moved_down = 0;
  int saturated = 0;
  for (std::uint64_t t = 0; t < 60; ++t) {
    const std::uint64_t seed = derive_seed(master, t);
    SCOPED_TRACE("trial seed " + std::to_string(seed));
    coherence_trial(seed, moved_down, saturated);
    if (HasFatalFailure()) {
      std::printf("BBatch.ProcessSnapshotStaysCoherent failed: trial seed %llu\n",
                  static_cast<unsigned long long>(seed));
      return;
    }
  }
  std::printf("BBatch.ProcessSnapshotStaysCoherent: master seed %llu, base moved down %d, "
              "span past 255 %d\n",
              static_cast<unsigned long long>(master), moved_down, saturated);
  EXPECT_GT(moved_down, 0) << "no engine window moved the snapshot base down";
  EXPECT_GT(saturated, 0) << "no engine window left a span past 255";
}

TEST(BBatch, NameEncodesBatchSize) { EXPECT_EQ(b_batch(8, 3).name(), "b-batch[b=3]"); }

}  // namespace
