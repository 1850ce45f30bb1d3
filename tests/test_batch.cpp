// Tests for the b-Batch process.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
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

/// A commit plan over ranges of 2^shift bins.  With a pool, one task per
/// worker claims ranges until none is left (the shard engine's schedule);
/// without one, the ranges run serially in reverse order -- any order
/// must commit the same state.
commit_plan ranged_plan(unsigned shift, thread_pool* pool) {
  commit_plan plan;
  plan.ranges.shift = shift;
  plan.run = [pool](std::size_t count, const std::function<void(std::size_t)>& task) {
    if (pool != nullptr) {
      pool->for_each_index(count, task);
    } else {
      for (std::size_t r = count; r-- > 0;) task(r);
    }
  };
  return plan;
}

/// Range shifts to test at n bins: every width up to one range for small
/// n (range counts 1, 2, 3, ..., n); for large n one range per bin, the
/// engine's split for 3 and for 16 targets, two ranges and one.
std::vector<unsigned> range_shifts(bin_count n) {
  const auto whole = static_cast<unsigned>(std::bit_width(n));
  std::vector<unsigned> shifts;
  if (n <= 64) {
    for (unsigned s = 0; s <= whole; ++s) shifts.push_back(s);
  } else {
    shifts = {0, bin_ranges::split(n, 3).shift, bin_ranges::split(n, 16).shift, whole - 1, 32};
  }
  return shifts;
}

/// Everything a commit may change: the checkpoint bytes (loads, totals,
/// stale row, touched list), the level index and the window snapshot.
::testing::AssertionResult same_commit_state(b_batch& got, b_batch& want) {
  state_writer wg;
  state_writer ww;
  got.save_checkpoint(wg);
  want.save_checkpoint(ww);
  if (wg.bytes() != ww.bytes()) return ::testing::AssertionFailure() << "checkpoint bytes differ";
  const load_state& a = got.state();
  const load_state& b = want.state();
  if (a.levels_valid() != b.levels_valid()) {
    return ::testing::AssertionFailure() << "levels_valid " << a.levels_valid();
  }
  if (a.levels_valid()) {
    const level_index& la = a.levels();
    const level_index& lb = b.levels();
    if (la.min_level() != lb.min_level() || la.max_level() != lb.max_level()) {
      return ::testing::AssertionFailure() << "level bounds [" << la.min_level() << ", "
                                           << la.max_level() << "], want [" << lb.min_level()
                                           << ", " << lb.max_level() << "]";
    }
    for (load_t l = lb.min_level(); l <= lb.max_level(); ++l) {
      if (la.count_at(l) != lb.count_at(l)) {
        return ::testing::AssertionFailure() << "level " << l << " count " << la.count_at(l)
                                             << ", want " << lb.count_at(l);
      }
    }
  }
  const compact_snapshot& sa = got.window_snapshot();
  const compact_snapshot& sb = want.window_snapshot();
  if (sa.ok() != sb.ok() || sa.base() != sb.base()) {
    return ::testing::AssertionFailure() << "snapshot ok/base " << sa.ok() << "/" << sa.base()
                                         << ", want " << sb.ok() << "/" << sb.base();
  }
  if (sb.ok() && (sa.max_off() != sb.max_off() ||
                  !std::equal(sb.data(), sb.data() + sb.size() + compact_snapshot::tail_padding,
                              sa.data()))) {
    return ::testing::AssertionFailure() << "snapshot span or bytes differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(BBatch, RangeSplitCommitMatchesOneRangeCommit) {
  // The same windows committed through range-split plans (every range
  // count from one per bin to one, on a pool and serially in reverse) and
  // through the default one-range commit must leave bit-identical loads,
  // stale row, snapshot bytes, base, span and level index, on every ISA.
  // The traffic mixes partial windows, boundary windows and departures
  // between them; weight 128 pushes spans past 255, and departures move
  // the snapshot base down.
  thread_pool pool(3);
  int moved_down = 0;
  int saturated = 0;
  for (const kernel_isa isa : nb::testing::supported_isas()) {
    for (const bin_count n : {1u, 7u, 17u, 100003u}) {
      for (const weight_t w : {weight_t{1}, weight_t{3}, weight_t{128}}) {
        // One-per-bin ranges at large n are slow and, with wide spans,
        // would need huge per-range sub-histograms; unit weights cover it.
        if (n > 64 && w != 1) continue;
        const step_count b = 2 * static_cast<step_count>(n) + 1;
        alloc_model model;
        if (w > 1) model.weighting = ball_weighting::fixed(w);
        model.departures = departure_model::random();
        for (const unsigned shift : range_shifts(n)) {
          for (thread_pool* runner : {&pool, static_cast<thread_pool*>(nullptr)}) {
            if (n > 64 && runner == nullptr) continue;
            SCOPED_TRACE(pass_trace(isa, n) + ", weight " + std::to_string(w) + ", shift " +
                         std::to_string(shift) + (runner != nullptr ? ", pool" : ", serial"));
            const commit_plan plan = ranged_plan(shift, runner);
            b_batch want(n, b);
            want.set_model(model);
            b_batch got = want;
            rng_t traffic(derive_seed(n, static_cast<std::uint64_t>(w)));
            rng_t depart_want(7);
            rng_t depart_got(7);
            const auto commit = [&](step_count balls) {
              std::vector<std::uint32_t> inc_want = window_counts(n, balls, 0, n, traffic);
              std::vector<std::uint32_t> inc_got = inc_want;
              want.commit_window(inc_want, balls, isa);
              got.commit_window(inc_got, balls, isa, plan);
              EXPECT_EQ(inc_got, std::vector<std::uint32_t>(n, 0));
              EXPECT_TRUE(same_commit_state(got, want));
              EXPECT_TRUE(snapshot_is_coherent(got));
            };
            const int batches = n > 64 ? 3 : 8;
            for (int batch = 0; batch < batches && !HasFailure(); ++batch) {
              // A partial window on a random share of the batch, a few
              // departures (which move the boundary), then the window
              // that ends the batch.
              const step_count window = want.snapshot_window();
              if (window > 1) commit(static_cast<step_count>(bounded(traffic, window - 1)) + 1);
              const auto departures = static_cast<int>(
                  bounded(traffic, static_cast<std::uint64_t>(want.state().balls()) + 1));
              for (int d = 0; d < departures; ++d) {
                want.depart(depart_want);
                got.depart(depart_got);
              }
              const load_t base_before = want.window_snapshot().base();
              commit(want.snapshot_window());
              if (got.window_snapshot().base() < base_before) ++moved_down;
              if (!got.window_snapshot().ok()) ++saturated;
            }
          }
        }
      }
    }
  }
  std::printf("BBatch.RangeSplitCommitMatchesOneRangeCommit: base moved down %d, span past "
              "255 %d\n",
              moved_down, saturated);
  EXPECT_GT(moved_down, 0) << "no boundary commit moved the snapshot base down";
  EXPECT_GT(saturated, 0) << "no boundary commit left a span past 255";
}

TEST(BBatch, RefusedRangeSplitCommitChangesNothing) {
  // A window refused on the range-split path -- a boundary window by the
  // ball ceiling, by one bin's 32-bit load or by counts not summing to the
  // window, and a partial window by counts not summing to it (which would
  // otherwise move the batch boundary) -- must leave the process (stale
  // row and touched list included) and the count row exactly as they
  // were, whichever range and ISA would have refused it, for uint32 and
  // (where the counts fit) byte rows.  Each case breaks only its own
  // check.
  thread_pool pool(3);
  const auto huge = static_cast<std::uint32_t>(20'000'000);  // * 128 passes int32
  for (const kernel_isa isa : nb::testing::supported_isas()) {
    for (const bin_count n : {1u, 7u, 17u, 100003u}) {
      const auto bins = static_cast<step_count>(n);
      for (int c = 0; c < 4; ++c) {
        const step_count window = c == 0   ? max_run_balls + 1
                                  : c == 1 ? huge
                                  : c == 2 ? bins
                                           : 2 * bins;
        b_batch p(n, bins + window);
        alloc_model model;
        model.weighting = ball_weighting::fixed(128);
        p.set_model(model);
        rng_t rng(n);
        std::vector<std::uint32_t> partial = window_counts(n, bins, 0, n, rng);
        p.commit_window(partial, bins, isa);  // leaves touched bins behind
        ASSERT_EQ(p.snapshot_window(), window);
        // Case 3 claims a partial window one ball longer than its counts.
        const step_count claimed = c == 3 ? window - 1 : window;
        std::vector<std::uint32_t> refused(n, 0);
        if (c >= 2) {
          refused = window_counts(n, claimed - 1, 0, n, rng);
        } else {
          refused[n / 2] = static_cast<std::uint32_t>(window);
        }
        const bool bytes_fit = std::all_of(refused.begin(), refused.end(),
                                           [](std::uint32_t x) { return x < 256; });
        for (const unsigned shift : range_shifts(n)) {
          SCOPED_TRACE(pass_trace(isa, n) + ", case " + std::to_string(c) + ", shift " +
                       std::to_string(shift));
          std::vector<std::uint32_t> inc = refused;
          b_batch before = p;
          EXPECT_THROW(p.commit_window(inc, claimed, isa, ranged_plan(shift, &pool)),
                       contract_error);
          EXPECT_EQ(inc, refused);
          ASSERT_TRUE(same_commit_state(p, before));
          if (bytes_fit) {
            const std::vector<std::uint8_t> refused_bytes(refused.begin(), refused.end());
            std::vector<std::uint8_t> inc_bytes = refused_bytes;
            EXPECT_THROW(p.commit_window(inc_bytes, claimed, isa, ranged_plan(shift, &pool)),
                         contract_error);
            EXPECT_EQ(inc_bytes, refused_bytes);
            ASSERT_TRUE(same_commit_state(p, before));
          }
        }
      }
    }
  }
}

TEST(BBatch, NameEncodesBatchSize) { EXPECT_EQ(b_batch(8, 3).name(), "b-batch[b=3]"); }

}  // namespace
