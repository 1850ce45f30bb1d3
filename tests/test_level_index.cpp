// The level-compressed load index: incremental maintenance must match a
// from-scratch recomputation after arbitrary allocation sequences, and the
// O(1)/O(span) observation queries must agree with full scans/sorts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

#include "test_support.hpp"

namespace {

using namespace nb;

/// Checks every level_index query against a brute-force recomputation
/// from the raw load vector.
void expect_levels_consistent(const load_state& s) {
  const auto& loads = s.loads();
  const load_t mn = *std::min_element(loads.begin(), loads.end());
  const load_t mx = *std::max_element(loads.begin(), loads.end());
  const level_index& levels = s.levels();

  EXPECT_EQ(levels.min_level(), mn);
  EXPECT_EQ(levels.max_level(), mx);
  EXPECT_EQ(levels.bins(), s.n());
  EXPECT_EQ(levels.level_count(), mx - mn + 1);
  EXPECT_EQ(s.min_load(), mn);
  EXPECT_EQ(s.max_load(), mx);

  std::map<load_t, bin_count> histogram;
  for (const load_t x : loads) ++histogram[x];
  bin_count total = 0;
  for (load_t l = mn; l <= mx; ++l) {
    const auto it = histogram.find(l);
    const bin_count want = it == histogram.end() ? 0 : it->second;
    EXPECT_EQ(levels.count_at(l), want) << "level " << l;
    total += want;
  }
  EXPECT_EQ(total, s.n());
  EXPECT_EQ(levels.count_at(mn - 1), 0u);
  EXPECT_EQ(levels.count_at(mx + 1), 0u);

  // Suffix counts at, below and above the occupied range.
  EXPECT_EQ(levels.count_at_or_above(mn), s.n());
  EXPECT_EQ(levels.count_at_or_above(mn - 5), s.n());
  EXPECT_EQ(levels.count_at_or_above(mx + 1), 0u);
  const load_t mid = mn + (mx - mn) / 2 + 1;
  bin_count above = 0;
  for (const load_t x : loads) {
    if (x >= mid) ++above;
  }
  EXPECT_EQ(levels.count_at_or_above(mid), above);

  // Overloaded-bin count against the O(n) scan it replaced.
  const double avg = s.average_load();
  bin_count overloaded = 0;
  for (const load_t x : loads) {
    if (static_cast<double>(x) >= avg) ++overloaded;
  }
  EXPECT_EQ(s.overloaded_count(), overloaded);

  // Sort-free sorted normalized vector against an actual sort.
  std::vector<double> expected = s.normalized();
  std::sort(expected.begin(), expected.end(), std::greater<>());
  EXPECT_EQ(s.sorted_normalized_desc(), expected);

  // Descending iteration yields exactly the non-empty levels.
  load_t last = mx + 1;
  bin_count visited = 0;
  levels.for_each_level_desc([&](load_t level, bin_count count) {
    EXPECT_LT(level, last);
    EXPECT_GT(count, 0u);
    EXPECT_EQ(count, levels.count_at(level));
    last = level;
    visited += count;
  });
  EXPECT_EQ(visited, s.n());
}

TEST(LevelIndex, FreshStateIsAllAtZero) {
  load_state s(16);
  expect_levels_consistent(s);
  EXPECT_EQ(s.levels().count_at(0), 16u);
  EXPECT_EQ(s.levels().level_count(), 1);
}

TEST(LevelIndex, TracksRandomizedAllocationSequences) {
  load_state s(24);
  rng_t rng(1);
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 37; ++k) {
      s.allocate(static_cast<bin_index>(bounded(rng, s.n())));
    }
    expect_levels_consistent(s);
  }
}

TEST(LevelIndex, TracksSkewedSequences) {
  // All balls into one bin: a long, thin level window whose minimum never
  // moves (stresses the grow path, not the trim path).
  load_state s(4);
  for (int k = 0; k < 5000; ++k) {
    s.allocate(0);
    if (k % 500 == 0) expect_levels_consistent(s);
  }
  expect_levels_consistent(s);
  EXPECT_EQ(s.max_load(), 5000);
  EXPECT_EQ(s.min_load(), 0);
  EXPECT_EQ(s.levels().count_at(5000), 1u);
  EXPECT_EQ(s.levels().count_at(0), 3u);
}

TEST(LevelIndex, TrimsAdvancingMinimum) {
  // Round-robin allocation: every bin marches up in lockstep, so the
  // minimum advances constantly and dead levels must be trimmed away
  // without disturbing any query.
  load_state s(3);
  for (int k = 0; k < 9000; ++k) {
    s.allocate(static_cast<bin_index>(k % 3));
    if (k % 1000 == 999) expect_levels_consistent(s);
  }
  expect_levels_consistent(s);
  EXPECT_EQ(s.min_load(), 3000);
  EXPECT_EQ(s.max_load(), 3000);
  EXPECT_EQ(s.levels().level_count(), 1);
}

TEST(LevelIndex, SingleBinDeepRun) {
  load_state s(1);
  for (int k = 0; k < 100000; ++k) s.allocate(0);
  expect_levels_consistent(s);
  EXPECT_EQ(s.min_load(), 100000);
  EXPECT_EQ(s.levels().count_at(100000), 1u);
  EXPECT_EQ(s.levels().count_at_or_above(99999), 1u);
}

TEST(LevelIndex, ResetRestoresFreshState) {
  load_state s(8);
  rng_t rng(2);
  for (int k = 0; k < 700; ++k) s.allocate(static_cast<bin_index>(bounded(rng, 8)));
  s.reset();
  expect_levels_consistent(s);
  EXPECT_EQ(s.levels().count_at(0), 8u);
  EXPECT_EQ(s.max_load(), 0);
  EXPECT_EQ(s.min_load(), 0);
}

TEST(LevelIndex, StaysConsistentUnderEveryProcess) {
  // The index is maintained by allocate() regardless of which process is
  // driving; sweep the whole registry to cover every allocation pattern.
  for (const auto& [kind, description] : registered_process_kinds()) {
    process_spec spec;
    spec.kind = kind;
    spec.n = 32;
    spec.param = kind == "d-choice" ? 3.0 : (kind == "one-plus-beta" ? 0.5 : 2.0);
    any_process p = make_process(spec);
    rng_t rng(std::hash<std::string>{}(kind));
    step_many(p, rng, 3000);
    expect_levels_consistent(p.state());
  }
}

/// Every query of two indexes over the same loads agrees.
void expect_same_index(const level_index& got, const level_index& want) {
  ASSERT_EQ(got.min_level(), want.min_level());
  ASSERT_EQ(got.max_level(), want.max_level());
  EXPECT_EQ(got.bins(), want.bins());
  EXPECT_EQ(got.level_count(), want.level_count());
  for (load_t l = want.min_level() - 1; l <= want.max_level() + 1; ++l) {
    EXPECT_EQ(got.count_at(l), want.count_at(l)) << "level " << l;
  }
}

/// Bins at `base`, `base + span` and random levels in between, reached one
/// allocate() at a time so the state's index is incrementally maintained.
load_state incremental_state(bin_count n, load_t base, load_t span, std::uint64_t seed) {
  load_state s(n);
  rng_t rng(seed);
  for (bin_index i = 0; i < n; ++i) {
    load_t target = base + span;
    if (i == 0) target = base;
    if (i >= 2) {
      target = base + static_cast<load_t>(bounded(rng, static_cast<std::uint64_t>(span) + 1));
    }
    for (load_t k = 0; k < target; ++k) s.allocate(i);
  }
  return s;
}

TEST(LevelIndex, RebuildMatchesIncrementalMaintenanceAndRecount) {
  // Spans on both sides of the sub-counter fast path's limit plus a wide
  // one, over lengths that are and are not multiples of the sub-counter
  // count or of the commit pass's vector widths.  Each state is also
  // rebuilt by a commit pass (one merged window from empty bins) on every
  // supported target: the bounds it folds must match.
  const load_t small = level_index::small_span_levels;
  const auto lanes = static_cast<bin_count>(level_index::histogram_lanes);
  std::vector<bin_count> sizes = {bin_count{1}, bin_count{2}, lanes - 1, lanes, lanes + 1,
                                  3 * lanes + 5};
  for (const bin_count n : nb::testing::commit_pass_sizes()) sizes.push_back(n);
  for (const load_t span : {0, 1, 16, small - 2, small - 1, small, small + 1, 3000}) {
    for (const bin_count n : sizes) {
      if (n == 1 && span > 0) continue;  // one bin has no span
      if (n > 1000 && span > small + 1) continue;  // per-ball set-up cost
      SCOPED_TRACE("span " + std::to_string(span) + ", n " + std::to_string(n));
      const load_state s =
          incremental_state(n, 3, span, static_cast<std::uint64_t>(span) * 31 + n);
      expect_levels_consistent(s);  // incremental index vs naive recount
      ASSERT_EQ(s.max_load() - s.min_load(), span);
      level_index rebuilt;
      ASSERT_TRUE(rebuilt.rebuild(s.loads()));
      expect_same_index(rebuilt, s.levels());
      level_index bounded_rebuild;
      ASSERT_TRUE(bounded_rebuild.rebuild(s.loads(), s.min_load(), s.max_load()));
      expect_same_index(bounded_rebuild, s.levels());
      const std::vector<std::uint32_t> add(s.loads().begin(), s.loads().end());
      const step_count window = std::accumulate(add.begin(), add.end(), step_count{0});
      for (const kernel_isa isa : nb::testing::supported_isas()) {
        SCOPED_TRACE(std::string("isa ") + kernel_isa_name(isa));
        load_state merged(n);
        merged.apply_increments(add, 1, window, isa);
        ASSERT_EQ(merged.loads(), s.loads());
        expect_same_index(merged.levels(), s.levels());
      }
    }
  }
}

TEST(LevelIndex, WindowCommitsMatchPerBallMaintenance) {
  // Each merged commit (unit and fixed-weight increments, signed deltas,
  // bulk releases) rebuilds the index from bounds folded into its update
  // pass; it must equal the same balls placed or removed one at a time,
  // on every target the dispatched commits are compiled for.
  std::vector<bin_count> sizes = {bin_count{1}, bin_count{7}, bin_count{8}, bin_count{300}};
  for (const bin_count n : nb::testing::commit_pass_sizes()) sizes.push_back(n);
  for (const kernel_isa isa : nb::testing::supported_isas()) {
    for (const bin_count n : sizes) {
      SCOPED_TRACE(std::string("isa ") + kernel_isa_name(isa) + ", n " + std::to_string(n));
      rng_t rng(n);
      load_state merged(n);
      load_state per_ball(n);
      for (int round = 0; round < 6; ++round) {
        const weight_t w = round % 2 == 0 ? 1 : 5;
        std::vector<std::uint32_t> add(n);
        for (bin_index i = 0; i < n; ++i) {
          add[i] = static_cast<std::uint32_t>(bounded(rng, round == 5 ? 400 : 4));
          for (std::uint32_t k = 0; k < add[i]; ++k) per_ball.allocate(i, w);
        }
        merged.apply_increments(add, w, std::accumulate(add.begin(), add.end(), step_count{0}),
                                isa);
        ASSERT_EQ(merged.loads(), per_ball.loads());
        expect_levels_consistent(merged);
        expect_same_index(merged.levels(), per_ball.levels());

        std::vector<std::uint32_t> rel(n);
        step_count k = 0;
        for (bin_index i = 0; i < n; ++i) {
          rel[i] = static_cast<std::uint32_t>(bounded(rng, add[i] + 1));
          for (std::uint32_t j = 0; j < rel[i]; ++j) per_ball.release(i, w);
          k += rel[i];
        }
        merged.apply_releases(rel, w, k, isa);
        ASSERT_EQ(merged.loads(), per_ball.loads());
        expect_levels_consistent(merged);
        expect_same_index(merged.levels(), per_ball.levels());
      }
      // A signed window: one unit ball into bin 0, one out of the fullest
      // bin.
      std::vector<std::int64_t> delta(n, 0);
      const auto fullest = static_cast<bin_index>(
          std::max_element(per_ball.loads().begin(), per_ball.loads().end()) -
          per_ball.loads().begin());
      delta[0] += 1;
      delta[fullest] -= 1;
      per_ball.allocate(0);
      per_ball.release(fullest);
      merged.apply_increments(delta, 0);
      ASSERT_EQ(merged.loads(), per_ball.loads());
      expect_levels_consistent(merged);
      expect_same_index(merged.levels(), per_ball.levels());
    }
  }
}

TEST(LevelIndex, GapAndUnderloadGapUseIndexedExtremes) {
  load_state s(4);
  for (int k = 0; k < 7; ++k) s.allocate(0);
  for (int k = 0; k < 2; ++k) s.allocate(1);
  // loads = {7, 2, 0, 0}, avg = 2.25
  EXPECT_DOUBLE_EQ(s.gap(), 7.0 - 2.25);
  EXPECT_DOUBLE_EQ(s.underload_gap(), 2.25);
  EXPECT_EQ(s.overloaded_count(), 1u);
}

}  // namespace
