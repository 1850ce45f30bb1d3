#include "core/load_vector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <type_traits>

#include "util/hugepage.hpp"

namespace nb {

load_state::load_state(bin_count n) {
  NB_REQUIRE(n >= 1, "need at least one bin");
  loads_.assign(n, 0);
  // The loads are the hottest random-access buffer in the system (4 MB at
  // paper scale); huge-page backing, when enabled, cuts its dTLB footprint
  // ~500x.  One advice per allocation, execution-only.
  advise_hugepages(loads_.data(), loads_.size() * sizeof(load_t));
  levels_.reset(n);
}

void load_state::reset() {
  std::fill(loads_.begin(), loads_.end(), 0);
  levels_.reset(n());
  balls_ = 0;
  extra_weight_ = 0;
  levels_ok_ = true;
  // Keep the lease channel configured, but no balls are resident anymore.
  lease_head_ = 0;
  lease_count_ = 0;
}

bin_count* level_index::rebuild_begin(bin_count n, load_t mn, load_t mx) {
  NB_ASSERT(n >= 1 && mn <= mx);
  if (mx - mn > max_dense_span) return nullptr;
  base_ = mn;
  min_ = mn;
  max_ = mx;
  n_ = n;
  counts_.assign(static_cast<std::size_t>(mx - mn) + 1, 0);
  return counts_.data();
}

void level_index::count_levels(const load_t* x, std::size_t size, load_t mn, std::size_t levels,
                               bin_count* out) noexcept {
  NB_ASSERT(levels >= 1 && levels <= static_cast<std::size_t>(small_span_levels));
  constexpr std::size_t lanes = histogram_lanes;
  std::array<bin_count, lanes * static_cast<std::size_t>(small_span_levels)> sub;
  std::fill_n(sub.begin(), lanes * levels, bin_count{0});
  std::size_t i = 0;
  for (; i + lanes <= size; i += lanes) {
    for (std::size_t l = 0; l < lanes; ++l) {
      ++sub[l * levels + static_cast<std::size_t>(x[i + l] - mn)];
    }
  }
  for (; i < size; ++i) ++sub[static_cast<std::size_t>(x[i] - mn)];
  for (std::size_t v = 0; v < levels; ++v) {
    bin_count c = 0;
    for (std::size_t l = 0; l < lanes; ++l) c += sub[l * levels + v];
    out[v] = c;
  }
}

bool level_index::rebuild(const std::vector<load_t>& loads, load_t mn, load_t mx) {
  NB_ASSERT(!loads.empty());
  bin_count* counts = rebuild_begin(static_cast<bin_count>(loads.size()), mn, mx);
  if (counts == nullptr) return false;
  const auto levels = static_cast<std::size_t>(mx - mn) + 1;
  if (levels <= static_cast<std::size_t>(small_span_levels)) {
    count_levels(loads.data(), loads.size(), mn, levels, counts);
  } else {
    for (const load_t x : loads) ++counts[static_cast<std::size_t>(x - mn)];
  }
  NB_ASSERT(counts_.front() > 0 && counts_.back() > 0);
  return true;
}

void compact_snapshot::size_for(std::size_t n) {
  n_ = n;
  off_.resize(n_ + tail_padding);
  if (hugepages_enabled() && off_.data() != advised_) {
    // Sized once per frozen window; only re-advise when the buffer
    // actually moved (first use or a growth realloc).
    advise_hugepages(off_.data(), off_.size());
    advised_ = off_.data();
  }
  std::fill_n(off_.data() + n_, tail_padding, std::uint8_t{0});
}

bool compact_snapshot::assign(const std::vector<load_t>& loads) {
  NB_ASSERT(!loads.empty());
  load_t mn = loads.front();
  load_t mx = loads.front();
  for (const load_t x : loads) {
    mn = std::min(mn, x);
    mx = std::max(mx, x);
  }
  base_ = mn;
  ok_ = (mx - mn) <= 255;
  if (!ok_) return false;
  span_ = static_cast<std::uint8_t>(mx - mn);
  size_for(loads.size());
  // Through locals: a byte store may alias any member (n_ included),
  // which would keep the loop from vectorizing.
  const load_t* x = loads.data();
  std::uint8_t* off = off_.data();
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) off[i] = static_cast<std::uint8_t>(x[i] - mn);
  return true;
}

std::uint8_t* compact_snapshot::rewrite_begin(std::size_t n) {
  NB_ASSERT(n >= 1);
  size_for(n);
  return off_.data();
}

bool compact_snapshot::rewrite_end(load_t mn, load_t mx) {
  NB_ASSERT(mn <= mx);
  base_ = mn;
  ok_ = (mx - mn) <= 255;
  if (ok_) span_ = static_cast<std::uint8_t>(mx - mn);
  return ok_;
}

bin_ranges bin_ranges::split(bin_count n, std::size_t target) noexcept {
  const std::uint64_t per_range = target > 1 ? n / target : n;
  // Largest power of two not above per_range, and at least 64 bins.
  const auto width_log2 = static_cast<unsigned>(std::bit_width(per_range | 1)) - 1;
  return {std::max(width_log2, 6u)};
}

void shard_deltas::reset(std::size_t shards, bin_count n) {
  NB_REQUIRE(shards >= 1 && n >= 1, "shard_deltas needs at least one shard and one bin");
  shards_ = shards;
  n_ = n;
  // Pad the stride to whole cache lines and over-allocate one line of
  // slack so row 0 can be skewed onto a line boundary regardless of where
  // the vector's buffer lands (the allocator only guarantees
  // alignof(std::uint16_t)).
  constexpr std::size_t line_entries = row_align_bytes / sizeof(std::uint16_t);
  stride_ = (static_cast<std::size_t>(n) + line_entries - 1) / line_entries * line_entries;
  counts_.assign(shards * stride_ + line_entries, 0);
  const auto addr = reinterpret_cast<std::uintptr_t>(counts_.data());
  base_ = (row_align_bytes - addr % row_align_bytes) % row_align_bytes / sizeof(std::uint16_t);
}

void shard_deltas::sum_rows(std::vector<std::uint32_t>& out, bin_index lo, bin_index hi) const {
  NB_ASSERT(lo <= hi && hi <= n_ && out.size() == n_);
  for (std::size_t s = 0; s < shards_; ++s) {
    const std::uint16_t* r = row(s);
    if (s == 0) {
      for (bin_index i = lo; i < hi; ++i) out[i] = r[i];
    } else {
      for (bin_index i = lo; i < hi; ++i) out[i] += r[i];
    }
  }
}

void shard_deltas::sum_rows(std::vector<std::uint32_t>& out) const {
  out.resize(n_);
  sum_rows(out, 0, n_);
}

// ---------------------------------------------------------------------------
// The window commits' pass over bins.  One portable loop body, instantiated
// under per-function target attributes (like the kernel's AVX2 / AVX-512
// backends) so the compiler vectorizes it at each width; the rest of the
// build stays at the portable baseline, and other hosts run the portable
// instantiation.  Every instantiation computes the same integers, so the
// target is execution only.  The arrival passes are also instantiated per
// count width (uint32 rows, and the kernel engine's byte rows).

namespace {

/// How a pass's count row moves the loads.
enum class pass_kind {
  add,      ///< loads[i] += counts[i] * weight
  release,  ///< loads[i] -= counts[i] * weight
  blend,    ///< add, plus the caller row's blend and bytes, counts zeroed
};

template <typename C>
struct pass_args {
  load_t* loads = nullptr;
  std::size_t n = 0;
  const C* counts = nullptr;  ///< add, release
  C* consumed = nullptr;      ///< blend: the counts, zeroed by the pass
  load_t weight = 1;
  load_t* row = nullptr;        ///< blend
  std::uint8_t* off = nullptr;  ///< blend: the row's bytes, written against off_base
  load_t off_base = 0;
};

/// Exact bounds of the updated loads and (blend) of the blended row.
struct pass_bounds {
  load_t mn;
  load_t mx;
  load_t row_mn;
  load_t row_mx;
};

/// Sum and largest entry of a count row (the validation scan).
struct count_scan {
  step_count total = 0;
  std::uint32_t peak = 0;
};

template <pass_kind K, typename C>
[[gnu::always_inline]] inline pass_bounds pass_body(const pass_args<C>& a) {
  load_t* __restrict x = a.loads;
  const std::size_t n = a.n;
  const load_t w = a.weight;
  load_t mn = std::numeric_limits<load_t>::max();
  load_t mx = 0;
  load_t rmn = std::numeric_limits<load_t>::max();
  load_t rmx = 0;
  if constexpr (K == pass_kind::blend) {
    C* __restrict c = a.consumed;
    load_t* __restrict row = a.row;
    std::uint8_t* __restrict off = a.off;
    const load_t base = a.off_base;
    for (std::size_t i = 0; i < n; ++i) {
      const C count = c[i];
      const load_t v = x[i] + static_cast<load_t>(count) * w;
      x[i] = v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      // Branch-free: at b = n about 37% of the bins get no ball, so a
      // branch on the count would mispredict often.  Bins the window did
      // not touch keep their entry: after departures it may differ from
      // their load, so this is a select, not a copy.  Spelled as a mask
      // blend because GCC turns the equivalent ?: back into a branch.
      const load_t take = static_cast<load_t>(count == 0) - 1;  // ~0 if touched
      const load_t r = (v & take) | (row[i] & ~take);
      row[i] = r;
      off[i] = static_cast<std::uint8_t>(r - base);
      rmn = std::min(rmn, r);
      rmx = std::max(rmx, r);
      c[i] = 0;
    }
  } else {
    const C* __restrict c = a.counts;
    for (std::size_t i = 0; i < n; ++i) {
      const load_t d = static_cast<load_t>(c[i]) * w;
      const load_t v = K == pass_kind::release ? x[i] - d : x[i] + d;
      x[i] = v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  return {mn, mx, rmn, rmx};
}

template <typename C>
[[gnu::always_inline]] inline count_scan scan_body(const C* __restrict c, std::size_t n) {
  step_count total = 0;
  C peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += c[i];
    peak = std::max(peak, c[i]);
  }
  return {total, peak};
}

#if defined(__x86_64__) || defined(__i386__)
#define NB_TGT_AVX2 __attribute__((target("avx2")))
// The same target strings the kernel's AVX2 / AVX-512 backends build with.
#define NB_TGT_AVX512 __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))

template <pass_kind K, typename C>
NB_TGT_AVX2 pass_bounds pass_avx2(const pass_args<C>& a) {
  return pass_body<K>(a);
}
template <pass_kind K, typename C>
NB_TGT_AVX512 pass_bounds pass_avx512(const pass_args<C>& a) {
  return pass_body<K>(a);
}
template <typename C>
NB_TGT_AVX2 count_scan scan_avx2(const C* c, std::size_t n) {
  return scan_body(c, n);
}
template <typename C>
NB_TGT_AVX512 count_scan scan_avx512(const C* c, std::size_t n) {
  return scan_body(c, n);
}
#endif

template <pass_kind K, typename C>
pass_bounds rewrite_loads(kernel_isa isa, const pass_args<C>& a) {
  switch (resolve_kernel_isa(isa)) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx512:
      return pass_avx512<K>(a);
    case kernel_isa::avx2:
      return pass_avx2<K>(a);
#endif
    default:
      return pass_body<K>(a);
  }
}

template <typename C>
count_scan scan_counts(kernel_isa isa, const C* c, std::size_t n) {
  switch (resolve_kernel_isa(isa)) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx512:
      return scan_avx512(c, n);
    case kernel_isa::avx2:
      return scan_avx2(c, n);
#endif
    default:
      return scan_body(c, n);
  }
}

}  // namespace

/// What an arrival commit's update pass reads and writes: `counts` per
/// bin, each ball of weight `weight`; a blend (row != nullptr) also
/// blends `row`, writes `off` against `off_base` and zeroes `consumed`,
/// the same counts.
template <typename C>
struct load_state::window_pass {
  static_assert(std::is_same_v<C, std::uint8_t> || std::is_same_v<C, std::uint32_t>,
                "window counts are bytes or uint32");
  const C* counts = nullptr;
  C* consumed = nullptr;
  load_t weight = 1;
  load_t* row = nullptr;
  std::uint8_t* off = nullptr;
  load_t off_base = 0;
};

template <typename C>
void load_state::check_increments(const C* add, step_count total, std::uint32_t peak,
                                  weight_t weight_per_ball) const {
  NB_REQUIRE(total <= max_run_balls - balls_,
             "window would exceed the run's ball ceiling (max_run_balls)");
  // Same int64-overflow audit as the weighted allocate(), phrased as a
  // division so the bound itself cannot overflow (total * weight_per_ball
  // may exceed int64 at the ceilings' corner).
  NB_REQUIRE(total <= (max_total_weight - total_weight()) / weight_per_ball,
             "window would overflow the total-weight accumulator (max_total_weight)");
  // No bin may cross its 32-bit load.  max_load() + peak * weight bounds
  // every updated bin, so only a window that bound cannot clear pays the
  // exact per-bin check.
  constexpr auto bin_cap = static_cast<weight_t>(std::numeric_limits<load_t>::max());
  if (static_cast<weight_t>(max_load()) + static_cast<weight_t>(peak) * weight_per_ball >
      bin_cap) {
    for (std::size_t i = 0; i < loads_.size(); ++i) {
      NB_REQUIRE(static_cast<weight_t>(loads_[i]) +
                         static_cast<weight_t>(add[i]) * weight_per_ball <=
                     bin_cap,
                 "window would overflow bin " + std::to_string(i) + "'s 32-bit load");
    }
  }
}

template <typename C>
load_state::row_bounds load_state::commit_counts(const window_pass<C>& pass, step_count balls,
                                                 kernel_isa isa, const commit_plan& plan,
                                                 const std::function<void()>& on_accept) {
  NB_ASSERT(!bulk_);
  const bin_count n = this->n();
  const bin_ranges ranges = plan.ranges;
  const std::size_t count = ranges.count(n);
  isa = resolve_kernel_isa(isa);
  const bool blend = pass.row != nullptr;
  // Validate the whole window BEFORE mutating any bin (strong exception
  // safety, like allocate(i, w)): a throw must not leave a prefix of bins
  // inflated while balls_/levels_ still reflect the old state.  One scan
  // over the counts alone yields the ball total and the largest per-bin
  // count.
  std::vector<count_scan> scans(count);
  plan.for_each(count, [&](std::size_t r) {
    if (plan.fill) plan.fill(r);
    const bin_index lo = ranges.lo(r, n);
    scans[r] = scan_counts(isa, pass.counts + lo, ranges.hi(r, n) - lo);
  });
  step_count total = 0;
  std::uint32_t peak = 0;
  for (const count_scan& sc : scans) {
    total += sc.total;
    peak = std::max(peak, sc.peak);
  }
  const weight_t w = pass.weight;
  check_increments(pass.counts, total, peak, w);
  NB_REQUIRE(total == balls, "window counts do not sum to the window's ball count");
  if (on_accept) on_accept();
  // Before the pass, which may zero the counts.
  lease_push_counts(pass.counts, w);
  // The level histogram.  An arrival commit only raises loads, so every
  // new level lies in [min_load(), max_load() + peak * w].  When that
  // window fits small_span_levels, each range counts its slice's levels
  // into its own sub-histogram right after its pass, while the slice is
  // still in cache, and the sub-histograms are summed in range order
  // below; otherwise level_index::rebuild takes one serial pass.
  const load_t lowest = levels_ok_ ? levels_.min_level() : 0;
  const weight_t ceiling =
      static_cast<weight_t>(levels_.max_level()) + static_cast<weight_t>(peak) * w;
  const bool split_levels =
      levels_ok_ && ceiling - lowest < static_cast<weight_t>(level_index::small_span_levels);
  const std::size_t levels = split_levels ? static_cast<std::size_t>(ceiling - lowest) + 1 : 0;
  std::vector<bin_count> sub(count * levels);
  std::vector<pass_bounds> bounds(count);
  plan.for_each(count, [&](std::size_t r) {
    const bin_index lo = ranges.lo(r, n);
    const bin_index hi = ranges.hi(r, n);
    pass_args<C> a;
    a.loads = loads_.data() + lo;
    a.n = hi - lo;
    a.weight = pass.weight;
    if (blend) {
      a.consumed = pass.consumed + lo;
      a.row = pass.row + lo;
      a.off = pass.off + lo;
      a.off_base = pass.off_base;
      bounds[r] = rewrite_loads<pass_kind::blend>(isa, a);
    } else {
      a.counts = pass.counts + lo;
      bounds[r] = rewrite_loads<pass_kind::add>(isa, a);
    }
    if (split_levels) {
      level_index::count_levels(a.loads, a.n, lowest, levels, sub.data() + r * levels);
    }
  });
  pass_bounds b = bounds.front();
  for (const pass_bounds& br : bounds) {
    b.mn = std::min(b.mn, br.mn);
    b.mx = std::max(b.mx, br.mx);
    b.row_mn = std::min(b.row_mn, br.row_mn);
    b.row_mx = std::max(b.row_mx, br.row_mx);
  }
  if (split_levels) {
    bin_count* counts = levels_.rebuild_begin(n, b.mn, b.mx);
    const auto first = static_cast<std::size_t>(b.mn - lowest);
    const auto last = static_cast<std::size_t>(b.mx - lowest);
    for (std::size_t r = 0; r < count; ++r) {
      const bin_count* c = sub.data() + r * levels;
      for (std::size_t v = first; v <= last; ++v) counts[v - first] += c[v];
    }
    levels_ok_ = true;
  } else {
    levels_ok_ = levels_.rebuild(loads_, b.mn, b.mx);
  }
  // A blend's bytes, re-offset to the row's new minimum: the pass wrote
  // (row[i] - off_base) mod 256, and subtracting (row_mn - off_base) mod
  // 256 leaves (row[i] - row_mn) mod 256, the exact offset whenever the
  // row's span fits in a byte -- whichever way the base moved.
  const auto shift = static_cast<std::uint8_t>(b.row_mn - pass.off_base);
  if (blend && b.row_mx - b.row_mn <= 255 && shift != 0) {
    plan.for_each(count, [&](std::size_t r) {
      // Through locals: a byte store may alias anything reached through
      // the captures, which would keep the loop from vectorizing.
      const std::uint8_t by = shift;
      const bin_index lo = ranges.lo(r, n);
      std::uint8_t* off = pass.off + lo;
      const std::size_t size = ranges.hi(r, n) - lo;
      for (std::size_t i = 0; i < size; ++i) off[i] = static_cast<std::uint8_t>(off[i] - by);
    });
  }
  balls_ += total;
  extra_weight_ += total * (w - 1);
  return {b.row_mn, b.row_mx};
}

template <typename C>
void load_state::apply_increments(const std::vector<C>& add, weight_t weight_per_ball,
                                  step_count balls, kernel_isa isa, const commit_plan& plan) {
  NB_REQUIRE(add.size() == loads_.size(), "increment vector must have one entry per bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  window_pass<C> pass;
  pass.counts = add.data();
  pass.weight = static_cast<load_t>(weight_per_ball);
  static_cast<void>(commit_counts(pass, balls, isa, plan, {}));
}

template <typename C>
load_state::row_bounds load_state::commit_window(std::vector<C>& add, weight_t weight_per_ball,
                                                 step_count balls, std::vector<load_t>& row,
                                                 std::uint8_t* off, load_t off_base,
                                                 kernel_isa isa, const commit_plan& plan,
                                                 const std::function<void()>& on_accept) {
  NB_REQUIRE(add.size() == loads_.size(), "increment vector must have one entry per bin");
  NB_REQUIRE(row.size() == loads_.size(), "blended row must have one entry per bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  window_pass<C> pass;
  pass.counts = add.data();
  pass.consumed = add.data();
  pass.weight = static_cast<load_t>(weight_per_ball);
  pass.row = row.data();
  pass.off = off;
  pass.off_base = off_base;
  return commit_counts(pass, balls, isa, plan, on_accept);
}

template <typename C>
void load_state::lease_push_counts(const C* add, weight_t weight_per_ball) {
  if (!lease_on_) return;
  // A merged window has no per-ball arrival order; record residents in
  // bin-index order.  That order is a pure function of the merged counts,
  // so it is identical for every thread count / ISA backend of the engine
  // that produced the window (the windowed engines' own determinism
  // contract) -- it just differs from the serial per-ball order, exactly
  // as the window's sampling already does.
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    for (std::uint32_t k = 0; k < static_cast<std::uint32_t>(add[i]); ++k) {
      lease_push(static_cast<bin_index>(i), weight_per_ball);
    }
  }
}

// The two count widths the window commits take.
template void load_state::apply_increments(const std::vector<std::uint8_t>&, weight_t,
                                           step_count, kernel_isa, const commit_plan&);
template void load_state::apply_increments(const std::vector<std::uint32_t>&, weight_t,
                                           step_count, kernel_isa, const commit_plan&);
template load_state::row_bounds load_state::commit_window(
    std::vector<std::uint8_t>&, weight_t, step_count, std::vector<load_t>&, std::uint8_t*, load_t,
    kernel_isa, const commit_plan&, const std::function<void()>&);
template load_state::row_bounds load_state::commit_window(
    std::vector<std::uint32_t>&, weight_t, step_count, std::vector<load_t>&, std::uint8_t*,
    load_t, kernel_isa, const commit_plan&, const std::function<void()>&);

void load_state::apply_increments(const std::vector<std::int64_t>& delta,
                                  step_count ball_delta) {
  NB_ASSERT(!bulk_);
  NB_REQUIRE(delta.size() == loads_.size(), "delta vector must have one entry per bin");
  NB_REQUIRE(!lease_on_,
             "signed increments cannot maintain the lease ring (use per-ball "
             "allocate/release or release_oldest under lease tracking)");
  // Validate every bin and the totals BEFORE mutating any (strong
  // exception safety, like the unsigned path).
  constexpr auto bin_cap = static_cast<weight_t>(std::numeric_limits<load_t>::max());
  weight_t net = 0;
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    const weight_t updated = static_cast<weight_t>(loads_[i]) + delta[i];
    NB_REQUIRE(updated >= 0, "signed window would underflow bin " + std::to_string(i) +
                                 " (currently " + std::to_string(loads_[i]) + ", delta " +
                                 std::to_string(delta[i]) + ")");
    NB_REQUIRE(updated <= bin_cap, "signed window would overflow bin " + std::to_string(i) +
                                       "'s 32-bit load (currently " +
                                       std::to_string(loads_[i]) + ", delta " +
                                       std::to_string(delta[i]) + ")");
    net += delta[i];
  }
  const step_count balls_after = balls_ + ball_delta;
  const weight_t extra_after = extra_weight_ + (net - ball_delta);
  NB_REQUIRE(balls_after >= 0 && balls_after <= max_run_balls,
             "signed window would leave the ball count out of [0, max_run_balls]");
  NB_REQUIRE(extra_after >= 0,
             "signed window would leave the extra-weight accumulator negative");
  NB_REQUIRE(net <= max_total_weight - total_weight(),
             "window would overflow the total-weight accumulator (max_total_weight)");
  load_t* x = loads_.data();
  load_t mn = std::numeric_limits<load_t>::max();
  load_t mx = 0;
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    x[i] += static_cast<load_t>(delta[i]);
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  levels_ok_ = levels_.rebuild(loads_, mn, mx);
  balls_ = balls_after;
  extra_weight_ = extra_after;
}

void load_state::apply_releases(const std::vector<std::uint32_t>& rel,
                                weight_t weight_per_ball, step_count k, kernel_isa isa) {
  NB_ASSERT(!bulk_);
  NB_REQUIRE(rel.size() == loads_.size(), "release vector must have one entry per bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  NB_REQUIRE(!lease_on_,
             "bulk releases cannot maintain the lease ring (the lease channel "
             "expires per-ball through release_oldest)");
  // Validate every bin and the totals BEFORE mutating any (strong
  // exception safety, matching both apply_increments overloads), with the
  // same bin-and-weight error vocabulary as release(i, w).
  step_count total = 0;
  for (std::size_t i = 0; i < rel.size(); ++i) {
    const weight_t retired = static_cast<weight_t>(rel[i]) * weight_per_ball;
    NB_REQUIRE(retired <= static_cast<weight_t>(loads_[i]),
               "release of weight " + std::to_string(retired) + " would underflow bin " +
                   std::to_string(i) + " (currently " + std::to_string(loads_[i]) + ")");
    total += rel[i];
  }
  NB_REQUIRE(total == k, "departure block counts do not sum to the block size");
  NB_REQUIRE(balls_ >= k, "release with no resident balls");
  NB_REQUIRE(extra_weight_ >= k * (weight_per_ball - 1),
             "departure block of weight " + std::to_string(weight_per_ball) +
                 " per ball exceeds the resident extra weight (" +
                 std::to_string(extra_weight_) + ")");
  pass_args<std::uint32_t> a;
  a.loads = loads_.data();
  a.n = loads_.size();
  a.counts = rel.data();
  a.weight = static_cast<load_t>(weight_per_ball);
  const pass_bounds b = rewrite_loads<pass_kind::release>(isa, a);
  levels_ok_ = levels_.rebuild(loads_, b.mn, b.mx);
  balls_ -= k;
  extra_weight_ -= k * (weight_per_ball - 1);
}

void load_state::save(state_writer& w) const {
  NB_REQUIRE(!bulk_, "cannot checkpoint a load_state inside an open bulk window");
  w.put_vec(loads_);
  w.put_i64(balls_);
  w.put_i64(extra_weight_);
  w.put_bool(lease_on_);
  if (lease_on_) {
    // Linearized FIFO order; the head/capacity split is storage detail.
    std::vector<std::uint64_t> entries(lease_count_);
    for (std::size_t k = 0; k < lease_count_; ++k) {
      entries[k] = lease_slots_[(lease_head_ + k) % lease_slots_.size()];
    }
    w.put_vec(entries);
  }
}

void load_state::restore(state_reader& r) {
  auto loads = r.get_vec<load_t>();
  const std::int64_t balls = r.get_i64();
  const std::int64_t extra = r.get_i64();
  NB_REQUIRE(loads.size() == loads_.size(), "checkpoint bin count does not match this run");
  NB_REQUIRE(balls >= 0 && balls <= max_run_balls, "checkpoint ball count out of range");
  NB_REQUIRE(extra >= 0, "checkpoint extra weight must be non-negative");
  weight_t total = 0;
  for (const load_t x : loads) {
    NB_REQUIRE(x >= 0, "checkpoint loads must be non-negative");
    total += x;
  }
  NB_REQUIRE(total == balls + extra, "checkpoint loads do not sum to the recorded total weight");
  const bool lease_on = r.get_bool();
  std::vector<std::uint64_t> entries;
  if (lease_on) {
    entries = r.get_vec<std::uint64_t>();
    // Under lease tracking every resident ball has exactly one ring entry,
    // and the recorded (bin, weight) pairs must reproduce the loads
    // exactly -- per bin, not just in total.
    NB_REQUIRE(static_cast<std::int64_t>(entries.size()) == balls,
               "checkpoint lease ring does not hold one entry per resident ball");
    std::vector<weight_t> per_bin(loads.size(), 0);
    for (const std::uint64_t slot : entries) {
      const auto bin = static_cast<std::size_t>(slot & 0xFFFFFFFFu);
      const auto weight = static_cast<weight_t>(slot >> 32);
      NB_REQUIRE(bin < loads.size(), "checkpoint lease entry names a bin out of range");
      NB_REQUIRE(weight >= 1 && weight <= max_ball_weight,
                 "checkpoint lease entry weight out of range");
      per_bin[bin] += weight;
    }
    for (std::size_t i = 0; i < loads.size(); ++i) {
      NB_REQUIRE(per_bin[i] == static_cast<weight_t>(loads[i]),
                 "checkpoint lease ring does not reproduce the loads");
    }
  }
  loads_ = std::move(loads);
  advise_hugepages(loads_.data(), loads_.size() * sizeof(load_t));  // new buffer
  balls_ = balls;
  extra_weight_ = extra;
  bulk_ = false;
  levels_ok_ = levels_.rebuild(loads_);
  lease_on_ = lease_on;
  lease_slots_ = std::move(entries);
  lease_head_ = 0;
  lease_count_ = lease_slots_.size();
}

std::vector<double> load_state::normalized() const {
  const double avg = average_load();
  std::vector<double> y(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    y[i] = static_cast<double>(loads_[i]) - avg;
  }
  return y;
}

std::vector<double> load_state::sorted_normalized_desc() const {
  const double avg = average_load();
  std::vector<double> y;
  y.reserve(loads_.size());
  if (levels_ok_) {
    levels_.for_each_level_desc([&](load_t level, bin_count count) {
      y.insert(y.end(), count, static_cast<double>(level) - avg);
    });
  } else {
    // Wide-span weighted regime: the dense level index gave up; one
    // explicit sort keeps the query exact.
    for (const load_t x : loads_) y.push_back(static_cast<double>(x) - avg);
    std::sort(y.begin(), y.end(), std::greater<>());
  }
  return y;
}

bin_count load_state::overloaded_count() const noexcept {
  // x >= avg over integer loads is exactly x >= ceil(avg): count levels in
  // the index instead of scanning all n bins.
  const auto threshold = static_cast<load_t>(std::ceil(average_load()));
  if (levels_ok_) return levels_.count_at_or_above(threshold);
  bin_count over = 0;
  for (const load_t x : loads_) over += x >= threshold ? 1 : 0;
  return over;
}

}  // namespace nb
