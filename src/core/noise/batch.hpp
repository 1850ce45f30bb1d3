// The b-Batch process [BCEFN'12] (Section 2): balls arrive in consecutive
// batches of size b; load queries during a batch see the loads from the
// *beginning* of the batch, and ties are broken uniformly at random.  The
// first batch therefore behaves exactly like One-Choice (Observation 11.6),
// and b = 1 collapses to Two-Choice.
//
// b-Batch is the fully synchronized instance of tau-Delay with tau = b.
//
// Implementation: a `stale` snapshot vector plus the list of bins touched
// in the current batch; at a batch boundary only the touched bins are
// refreshed, so the total maintenance cost is O(m) for the whole run
// regardless of b (a naive per-batch copy would be O(m/b * n)).  The
// window engines read the stale row through its compact 8-bit snapshot,
// which the process owns: a boundary window commit rewrites it in the same
// pass that applies the window, and every other write to the stale row
// marks it for a rebuild on the next request.
#pragma once

#include <string>
#include <vector>

#include "core/process.hpp"

namespace nb {

class b_batch {
 public:
  b_batch(bin_count n, step_count b) : state_(n), b_(b), stale_(n, 0) {
    NB_REQUIRE(b >= 1, "batch size b must be at least 1");
    touched_.reserve(static_cast<std::size_t>(std::min<step_count>(b, 1 << 20)));
  }

  void step(rng_t& rng) {
    step_one(rng, state_.n());
    if (state_.balls() % b_ == 0) refresh_snapshot();
  }

  /// Fused bulk loop: the batch-boundary test moves out of the per-ball
  /// path -- each inner chunk runs to the next boundary with no modulo,
  /// then the snapshot refresh is paid once per batch.
  void step_many(rng_t& rng, step_count count) {
    const bin_count n = state_.n();
    const load_state::bulk_window window(state_, count);
    while (count > 0) {
      const step_count to_boundary = b_ - (state_.balls() % b_);
      const step_count chunk = count < to_boundary ? count : to_boundary;
      for (step_count t = 0; t < chunk; ++t) step_one(rng, n);
      if (chunk == to_boundary) refresh_snapshot();
      count -= chunk;
    }
  }

  [[nodiscard]] const load_state& state() const noexcept { return state_; }

  void reset() {
    state_.reset();
    std::fill(stale_.begin(), stale_.end(), 0);
    touched_.clear();
    snapshot_fresh_ = false;
  }

  [[nodiscard]] std::string name() const {
    const std::string base = "b-batch[b=" + std::to_string(b_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] step_count batch_size() const noexcept { return b_; }

  void set_model(alloc_model m) { install_model(state_, model_, std::move(m)); }
  [[nodiscard]] const alloc_model& model() const noexcept { return model_; }

  /// One departure event through the model's channel (see depart_ball).
  void depart(rng_t& rng) { depart_ball(state_, model_, rng); }
  /// Applies one engine-merged departure block (see apply_departure_block).
  void commit_departures(const std::vector<std::uint32_t>& rel, step_count k, kernel_isa isa) {
    apply_departure_block(state_, model_, rel, k, isa);
  }

  /// The load of bin i as reported during the current batch (for tests).
  [[nodiscard]] load_t reported_load(bin_index i) const { return stale_[i]; }

  /// Checkpoint contract.  The stale snapshot is real mid-run state (it
  /// froze at the last batch boundary, which the current loads cannot
  /// reconstruct), so it is serialized along with the touched list.
  void save_checkpoint(state_writer& w) const {
    state_.save(w);
    w.put_vec(stale_);
    w.put_vec(touched_);
  }
  void restore_checkpoint(state_reader& r) {
    state_.restore(r);
    auto stale = r.get_vec<load_t>();
    auto touched = r.get_vec<bin_index>();
    NB_REQUIRE(stale.size() == stale_.size(), "checkpoint snapshot size does not match this run");
    const auto n = static_cast<bin_index>(state_.n());
    for (const load_t x : stale) {
      NB_REQUIRE(x >= 0, "checkpoint snapshot loads must be non-negative");
    }
    for (const bin_index i : touched) {
      NB_REQUIRE(i < n, "checkpoint touched-bin index out of range");
    }
    stale_ = std::move(stale);
    touched_ = std::move(touched);
    snapshot_fresh_ = false;
  }

  // --- window-parallel contract (see process.hpp) ------------------------
  // b-Batch is the fully synchronized batched model: every ball until the
  // next batch boundary decides against the snapshot taken at the batch
  // start, so those balls are embarrassingly parallel.

  /// Balls until the next snapshot refresh; always in [1, b].
  [[nodiscard]] step_count snapshot_window() const noexcept {
    return b_ - state_.balls() % b_;
  }

  /// The compact snapshot of the frozen loads the current batch's
  /// decisions read.  Kept current by boundary window commits; rebuilt
  /// here (compact_snapshot::assign) after any other write to them.
  [[nodiscard]] const compact_snapshot& window_snapshot() {
    if (!snapshot_fresh_) {
      snapshot_.assign(stale_);
      snapshot_fresh_ = true;
    }
    return snapshot_;
  }

  /// b-Batch's snapshot_decide IS the canonical two-sample min rule, so
  /// its windows may run through the lane-interleaved SIMD kernel (the
  /// kernel_window_parallel contract; cross-checked by test_kernel.cpp).
  static constexpr bool kernel_min_select = true;

  /// One b-Batch decision over the compact snapshot: less loaded of the
  /// two sampled bins, ties by a fair coin -- the same rule as step_one,
  /// reading 8-bit offsets (order-preserving: common base, no saturation
  /// by compact_snapshot's contract) instead of 32-bit loads.
  static bin_index snapshot_decide(const std::uint8_t* snap, bin_index i1, bin_index i2,
                                   rng_t& rng) {
    const std::uint8_t s1 = snap[i1];
    const std::uint8_t s2 = snap[i2];
    if (s1 < s2) return i1;
    if (s2 < s1) return i2;
    return coin_flip(rng) ? i1 : i2;
  }

  /// Applies a merged window delta (inc[i] balls into bin i, all decided
  /// against the current snapshot) and refreshes exactly like the serial
  /// path: at a batch boundary the touched bins are re-read from the true
  /// loads, and the commit's passes over bins (load_state::commit_window,
  /// dispatched to `isa` and split by `plan`) blend the window's bins into
  /// the stale row and rewrite the compact snapshot; mid-batch (a partial
  /// window) they are only recorded as touched so a later boundary refresh
  /// covers them, and the snapshot stays as it is.  Each counted ball
  /// deposits the model's (deterministic) weight; the engines never route
  /// random weightings here.  The counts are uint32 or bytes (the kernel
  /// engine's rows); either way sum(inc) must equal `balls`, partial
  /// windows included, since the batch boundary is keyed on the ball
  /// count.  Leaves `inc` zeroed; a refused window (contract_error) leaves
  /// it and the process unchanged.
  template <typename C>
  void commit_window(std::vector<C>& inc, step_count balls, kernel_isa isa,
                     const commit_plan& plan = {}) {
    NB_ASSERT(balls >= 1 && balls <= snapshot_window());
    const weight_t w = model_.weighting.fixed_weight();
    if (balls < snapshot_window()) {
      state_.apply_increments(inc, w, balls, isa, plan);
      const bin_count n = state_.n();
      for (bin_index i = 0; i < n; ++i) {
        if (inc[i] != 0) {
          touched_.push_back(i);
          inc[i] = 0;
        }
      }
      return;
    }
    const load_t base = snapshot_.base();
    std::uint8_t* off = snapshot_.rewrite_begin(stale_.size());
    // Bins touched earlier in the batch take their load before this
    // window -- once the window passed validation, so a refused one
    // leaves stale_ as it was.
    const auto [mn, mx] = state_.commit_window(inc, w, balls, stale_, off, base, isa, plan, [this] {
      if (!touched_.empty()) refresh_snapshot();
    });
    snapshot_.rewrite_end(mn, mx);
    snapshot_fresh_ = true;
  }

 private:
  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t s1 = stale_[i1];
    const load_t s2 = stale_[i2];
    bin_index chosen;
    if (s1 < s2) {
      chosen = i1;
    } else if (s2 < s1) {
      chosen = i2;
    } else {
      chosen = coin_flip(rng) ? i1 : i2;  // the paper specifies random ties
    }
    deposit(state_, model_.weighting, chosen, rng);
    touched_.push_back(chosen);
  }

  void refresh_snapshot() {
    for (const bin_index i : touched_) stale_[i] = state_.load(i);
    touched_.clear();
    snapshot_fresh_ = false;
  }

  load_state state_;
  alloc_model model_;
  step_count b_;
  std::vector<load_t> stale_;
  std::vector<bin_index> touched_;
  /// Derived from stale_, never serialized: its compact form, valid while
  /// snapshot_fresh_.
  compact_snapshot snapshot_;
  bool snapshot_fresh_ = false;
};

static_assert(allocation_process<b_batch>);
static_assert(window_parallel<b_batch>);
static_assert(modeled_process<b_batch>);
static_assert(checkpointable_process<b_batch>);
static_assert(departable_process<b_batch>);

}  // namespace nb
