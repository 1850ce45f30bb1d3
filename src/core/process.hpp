// The allocation-process abstraction.
//
// A process owns a load_state and knows how to allocate one ball per step
// given a source of randomness.  Concrete processes are plain value types
// (copyable, no virtual calls) so the simulation drivers can be templates
// with fully inlined hot loops; `any_process` adds type erasure for
// registry-style code.
//
// Bulk stepping: the free function `step_many(p, rng, count)` allocates
// `count` balls.  Processes that define a member `step_many(rng, count)`
// get a fused batch loop (amortized snapshot/window maintenance, hoisted
// invariants, and -- through any_process -- one indirect call per chunk
// instead of one per ball); everything else falls back to a plain loop
// over step().  Contract: a member step_many must consume randomness in
// exactly the same order as `count` calls of step(), so per-ball and bulk
// execution are bit-identical for a fixed seed (enforced by the
// step/step_many parity tests).
//
// Event streams: arrivals-only stepping is the degenerate case of the
// general traffic contract.  `advance(p, rng, traffic_spec)` interleaves
// arrivals (via step_many) with departures (via the process's depart(),
// which routes through its model's departure_model); a spec with zero
// departures IS step_many, bit for bit, so every historical stream is an
// event stream with an empty departure channel.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "core/alloc_model.hpp"
#include "core/kernel/kernel.hpp"
#include "core/kernel/kernel_depart.hpp"
#include "core/load_vector.hpp"
#include "rng/rng.hpp"
#include "util/thread_pool.hpp"

namespace nb {

/// The library-wide generator type.  All processes consume randomness from
/// an explicit instance of this; nothing keeps hidden RNG state.
using rng_t = xoshiro256pp;

/// A type that can allocate one ball per step.
template <typename P>
concept single_steppable = requires(P p, rng_t& g) {
  { p.step(g) } -> std::same_as<void>;
};

/// A type with a native fused bulk loop.
template <typename P>
concept bulk_steppable = requires(P p, rng_t& g, step_count c) {
  { p.step_many(g, c) } -> std::same_as<void>;
};

/// Allocates `count` balls: dispatches to the process's fused member
/// `step_many` when it has one, otherwise loops over step().  This is the
/// entry point every driver (simulate, record_trace, the bench harness)
/// uses; both paths draw randomness in the same order, so results are
/// bit-identical either way.
template <single_steppable P>
inline void step_many(P& process, rng_t& rng, step_count count) {
  NB_ASSERT(count >= 0);
  if constexpr (bulk_steppable<P>) {
    process.step_many(rng, count);
  } else {
    for (step_count t = 0; t < count; ++t) process.step(rng);
  }
}

/// Concept every allocation process satisfies.  Bulk stepping is part of
/// the contract, but via the free-function dispatcher above, so processes
/// without a native member step_many keep working through the fallback.
template <typename P>
concept allocation_process = single_steppable<P> &&
    requires(P p, const P cp, rng_t& g, step_count c) {
      { step_many(p, g, c) } -> std::same_as<void>;
      { cp.state() } -> std::convertible_to<const load_state&>;
      { p.reset() } -> std::same_as<void>;
      { cp.name() } -> std::convertible_to<std::string>;
    };

/// A process whose full mid-run state can be serialized and restored.
/// Contract (the whole-simulation generalization of the RNG
/// save/draw/restore/identical-next-draw contract): after
///
///   p.save_checkpoint(w);  ...arbitrary further stepping of p...
///   q.restore_checkpoint(r)   // q freshly constructed with the SAME
///                             // configuration (n, params, model)
///
/// q is indistinguishable from p at the moment of the save -- stepping q
/// and the saved-state p with identical randomness produces bit-identical
/// results.  save_checkpoint must capture every mutable member (loads,
/// ball counts, delay rings, batch snapshots, cached Gaussian halves);
/// configuration (n, process parameters, the alloc_model) is NOT written
/// -- it is the caller's job to rebuild the process from its spec first,
/// and restore_checkpoint must validate sizes against it (throwing
/// nb::contract_error on mismatch, never reading out of bounds).
template <typename P>
concept checkpointable_process = allocation_process<P> &&
    requires(P p, const P cp, state_writer& w, state_reader& r) {
      { cp.save_checkpoint(w) } -> std::same_as<void>;
      { p.restore_checkpoint(r) } -> std::same_as<void>;
    };

/// Samples one bin uniformly at random (One-Choice primitive).
inline bin_index sample_bin(rng_t& rng, bin_count n) {
  return static_cast<bin_index>(bounded(rng, n));
}

// ---------------------------------------------------------------------------
// The generalized (weighting, sampler) contract.
//
// Every library process carries an alloc_model (core/alloc_model.hpp) and
// threads it through its step/step_many loops: bin samples go through the
// model's bin_sampler (uniform = the historical nb::bounded stream, bit
// for bit) and each placed ball deposits the model's ball weight (unit =
// the historical allocate(), drawing no randomness).  Draw order is part
// of the sampling contract: all of a ball's *bin* draws come first, the
// *weight* draw (if the weighting is random) comes after the placement
// decision, immediately before the deposit.

/// A process that exposes the generalized allocation model.  set_model is
/// a configuration call (pre-run); swapping models mid-run is legal but
/// changes the sampling contract from that ball on.
template <typename P>
concept modeled_process = requires(P p, const P cp, alloc_model m) {
  { cp.model() } -> std::convertible_to<const alloc_model&>;
  { p.set_model(m) } -> std::same_as<void>;
};

/// Deposits one decided ball and returns its weight: the unit fast path
/// is the historical allocate(i); weighted models draw the ball's weight
/// (after every bin draw of the step, per the contract above) and take
/// the guarded weighted path.  The returned weight feeds processes whose
/// bookkeeping is weight-denominated (e.g. tau-Delay's hidden-allocation
/// window); most callers ignore it.
inline weight_t deposit(load_state& state, const ball_weighting& weighting, bin_index i,
                        rng_t& rng) {
  if (weighting.is_unit()) {
    state.allocate(i);
    return 1;
  }
  const weight_t w = weighting.draw(rng);
  state.allocate(i, w);
  return w;
}

/// Installs a model on a process: validates it against the state's bin
/// count, switches lease tracking on/off to match the departure channel
/// (enabling requires an empty state, so lease models must be installed
/// before the first arrival), and moves the model into the process's
/// slot.  Every library process's set_model is this one call.
inline void install_model(load_state& state, alloc_model& slot, alloc_model m) {
  check_model(m, state.n());
  state.set_lease_tracking(m.departures.is_lease());
  slot = std::move(m);
}

/// The weight one drain departure retires under `weighting`: the fixed
/// per-ball weight for deterministic non-unit weightings (every resident
/// ball carries exactly that weight, so the departing ball's actual
/// weight is known), one load unit otherwise -- trivially under unit
/// weights, and under RNG-drawn weightings because the load vector
/// cannot recover which weight draw landed where.
[[nodiscard]] inline weight_t drain_weight(const ball_weighting& weighting) {
  return !weighting.is_unit() && !weighting.is_random() ? weighting.fixed_weight() : 1;
}

/// Removes one departure event's worth of load from `state` per the
/// model's departure channel.  The departure counterpart of deposit():
/// every library process's depart() delegates here, so the three channel
/// laws live in exactly one place.
///
///   * random -- one resident load unit uniformly at random: rejection-
///     sample (bin draw, acceptance draw) pairs until a draw lands on
///     resident load.  Uniform over balls under unit weights and weight-
///     proportional otherwise; releases a unit quantum, mirroring how
///     unit arrivals deposit one.
///   * lease -- FIFO expiry: the oldest resident ball departs whole, at
///     its recorded arrival weight (load_state's lease ring).
///   * drain -- weighted two-choice in reverse: sample two bins, release
///     one departing ball's weight (drain_weight above) from the FULLER
///     one that can cover it (ties broken by the next draw's top bit,
///     mirroring the arrival tie-break; pairs where neither bin covers
///     the weight redraw).  Under the unit law this is exactly the
///     historical "release a unit from the fuller non-empty bin", bit
///     for bit; a bin whose load cannot cover the fixed weight (a state
///     the fixed weighting never produces) trips release()'s underflow
///     contract error, naming the bin and the weight.
///
/// Draw order is part of the sampling contract exactly like arrivals:
/// each channel's draws above are exhaustive and consumed in the order
/// listed, so per-event and interleaved execution are bit-identical.
inline void depart_ball(load_state& state, const alloc_model& model, rng_t& rng) {
  const departure_model& departures = model.departures;
  NB_REQUIRE(!departures.is_none(),
             "depart() needs a departure channel, but the model's departure_model is 'none'");
  NB_REQUIRE(state.balls() > 0, "depart() with no resident balls");
  const bin_count n = state.n();
  const auto& loads = state.loads();
  switch (departures.departure_kind()) {
    case departure_model::kind::none:
      return;  // unreachable: guarded above
    case departure_model::kind::random: {
      // Acceptance bound hoisted: the maximum cannot change while we
      // reject, and in the degraded wide-span regime max_load() is an
      // O(n) scan we must not repeat per attempt.
      const auto bound = static_cast<std::uint64_t>(state.max_load());
      for (;;) {
        const auto j = static_cast<bin_index>(bounded(rng, n));
        if (bounded(rng, bound) < static_cast<std::uint64_t>(loads[j])) {
          state.release(j);
          return;
        }
      }
    }
    case departure_model::kind::lease:
      state.release_oldest();
      return;
    case departure_model::kind::drain: {
      const weight_t w = drain_weight(model.weighting);
      for (;;) {
        const auto i = static_cast<bin_index>(bounded(rng, n));
        const auto j = static_cast<bin_index>(bounded(rng, n));
        const load_t li = loads[i];
        const load_t lj = loads[j];
        if (static_cast<weight_t>(li) < w && static_cast<weight_t>(lj) < w) continue;
        bin_index chosen;
        if (li != lj) {
          chosen = li > lj ? i : j;
        } else {
          chosen = (rng.next() >> 63) != 0 ? i : j;
        }
        state.release(chosen, w);
        return;
      }
    }
  }
}

/// A process that can serve one departure event.
template <typename P>
concept departable_process = requires(P p, rng_t& g) {
  { p.depart(g) } -> std::same_as<void>;
};

/// Serves `count` departure events through the process's per-event
/// depart() -- the serial reference law batched paths are measured
/// against.  The per-event stream here IS the historical one, bit for
/// bit; the engines' depart_many draws different (identically
/// distributed) randomness, exactly like their step_many.
template <departable_process P>
inline void depart_many(P& process, rng_t& rng, step_count count) {
  NB_ASSERT(count >= 0);
  for (step_count t = 0; t < count; ++t) process.depart(rng);
}

/// Applies one merged departure block to `state` -- the bulk counterpart
/// of depart_ball, shared by every process's commit_departures.  The
/// lease channel expires the k oldest balls through the ring (RNG-free,
/// bit-identical to k per-event departures; `rel` is ignored); drain and
/// random apply a departure kernel's per-bin counts in one validated
/// pass, retiring the drain weight (resp. unit quanta) per departing
/// ball with release()'s contract-error vocabulary on any overdraw.
/// `isa` is the engine's execution-only target for that pass.
inline void apply_departure_block(load_state& state, const alloc_model& model,
                                  const std::vector<std::uint32_t>& rel, step_count k,
                                  kernel_isa isa) {
  const departure_model& departures = model.departures;
  NB_REQUIRE(!departures.is_none(),
             "commit_departures needs a departure channel, but the model's "
             "departure_model is 'none'");
  switch (departures.departure_kind()) {
    case departure_model::kind::none:
      return;  // unreachable: guarded above
    case departure_model::kind::lease:
      for (step_count t = 0; t < k; ++t) state.release_oldest();
      return;
    case departure_model::kind::drain:
      state.apply_releases(rel, drain_weight(model.weighting), k, isa);
      return;
    case departure_model::kind::random:
      state.apply_releases(rel, 1, k, isa);
      return;
  }
}

/// A process whose departures can be served in merged blocks: it exposes
/// its model (the engines route on the departure channel) and applies a
/// per-bin departure-count row in one commit.  Every library process
/// implements commit_departures via apply_departure_block.
template <typename P>
concept batch_departable = departable_process<P> && modeled_process<P> &&
    requires(P p, const std::vector<std::uint32_t>& rel, step_count k, kernel_isa isa) {
      { p.commit_departures(rel, k, isa) } -> std::same_as<void>;
    };

/// An arrival/departure mix for advance(): `arrivals` balls arrive and
/// `departures` events depart, spread evenly across the stream.
struct traffic_spec {
  step_count arrivals = 0;
  step_count departures = 0;
  /// Departure granularity: departures are served in blocks of up to
  /// `grain` events, the arrival stream cut at the block boundaries
  /// (Bresenham over blocks instead of single events).  <= 1 reproduces
  /// the historical per-event interleave bit for bit.  Coarser grains
  /// are a declared sampling-contract parameter -- they regroup the
  /// stream's draw order -- and exist so engine-batched departure paths
  /// see blocks big enough to amortize (window granularity, e.g. the
  /// churn cycle length).
  step_count grain = 1;
};

/// Runs an event stream through `process`: departures are spread evenly
/// across the arrivals (Bresenham interleave, arrivals first within each
/// slice), each arrival slice going through the bulk step_many dispatcher
/// so fused loops and engines keep their speed under churn.  A spec with
/// departures == 0 is EXACTLY step_many(process, rng, arrivals) -- same
/// call, same draws, bit-identical to every historical stream.
template <single_steppable P>
  requires departable_process<P>
inline void advance(P& process, rng_t& rng, const traffic_spec& traffic) {
  const step_count a = traffic.arrivals;
  const step_count d = traffic.departures;
  const step_count g = traffic.grain > 1 ? traffic.grain : 1;
  NB_ASSERT(a >= 0 && d >= 0);
  if (d == 0) {
    nb::step_many(process, rng, a);
    return;
  }
  step_count placed = 0;
  for (step_count served = 0; served < d;) {
    const step_count block = g < d - served ? g : d - served;
    // The block ends after floor(a*(served+block)/d) arrivals; with
    // grain <= 1 this is the historical per-event Bresenham slice.
    // a,d <= max_run_balls keeps the product well inside int64.
    const step_count upto = a * (served + block) / d;
    nb::step_many(process, rng, upto - placed);
    placed = upto;
    nb::depart_many(process, rng, block);
    served += block;
  }
}

// ---------------------------------------------------------------------------
// Intra-run shard parallelism.
//
// In the paper's batched/delayed settings every allocation decision inside
// one stale-snapshot window depends only on state frozen at the window
// start, so the window's balls are embarrassingly parallel.  A process that
// can expose such windows implements the window_parallel contract below;
// shard_engine then splits each window into a *fixed* number of shards,
// gives every shard its own derived RNG substream
// (shard_stream_seed(window_token, s)), and commits the per-bin counts of
// all shards' choices.  Per-bin counts are sums over the same multiset of
// choices however they are grouped, so for one (seed, shard count) the
// result is bit-identical for ANY thread count -- threads only execute
// shards and bin ranges, they never influence sampling.  Relative to the serial bulk
// path the parallel path draws different (but identically distributed)
// randomness, so serial-vs-parallel agreement is distributional, not
// bitwise; tests enforce both contracts.
//
// The chunk pattern handed to an engine's step_many is also part of the
// sampling contract: a call boundary inside a window splits it into two
// smaller windows (two tokens).  Cuts on window boundaries -- the natural
// checkpoint cadence, e.g. every b balls for b-Batch -- leave the window
// sequence and therefore the results unchanged.

/// A process that can at least *report* whether its upcoming decisions are
/// frozen against a stale snapshot.  tau-Delay models only this probe (its
/// sliding window advances every step, so the answer is always 0 balls);
/// b-Batch models the full window_parallel contract.
template <typename P>
concept window_probed = requires(const P p) {
  { p.snapshot_window() } -> std::convertible_to<step_count>;
};

/// Full intra-run window-parallel contract (two-sample processes):
///   * snapshot_window(): how many upcoming balls decide against frozen
///     state (0 = none; the engine falls back to the serial fused loop),
///   * window_snapshot(): the compact 8-bit snapshot of the frozen loads
///     those decisions read.  The process owns it and keeps it equal to
///     compact_snapshot::assign of those loads; !ok() (span over 255)
///     sends the window to the serial loop.  It must stay unchanged until
///     the window's commit_window, so the engine's shard tasks may read
///     it without a copy,
///   * snapshot_decide(snap, i1, i2, rng): the decision rule over the
///     compact 8-bit snapshot -- must be a pure function of (snap[i1],
///     snap[i2], rng draws),
///   * commit_window(inc, balls, isa, plan): apply the merged per-bin
///     increments and refresh whatever the process keeps stale, the
///     snapshot included (inc[i] balls into bin i, sum(inc) == balls ==
///     the window length the engine ran); `isa` and `plan` (how the
///     commit's passes over bins split into bin ranges and where those
///     run) are the engine's and execution only.  Leaves `inc` zeroed, so
///     the engine reuses it for the next window without a clearing pass.
///     The kernel engine also commits byte rows (kernel_window_parallel).
template <typename P>
concept window_parallel = allocation_process<P> && window_probed<P> &&
    requires(P p, rng_t& g, const std::uint8_t* snap, bin_index i,
             std::vector<std::uint32_t>& inc, step_count k, kernel_isa isa,
             const commit_plan& plan) {
      { p.window_snapshot() } -> std::convertible_to<const compact_snapshot&>;
      { P::snapshot_decide(snap, i, i, g) } -> std::convertible_to<bin_index>;
      { p.commit_window(inc, k, isa, plan) } -> std::same_as<void>;
    };

/// Window-parallel process whose snapshot_decide is the canonical
/// two-sample min rule ("less loaded of the two sampled bins, ties broken
/// by the next draw's top bit") -- declared by the process via
/// `static constexpr bool kernel_min_select = true` and cross-checked
/// against its snapshot_decide by the kernel test suite.  Only such
/// processes run through the lane-interleaved allocation kernel
/// (core/kernel/), which both engines' windows are built on; anything
/// else takes the serial fused loop, with a one-time diagnostic.  Such a
/// process's commit_window also takes the counts as bytes (the kernel
/// engine's row when no bin got 256 or more balls).
template <typename P>
concept kernel_window_parallel = window_parallel<P> &&
    requires(P p, std::vector<std::uint8_t>& inc, step_count k, kernel_isa isa,
             const commit_plan& plan) {
      requires P::kernel_min_select;
      { p.commit_window(inc, k, isa, plan) } -> std::same_as<void>;
    };

namespace engine_detail {

/// The stale-snapshot window walk shared by shard_engine and
/// kernel_engine: cuts `count` at window boundaries (and at `cap`, which
/// deterministically splits oversized windows), routes undersized windows
/// (below `min_window` or shorter than n/4 balls, where the per-window
/// O(n) work would not amortize) and span-saturated snapshots to the
/// serial fused loop on the master stream, and hands every remaining
/// window to `fast(k, snapshot)` with the process's window snapshot.
/// Keeping the routing in one place keeps both engines' window selection
/// identical.
template <window_parallel P, typename Fast>
void walk_windows(P& process, rng_t& rng, step_count count, step_count cap,
                  step_count min_window, const Fast& fast) {
  while (count > 0) {
    const step_count window = process.snapshot_window();
    if (window <= 0) {  // no frozen window: serial for the whole rest
      nb::step_many(process, rng, count);
      return;
    }
    step_count k = window < count ? window : count;
    if (k > cap) k = cap;
    const auto n = static_cast<step_count>(process.state().n());
    if (k < min_window || k * 4 < n) {
      nb::step_many(process, rng, k);
    } else {
      const compact_snapshot& snapshot = process.window_snapshot();
      if (!snapshot.ok()) {
        nb::step_many(process, rng, k);
      } else {
        fast(k, snapshot);
      }
    }
    count -= k;
  }
}

/// The random-weight fallback at the top of both engines' step_many:
/// RNG-drawn ball weights cannot ride the count-merging window path (a
/// merged per-bin count row cannot reconstruct which weight draw landed
/// where), so such runs take the serial fused loop -- accepted but
/// ineffective, said once under "<engine>-weighted/<process>".  `knob`
/// names the option that asked for the engine.  Returns true when it ran
/// the balls.
template <typename P>
bool serial_for_random_weights(P& process, rng_t& rng, step_count count, const char* engine,
                               const char* knob) {
  if constexpr (modeled_process<P>) {
    if (process.model().weighting.is_random()) {
      warn_once(std::string(engine) + "-weighted/" + process.name(),
                std::string(knob) + " has no effect on process '" + process.name() +
                    "' with random ball weighting " + process.model().weighting.label() +
                    ": merged count rows cannot carry per-ball weight draws; "
                    "running the serial fused loop instead");
      nb::step_many(process, rng, count);
      return true;
    }
  }
  return false;
}

/// The departure routing shared by both engines' depart_many.  Processes
/// without commit_departures (with a one-time diagnostic) and the 'none'
/// channel (whose per-event law raises the configuration error) take the
/// serial per-event loop; the lease channel is RNG-free ring popping and
/// commits the whole block at once.  Drain/random blocks are cut at `cap`
/// (deterministically, like walk_windows); a block under `min_window` or
/// shorter than n/4 events (the per-block O(n) snapshot would not
/// amortize), or one for which `block(process, k)` reports span-saturated
/// live loads by returning false, falls back to the serial per-event loop
/// with a one-time diagnostic.  `block` is generic so it is only
/// instantiated for batch-departable processes; `isa` is the engine's
/// target for the commits.
template <typename P, typename Block>
  requires departable_process<P>
void route_departures(P& process, rng_t& rng, step_count count, step_count cap,
                      step_count min_window, kernel_isa isa, const Block& block) {
  NB_ASSERT(count >= 0);
  if (count == 0) return;
  if constexpr (!batch_departable<P>) {
    warn_once("depart-engine/" + process.name(),
              "batched departures have no effect on process '" + process.name() +
                  "': it has no commit_departures (batch_departable); "
                  "running the serial per-event loop instead");
    nb::depart_many(process, rng, count);
  } else {
    const departure_model& departures = process.model().departures;
    if (departures.is_none()) {
      nb::depart_many(process, rng, count);
      return;
    }
    if (departures.is_lease()) {
      process.commit_departures({}, count, isa);
      return;
    }
    const auto n = static_cast<step_count>(process.state().n());
    while (count > 0) {
      const step_count k = count < cap ? count : cap;
      if (k < min_window || k * 4 < n) {
        warn_once("depart-engine-window/" + process.name(),
                  "batched departures fall back to the serial per-event loop on process '" +
                      process.name() +
                      "': departure blocks under min_window (or shorter than n/4 events) "
                      "cannot amortize the per-block snapshot");
        nb::depart_many(process, rng, k);
      } else if (!block(process, k)) {
        warn_once("depart-engine-span/" + process.name(),
                  "batched departures fall back to the serial per-event loop on process '" +
                      process.name() +
                      "': the live load span exceeds the compact snapshot's 8-bit range");
        nb::depart_many(process, rng, k);
      }
      count -= k;
    }
  }
}

}  // namespace engine_detail

class any_process;

/// Configuration for intra-run shard parallelism.  `shards` is part of the
/// sampling contract (changing it changes which substreams exist and hence
/// the drawn randomness); `threads` is execution only and never affects
/// results.
struct shard_options {
  /// Pool workers; 0 = one per hardware core.
  std::size_t threads = 0;
  /// Fixed shard count per window.  Keep it >= the largest thread count
  /// you will run with; the default covers typical desktops/CI runners.
  std::size_t shards = 16;
  /// Windows shorter than this run serially (the per-window task overhead
  /// would dominate); the engine also requires window >= n/4 so the O(n)
  /// commit amortizes.
  step_count min_window = 4096;
  /// Kernel lanes per shard.  Part of the sampling contract exactly like
  /// `shards`: lane seeds derive from the shard substream, so changing
  /// the lane count changes the drawn randomness.
  std::size_t lanes = 8;
  /// Kernel instruction-set backend.  Execution only: backends are
  /// bit-identical for a fixed lane count (kernel contract, enforced by
  /// tests/test_kernel.cpp), so like `threads` this never affects results.
  kernel_isa isa = kernel_isa::auto_detect;
};

/// The intra-run shard-parallel batch engine.  Owns the worker pool and
/// the per-window scratch (the window's choice buffer and count row, the
/// departure blocks' delta rows and snapshot), so one engine instance
/// amortizes both across all windows of a run -- create it once per run
/// (or reuse across runs of the same configuration).
///
/// An arrival window runs in parallel phases on the pool, the calling
/// thread only reducing per-range results between them:
///   1. shard s decides its share of the balls through the allocation
///      kernel (kernel_emit, substream shard_stream_seed(token, s)) and
///      counting-sorts each decided block by bin range into its own
///      stretch of one window-sized choice buffer;
///   2. the process commits the window with every pass over bins split
///      over the same ranges (commit_plan).  Range task r first folds
///      every shard's range-r segments into bins [lo, hi) of one uint32
///      count row -- a slice small enough to stay in the worker's cache
///      -- and then validates, applies and indexes that slice.
/// No shard owns a row of n counters, so nothing is merged or cleared per
/// shard: arrival scratch is O(window), not O(shards x n).
class shard_engine {
 public:
  explicit shard_engine(shard_options opt = {})
      : opt_(opt), isa_(resolve_kernel_isa(opt.isa)), pool_(opt.threads) {
    NB_REQUIRE(opt.shards >= 1, "need at least one shard");
    NB_REQUIRE(opt.min_window >= 1, "min_window must be positive");
    NB_REQUIRE(opt.lanes >= 1 && opt.lanes <= kernel_max_lanes,
               "kernel lanes must be in [1, kernel_max_lanes]");
    // More workers than hardware threads only time-slices (results are
    // thread-count-independent by contract, so oversubscribing buys
    // nothing); this is the threads_per_run > cores trap, say so once.
    warn_if_oversubscribed(pool_.size(), "shard-engine threads_per_run");
  }

  /// A departure block's deferred row clears may still be queued on the
  /// pool; they touch deltas_, which is destroyed before pool_ (reverse
  /// declaration order), so join them first.
  ~shard_engine() { pool_.wait_idle(); }

  [[nodiscard]] const shard_options& options() const noexcept { return opt_; }
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }
  /// The resolved kernel backend this engine's shards execute with.
  [[nodiscard]] kernel_isa isa() const noexcept { return isa_; }

  /// Allocates `count` balls through `process`.  Min-select window-
  /// parallel processes run each sufficiently large stale-snapshot window
  /// across the pool; everything else (and every undersized or saturated
  /// window) takes the serial fused loop, drawing from `rng` exactly like
  /// nb::step_many.
  template <single_steppable P>
  void step_many(P& process, rng_t& rng, step_count count) {
    NB_ASSERT(count >= 0);
    if constexpr (!kernel_window_parallel<P>) {
      // The caller asked for intra-run parallelism (threads_per_run) but
      // this process exposes no min-select snapshot windows -- the request
      // is accepted but has no effect, which has historically been a
      // silent trap.  Say so, once per process kind.
      warn_once("shard-engine/" + process.name(),
                "threads_per_run has no effect on process '" + process.name() +
                    "': it exposes no min-select snapshot windows (kernel_min_select); "
                    "running the serial fused loop instead");
      nb::step_many(process, rng, count);
    } else {
      if (engine_detail::serial_for_random_weights(process, rng, count, "shard-engine",
                                                   "threads_per_run")) {
        return;
      }
      // The window cap is part of the sampling contract: it splits
      // oversized windows deterministically (it depends only on the shard
      // count, never on threads).  It dates from 16-bit per-shard count
      // rows, which arrival windows no longer use, and stays so that no
      // window is re-cut.
      const step_count cap =
          static_cast<step_count>(opt_.shards) * shard_deltas::max_row_count;
      engine_detail::walk_windows(
          process, rng, count, cap, opt_.min_window,
          [&](step_count k, const compact_snapshot& snapshot) {
            run_window(process, rng, k, snapshot);
          });
    }
  }

  /// Type-erased entry point: one virtual call per chunk, then the
  /// template path above on the wrapped concrete type -- the same
  /// windows, draws and diagnostics as calling it on that type directly.
  void step_many(any_process& process, rng_t& rng, step_count count);

  /// Serves `count` departure events through `process`, shard-parallel:
  /// each sufficiently large drain/random block snapshots the live loads,
  /// splits its events across the fixed shard set (shard s serves its
  /// share through the departure kernel on substream
  /// shard_stream_seed(token, s), counting into its own uint16 row), and
  /// merges the rows in fixed shard order.  Shards capacity-check against
  /// the shared snapshot with only their OWN counts, so the merged row
  /// can overdraw a bin; the merge clamps each bin to its snapshot
  /// capacity and re-serves the deficit from the dedicated scalar stream
  /// rng_t(derive_seed(token, shards)) under the serial channel law over
  /// remaining loads -- deterministic, and thread-count invariant exactly
  /// like step_many (threads only execute shards).  Everything else is
  /// engine_detail::route_departures: the lease channel commits in bulk
  /// (RNG-free); undersized blocks and span-saturated loads fall back to
  /// the serial per-event loop with a one-time diagnostic.
  template <single_steppable P>
    requires departable_process<P>
  void depart_many(P& process, rng_t& rng, step_count count) {
    // Same uint16-row overflow cap as arrival windows: chunk oversized
    // blocks deterministically (depends only on the shard count).
    const step_count cap = static_cast<step_count>(opt_.shards) * shard_deltas::max_row_count;
    engine_detail::route_departures(
        process, rng, count, cap, opt_.min_window, isa_,
        [&](auto& batched, step_count k) { return depart_block(batched, rng, k); });
  }

  /// Type-erased entry point (see the step_many overload).
  void depart_many(any_process& process, rng_t& rng, step_count count);

 private:
  /// One shard-parallel departure block of `k` events; false when the
  /// live loads cannot compact (caller falls back to the serial loop).
  template <batch_departable P>
  bool depart_block(P& process, rng_t& rng, step_count k) {
    // The shard tasks reading it are joined before this returns, and the
    // deferred row clears still in flight touch only deltas_.
    if (!snapshot_.assign(process.state().loads())) return false;
    const bin_count n = process.state().n();
    const std::size_t shards = opt_.shards;
    drain_deferred_clears();
    if (deltas_.shards() != shards || deltas_.bins() != n) {
      deltas_.reset(shards, n);
      rows_clean_ = true;
    }
    const std::uint64_t token = rng.next();
    const std::uint8_t* snap = snapshot_.data();
    const load_t base = snapshot_.base();
    const std::uint8_t span = snapshot_.max_off();
    const bool drain =
        process.model().departures.departure_kind() == departure_model::kind::drain;
    const depart_channel channel = drain ? depart_channel::drain : depart_channel::random;
    const weight_t w = drain ? drain_weight(process.model().weighting) : weight_t{1};
    const bool clean = rows_clean_;
    for (std::size_t s = 0; s < shards; ++s) {
      const step_count shard_events =
          k / static_cast<step_count>(shards) +
          (static_cast<step_count>(s) < k % static_cast<step_count>(shards) ? 1 : 0);
      std::uint16_t* row = deltas_.row(s);
      if (shard_events == 0) {
        if (!clean) deltas_.clear_row(s);
        continue;
      }
      pool_.submit([n, snap, base, span, channel, w, row, shard_events, clean,
                    seed = shard_stream_seed(token, s), lanes = opt_.lanes, isa = isa_] {
        if (!clean) std::fill_n(row, n, std::uint16_t{0});
        kernel_depart(isa, lanes, channel, n, snap, base, span, w, row, shard_events, seed);
      });
    }
    pool_.wait_idle();
    rows_clean_ = false;
    merged_.resize(n);
    const auto chunk = static_cast<bin_count>((n + shards - 1) / shards);
    for (bin_index lo = 0; lo < n; lo += chunk) {
      const bin_index hi = lo + chunk < n ? lo + chunk : n;
      pool_.submit([this, lo, hi] { deltas_.sum_rows(merged_, lo, hi); });
    }
    pool_.wait_idle();
    // Clamp and repair: each shard guarded only its own counts, so the
    // merged row may overdraw a bin.  Clamp every bin to its snapshot
    // capacity, then re-serve the deficit serially from the stream one
    // past the shard substreams -- the same law the kernel's drain
    // replay uses, here over the merged remaining loads.
    const auto remaining = [&](bin_index c) -> weight_t {
      return static_cast<weight_t>(base) + snap[c] -
             static_cast<weight_t>(merged_[c]) * w;
    };
    step_count total = 0;
    for (bin_index i = 0; i < n; ++i) {
      const auto capacity = static_cast<std::uint32_t>(
          (static_cast<weight_t>(base) + snap[i]) / w);
      if (merged_[i] > capacity) merged_[i] = capacity;
      total += merged_[i];
    }
    if (total < k) {
      rng_t repair(derive_seed(token, shards));
      const std::uint64_t bound = static_cast<std::uint64_t>(base) + span;
      for (step_count t = total; t < k; ++t) {
        if (!drain) {  // random: rejection-sample over remaining load
          for (;;) {
            const auto j = static_cast<bin_index>(bounded(repair, n));
            if (bounded(repair, bound) < static_cast<std::uint64_t>(remaining(j))) {
              ++merged_[j];
              break;
            }
          }
          continue;
        }
        int attempts = 0;
        for (;;) {
          if (++attempts > 4096) {  // deterministic fullest-bin fallback
            bin_index best = 0;
            weight_t best_rem = remaining(0);
            for (bin_index i = 1; i < n; ++i) {
              const weight_t r = remaining(i);
              if (r > best_rem) {
                best = i;
                best_rem = r;
              }
            }
            NB_REQUIRE(best_rem >= w, "drain departure block cannot retire weight " +
                                          std::to_string(w) +
                                          ": no bin's remaining load covers it");
            ++merged_[best];
            break;
          }
          const auto i = static_cast<bin_index>(bounded(repair, n));
          const auto j = static_cast<bin_index>(bounded(repair, n));
          const weight_t ri = remaining(i);
          const weight_t rj = remaining(j);
          if (ri < w && rj < w) continue;
          const bin_index c =
              ri != rj ? (ri > rj ? i : j) : ((repair.next() >> 63) != 0 ? i : j);
          ++merged_[c];
          break;
        }
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      pool_.submit([this, s] { deltas_.clear_row(s); });
    }
    clears_pending_ = true;
    process.commit_departures(merged_, k, isa_);
    return true;
  }

  /// One arrival window of `k` balls, all decided against `snapshot` (see
  /// the class comment for its phases).
  template <kernel_window_parallel P>
  void run_window(P& process, rng_t& rng, step_count k, const compact_snapshot& snapshot) {
    const bin_count n = process.state().n();
    const std::size_t shards = opt_.shards;
    // Non-uniform bin sampling rides the same window machinery: shards
    // draw their bin pairs from the model's alias table instead of the
    // uniform Lemire path.  The table is immutable for the whole window
    // (the process is not stepped while shards run).
    const alias_table* table = nullptr;
    if constexpr (modeled_process<P>) {
      if (!process.model().sampler.is_uniform()) table = &process.model().sampler.table();
    }
    // At least as many ranges as shards: enough tasks per pass to balance
    // any thread count the shard count is meant for.
    const bin_ranges ranges = bin_ranges::split(n, shards);
    const std::size_t range_count = ranges.count(n);
    if (choices_.size() < static_cast<std::size_t>(k)) choices_.resize(static_cast<std::size_t>(k));
    if (parts_.size() != shards) parts_ = std::vector<shard_part>(shards);
    // commit_window hands the row back zeroed; only a first window, a new
    // n or a refused commit needs the clear.
    if (!inc_clean_ || inc_.size() != n) inc_.assign(n, 0);
    inc_clean_ = false;
    // One draw from the master stream per window; every shard substream
    // derives from this token, so shard results cannot depend on threads.
    const std::uint64_t window_token = rng.next();
    const std::uint8_t* snap = snapshot.data();
    std::uint32_t start = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const step_count shard_balls =
          k / static_cast<step_count>(shards) +
          (static_cast<step_count>(s) < k % static_cast<step_count>(shards) ? 1 : 0);
      shard_part& part = parts_[s];
      part.segments.clear();
      if (shard_balls == 0) continue;
      pool_.submit([this, n, snap, table, ranges, range_count, &part, start, shard_balls,
                    seed = shard_stream_seed(window_token, s)] {
        std::uint32_t pos = start;
        const kernel_sink sink = [&](const std::uint32_t* chosen, std::size_t count) {
          part.partition(ranges.shift, range_count, chosen, count, choices_.data(), pos);
          pos += static_cast<std::uint32_t>(count);
        };
        if (table != nullptr) {
          kernel_emit_alias(isa_, opt_.lanes, n, snap, table->thresholds(), table->aliases(),
                            shard_balls, seed, sink);
        } else {
          kernel_emit(isa_, opt_.lanes, n, snap, shard_balls, seed, sink);
        }
      });
      start += static_cast<std::uint32_t>(shard_balls);
    }
    pool_.wait_idle();
    commit_plan plan;
    plan.ranges = ranges;
    plan.run = [this](std::size_t count, const std::function<void(std::size_t)>& task) {
      pool_.for_each_index(count, task);
    };
    // Range r's counts: every shard's range-r segments, folded into bins
    // [lo, hi) of inc_ -- a slice that stays in the worker's cache.
    plan.fill = [this, range_count](std::size_t r) {
      std::uint32_t* inc = inc_.data();
      const std::uint32_t* choices = choices_.data();
      for (const shard_part& part : parts_) {
        const std::vector<std::uint32_t>& seg = part.segments;
        for (std::size_t j = r; j + 1 < seg.size(); j += range_count + 1) {
          for (std::uint32_t e = seg[j], end = seg[j + 1]; e < end; ++e) ++inc[choices[e]];
        }
      }
    };
    process.commit_window(inc_, k, isa_, plan);
    inc_clean_ = true;
  }

  /// Joins the deferred row clears of the previous departure block (no-op
  /// in the common case where the pool already drained them while the
  /// master thread was busy committing).
  void drain_deferred_clears() {
    if (!clears_pending_) return;
    pool_.wait_idle();
    clears_pending_ = false;
    rows_clean_ = true;
  }

  /// One shard's share of an arrival window's choice buffer, written by
  /// that shard's task alone (cache-line aligned, so two shards'
  /// bookkeeping never false-shares).
  struct alignas(64) shard_part {
    /// Per decided block, range_count + 1 offsets into the choice buffer:
    /// the block's range-r choices sit at [segments[j + r],
    /// segments[j + r + 1]) for the block starting at entry j.  Offsets
    /// fit 32 bits: no window exceeds max_run_balls.
    std::vector<std::uint32_t> segments;
    /// Per-range write cursors of the block being partitioned.
    std::vector<std::uint32_t> cursor;

    /// Counting-sorts one decided block by bin range (bin >> shift) into
    /// out[pos, pos + count) and records its segments.
    void partition(unsigned shift, std::size_t range_count, const std::uint32_t* chosen,
                   std::size_t count, std::uint32_t* __restrict out, std::uint32_t pos) {
      cursor.assign(range_count, 0);
      std::uint32_t* __restrict cur = cursor.data();
      for (std::size_t i = 0; i < count; ++i) ++cur[chosen[i] >> shift];
      const std::size_t first = segments.size();
      segments.resize(first + range_count + 1);
      std::uint32_t* seg = segments.data() + first;
      for (std::size_t r = 0; r < range_count; ++r) {
        seg[r] = pos;
        const std::uint32_t in_range = cur[r];
        cur[r] = pos;
        pos += in_range;
      }
      seg[range_count] = pos;
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t c = chosen[i];
        out[cur[c >> shift]++] = c;
      }
    }
  };

  shard_options opt_;
  kernel_isa isa_;
  thread_pool pool_;
  /// Arrival windows: every shard's choices, range-partitioned per block;
  /// each shard's partition bookkeeping; the window's count row.
  std::vector<std::uint32_t> choices_;
  std::vector<shard_part> parts_;
  std::vector<std::uint32_t> inc_;
  /// inc_ is all zero (the last commit_window returned normally).
  bool inc_clean_ = false;
  /// Departure blocks' snapshot of the live loads (arrival windows read
  /// the process's own window snapshot), per-shard delta rows and their
  /// merge.
  compact_snapshot snapshot_;
  shard_deltas deltas_;
  std::vector<std::uint32_t> merged_;
  /// Deferred-clear state: true while the previous departure block's
  /// row-clear tasks may still be on the pool / once they finished,
  /// respectively.
  bool clears_pending_ = false;
  bool rows_clean_ = false;
};

/// Configuration of the serial kernel engine.  `lanes` is part of the
/// sampling contract (lane streams are derived per window token); `isa`
/// is execution only and never affects results.
struct kernel_options {
  std::size_t lanes = 8;
  kernel_isa isa = kernel_isa::auto_detect;
  /// Windows shorter than this (or shorter than n/4 balls) take the plain
  /// serial fused loop -- the per-window O(n) snapshot/commit would not
  /// amortize.
  step_count min_window = 4096;
};

/// Serial counterpart of shard_engine: every sufficiently large
/// stale-snapshot window runs through the lane-interleaved allocation
/// kernel -- no threads, no shard split, one byte-wide count row --
/// so single-threaded drivers get the SIMD speedup too.  Sampling
/// contract: one token per window from the master stream; lane l of that
/// window draws from derive_seed(token, l).  For a fixed (seed, lanes)
/// the result is bit-identical across ISA backends; like the shard
/// engine it draws different (identically distributed) randomness than
/// the serial fused loop, so agreement with that path is distributional.
class kernel_engine {
 public:
  explicit kernel_engine(kernel_options opt = {})
      : opt_(opt), isa_(resolve_kernel_isa(opt.isa)) {
    NB_REQUIRE(opt.lanes >= 1 && opt.lanes <= kernel_max_lanes,
               "kernel lanes must be in [1, kernel_max_lanes]");
    NB_REQUIRE(opt.min_window >= 1, "min_window must be positive");
  }

  [[nodiscard]] const kernel_options& options() const noexcept { return opt_; }
  /// The resolved backend windows execute with.
  [[nodiscard]] kernel_isa isa() const noexcept { return isa_; }

  /// Allocates `count` balls through `process`: min-select frozen windows
  /// go through the kernel, everything else (and every undersized or
  /// saturated window) takes the serial fused loop, drawing from `rng`
  /// exactly like nb::step_many.
  template <single_steppable P>
  void step_many(P& process, rng_t& rng, step_count count) {
    NB_ASSERT(count >= 0);
    if constexpr (!kernel_window_parallel<P>) {
      // Same accepted-but-ineffective trap as the shard engine: use_kernel
      // only accelerates min-select frozen windows.
      warn_once("kernel-engine/" + process.name(),
                "use_kernel has no effect on process '" + process.name() +
                    "': it exposes no min-select snapshot windows (kernel_min_select); "
                    "running the serial fused loop instead");
      nb::step_many(process, rng, count);
    } else {
      if (engine_detail::serial_for_random_weights(process, rng, count, "kernel-engine",
                                                   "use_kernel")) {
        return;
      }
      // No row-width cap needed: a byte that wraps records a carry, and a
      // run is bounded by max_run_balls anyway.
      engine_detail::walk_windows(
          process, rng, count, max_run_balls, opt_.min_window,
          [&](step_count k, const compact_snapshot& snapshot) {
            // One master-stream draw per window (same cadence as the
            // shard engine), then the whole window decides in the kernel
            // -- the alias lane path when the model samples non-uniformly.
            const std::uint64_t token = rng.next();
            const bin_count n = process.state().n();
            // commit_window hands its row back zeroed (and widen zeroes the
            // byte row); only a first window, a new n or a refused commit
            // needs the reset.
            if (!inc_clean_ || inc_.low.size() != n) inc_.reset(n);
            inc_clean_ = false;
            const alias_table* table = nullptr;
            if constexpr (modeled_process<P>) {
              if (!process.model().sampler.is_uniform()) {
                table = &process.model().sampler.table();
              }
            }
            if (table != nullptr) {
              kernel_run_alias(isa_, opt_.lanes, n, snapshot.data(), table->thresholds(),
                               table->aliases(), inc_, k, token);
            } else {
              kernel_run(isa_, opt_.lanes, n, snapshot.data(), inc_, k, token);
            }
            if (!inc_.wrapped) {
              process.commit_window(inc_.low, k, isa_);
            } else {
              // Some bin got 256 or more balls: commit the uint32 row.
              inc_.widen();
              process.commit_window(inc_.wide, k, isa_);
            }
            inc_clean_ = true;
          });
    }
  }

  /// Type-erased entry point: one virtual call per chunk, then the
  /// template path above on the wrapped concrete type.
  void step_many(any_process& process, rng_t& rng, step_count count);

  /// Serves `count` departure events through `process`.  Sufficiently
  /// large drain/random blocks run the SIMD departure kernel against a
  /// snapshot of the LIVE loads (departures need no frozen window of
  /// their own -- the block freezes its snapshot at the block start, so
  /// windowless processes batch too) with one master-stream token per
  /// block, exactly the step_many cadence.  Everything else is
  /// engine_detail::route_departures: the lease channel commits in bulk
  /// (RNG-free); undersized blocks and span-saturated loads fall back to
  /// the serial per-event loop with a one-time diagnostic -- like every
  /// engine fallback, accepted but ineffective is something the caller
  /// must hear about.
  template <single_steppable P>
    requires departable_process<P>
  void depart_many(P& process, rng_t& rng, step_count count) {
    // No row-width cap: the block counts into one uint32 row, and no
    // valid block exceeds max_run_balls resident balls.
    engine_detail::route_departures(
        process, rng, count, max_run_balls, opt_.min_window, isa_,
        [&](auto& batched, step_count k) { return depart_block(batched, rng, k); });
  }

  /// Type-erased entry point (see the step_many overload).
  void depart_many(any_process& process, rng_t& rng, step_count count);

 private:
  /// One departure block of `k` events through the SIMD departure kernel;
  /// false when the live loads cannot compact (caller falls back to the
  /// serial loop).
  template <batch_departable P>
  bool depart_block(P& process, rng_t& rng, step_count k) {
    if (!snapshot_.assign(process.state().loads())) return false;
    const bin_count n = process.state().n();
    const bool drain =
        process.model().departures.departure_kind() == departure_model::kind::drain;
    const weight_t w = drain ? drain_weight(process.model().weighting) : weight_t{1};
    const std::uint64_t token = rng.next();
    rel_.assign(n, 0);
    kernel_depart(isa_, opt_.lanes, drain ? depart_channel::drain : depart_channel::random, n,
                  snapshot_.data(), snapshot_.base(), snapshot_.max_off(), w, rel_.data(), k,
                  token);
    process.commit_departures(rel_, k, isa_);
    return true;
  }

  kernel_options opt_;
  kernel_isa isa_;
  /// Departure blocks' snapshot of the live loads (arrival windows read
  /// the process's own window snapshot).
  compact_snapshot snapshot_;
  /// Arrival windows' counts.
  byte_counts inc_;
  /// inc_ is all zero (the last commit_window returned normally).
  bool inc_clean_ = false;
  std::vector<std::uint32_t> rel_;
};

/// Type-erased handle so heterogeneous processes can share registries,
/// factories and driver code.  Copy = deep clone.
class any_process {
 public:
  template <allocation_process P>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit wrap is the point.
  any_process(P process) : impl_(std::make_unique<model_t<P>>(std::move(process))) {}

  any_process(const any_process& other) : impl_(other.impl_->clone()) {}
  any_process& operator=(const any_process& other) {
    if (this != &other) impl_ = other.impl_->clone();
    return *this;
  }
  any_process(any_process&&) noexcept = default;
  any_process& operator=(any_process&&) noexcept = default;

  void step(rng_t& rng) { impl_->step(rng); }
  /// One indirect call for the whole chunk; the wrapped process's fused
  /// loop (or the fallback loop) runs fully inlined behind it.
  void step_many(rng_t& rng, step_count count) { impl_->step_many(rng, count); }
  /// One departure event through the wrapped process's channel.  Throws
  /// contract_error when the wrapped type is not departable (pre-churn
  /// process types that never adopted depart()).
  void depart(rng_t& rng) { impl_->depart(rng); }
  /// `count` departure events through the wrapped process's serial
  /// per-event loop -- one indirect call for the whole block.
  void depart_many(rng_t& rng, step_count count) { impl_->depart_many(rng, count); }
  [[nodiscard]] const load_state& state() const { return impl_->state(); }
  void reset() { impl_->reset(); }
  [[nodiscard]] std::string name() const { return impl_->name(); }
  /// Generalized-model plumbing: forwards to the wrapped process when it
  /// models the (weighting, sampler) contract; otherwise only the default
  /// unit/uniform model is accepted (anything else is a configuration
  /// error the caller must hear about).
  void set_model(alloc_model m) { impl_->set_model(std::move(m)); }
  [[nodiscard]] const alloc_model& model() const { return impl_->model(); }
  /// Checkpoint plumbing behind the erasure.  checkpointable() probes the
  /// wrapped type; save/restore on a non-checkpointable process throws
  /// contract_error (drivers probe first and degrade to checkpoint-free
  /// execution with a diagnostic).
  [[nodiscard]] bool checkpointable() const noexcept { return impl_->checkpointable(); }
  void save_checkpoint(state_writer& w) const { impl_->save_checkpoint(w); }
  void restore_checkpoint(state_reader& r) { impl_->restore_checkpoint(r); }
  /// Window probe for checkpoint cadence: balls until the wrapped
  /// process's next stale-snapshot window boundary (0 = no frozen window,
  /// any cut is a boundary).  Checkpoint cuts aligned to this leave the
  /// engines' window sequence -- and therefore the results -- unchanged.
  [[nodiscard]] step_count snapshot_window() const { return impl_->snapshot_window(); }

 private:
  // The engines' any_process overloads cross the erasure through the
  // engine-taking virtuals below: one indirect call per chunk, then the
  // engine's template path on the wrapped concrete type.
  friend class shard_engine;
  friend class kernel_engine;

  struct base {
    virtual ~base() = default;
    virtual void step(rng_t&) = 0;
    virtual void step_many(rng_t&, step_count) = 0;
    virtual void step_many(rng_t&, step_count, shard_engine&) = 0;
    virtual void step_many(rng_t&, step_count, kernel_engine&) = 0;
    virtual void depart(rng_t&) = 0;
    virtual void depart_many(rng_t&, step_count) = 0;
    virtual void depart_many(rng_t&, step_count, shard_engine&) = 0;
    virtual void depart_many(rng_t&, step_count, kernel_engine&) = 0;
    [[nodiscard]] virtual const load_state& state() const = 0;
    virtual void reset() = 0;
    [[nodiscard]] virtual std::string name() const = 0;
    virtual void set_model(alloc_model) = 0;
    [[nodiscard]] virtual const alloc_model& model() const = 0;
    [[nodiscard]] virtual bool checkpointable() const noexcept = 0;
    virtual void save_checkpoint(state_writer&) const = 0;
    virtual void restore_checkpoint(state_reader&) = 0;
    [[nodiscard]] virtual step_count snapshot_window() const = 0;
    [[nodiscard]] virtual std::unique_ptr<base> clone() const = 0;
  };

  template <allocation_process P>
  struct model_t final : base {
    explicit model_t(P p) : process(std::move(p)) {}
    void step(rng_t& rng) override { process.step(rng); }
    void step_many(rng_t& rng, step_count count) override {
      nb::step_many(process, rng, count);
    }
    void step_many(rng_t& rng, step_count count, shard_engine& engine) override {
      engine.step_many(process, rng, count);
    }
    void step_many(rng_t& rng, step_count count, kernel_engine& engine) override {
      engine.step_many(process, rng, count);
    }
    void depart(rng_t& rng) override {
      if constexpr (departable_process<P>) {
        process.depart(rng);
      } else {
        no_departures();
      }
    }
    void depart_many(rng_t& rng, step_count count) override {
      if constexpr (departable_process<P>) {
        nb::depart_many(process, rng, count);
      } else {
        no_departures();
      }
    }
    void depart_many(rng_t& rng, step_count count, shard_engine& engine) override {
      engine_depart(engine, rng, count);
    }
    void depart_many(rng_t& rng, step_count count, kernel_engine& engine) override {
      engine_depart(engine, rng, count);
    }
    template <typename Engine>
    void engine_depart(Engine& engine, rng_t& rng, step_count count) {
      if constexpr (departable_process<P>) {
        engine.depart_many(process, rng, count);
      } else {
        no_departures();
      }
    }
    [[noreturn]] void no_departures() const {
      throw contract_error("process '" + process.name() + "' does not support departures");
    }
    [[nodiscard]] const load_state& state() const override { return process.state(); }
    void reset() override { process.reset(); }
    [[nodiscard]] std::string name() const override { return process.name(); }
    void set_model(alloc_model m) override {
      if constexpr (modeled_process<P>) {
        process.set_model(std::move(m));
      } else {
        NB_REQUIRE(m.is_default(), "process '" + process.name() +
                                       "' does not support weighted/non-uniform allocation");
      }
    }
    [[nodiscard]] const alloc_model& model() const override {
      if constexpr (modeled_process<P>) {
        return process.model();
      } else {
        static const alloc_model default_model{};
        return default_model;
      }
    }
    [[nodiscard]] bool checkpointable() const noexcept override {
      return checkpointable_process<P>;
    }
    void save_checkpoint(state_writer& w) const override {
      if constexpr (checkpointable_process<P>) {
        process.save_checkpoint(w);
      } else {
        throw contract_error("checkpoint save/restore is not supported by process " +
                             process.name());
      }
    }
    void restore_checkpoint(state_reader& r) override {
      if constexpr (checkpointable_process<P>) {
        process.restore_checkpoint(r);
      } else {
        throw contract_error("checkpoint save/restore is not supported by process " +
                             process.name());
      }
    }
    [[nodiscard]] step_count snapshot_window() const override {
      if constexpr (window_probed<P>) {
        return process.snapshot_window();
      } else {
        return 0;
      }
    }
    [[nodiscard]] std::unique_ptr<base> clone() const override {
      return std::make_unique<model_t<P>>(process);
    }
    P process;
  };

  std::unique_ptr<base> impl_;
};

static_assert(allocation_process<any_process>);
static_assert(departable_process<any_process>);

/// Type-erased overload of the serial reference depart_many.
inline void depart_many(any_process& process, rng_t& rng, step_count count) {
  process.depart_many(rng, count);
}

inline void shard_engine::step_many(any_process& process, rng_t& rng, step_count count) {
  process.impl_->step_many(rng, count, *this);
}

inline void shard_engine::depart_many(any_process& process, rng_t& rng, step_count count) {
  process.impl_->depart_many(rng, count, *this);
}

inline void kernel_engine::step_many(any_process& process, rng_t& rng, step_count count) {
  process.impl_->step_many(rng, count, *this);
}

inline void kernel_engine::depart_many(any_process& process, rng_t& rng, step_count count) {
  process.impl_->depart_many(rng, count, *this);
}

}  // namespace nb
