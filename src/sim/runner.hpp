// Simulation drivers: run a process for m balls, repeat with independent
// seeds (in parallel), and collect the gap statistics the paper reports.
//
// Determinism: run r of an experiment with master seed s always uses RNG
// seed derive_seed(s, r), so results are bit-identical for any thread
// count.  All drivers move balls through step_many (the bulk allocation
// path), so even the any_process overloads pay one indirect call per chunk
// rather than one per ball, with the process's fused loop inlined behind
// it.
#pragma once

#include <cmath>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/process.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "util/cli.hpp"
#include "util/hugepage.hpp"
#include "util/thread_pool.hpp"

namespace nb {

/// Outcome of one simulated run.
struct run_result {
  double gap = 0.0;          ///< Gap(m) = max load - m/n
  double underload_gap = 0.0;///< m/n - min load
  load_t max_load = 0;
  load_t min_load = 0;
  step_count balls = 0;
  std::uint64_t seed = 0;
};

/// THE engine-selection struct, shared by every driver that moves balls
/// (run_repeated_with, the campaign orchestrator, the checkpointed-run
/// driver, the churn driver).  threads_per_run > 0 selects the shard
/// engine, else use_kernel the serial kernel engine, else the plain fused
/// loop.  shards / use_kernel / lanes are part of the sampling contract;
/// threads_per_run and isa are execution-only and never affect results.
struct engine_config {
  /// > 0 routes every run through the intra-run shard engine with this
  /// many workers per run (see process.hpp): stale-snapshot windows (e.g.
  /// b-Batch batches) run shard-parallel inside each run.  Results depend
  /// on `shards`, never on this thread count.  Processes without parallel
  /// windows run serially regardless, with a one-time warn_once.
  std::size_t threads_per_run = 0;
  /// Fixed shard count for the intra-run engine (sampling contract).
  std::size_t shards = 16;
  /// threads_per_run == 0 only: move runs through the lane-interleaved
  /// allocation kernel (kernel_engine) instead of the plain fused loop --
  /// the single-threaded SIMD path.
  bool use_kernel = false;
  /// Kernel lanes for both engines (sampling contract, like `shards`).
  std::size_t lanes = 8;
  /// Kernel ISA backend for both engines (execution only; bit-identical
  /// across backends).
  kernel_isa isa = kernel_isa::auto_detect;
};

/// The one mapping from the shared engine flag family (util/cli.hpp) to an
/// engine_config: --kernel off keeps the fused loop, any backend name
/// selects the kernel engine (unless --threads-per-run selects the shard
/// engine, which runs the kernel inside its shards) with that backend.
/// Throws contract_error on an unknown --kernel name or too many --lanes.
/// --hugepages is not an engine field; callers apply it themselves.
[[nodiscard]] engine_config engine_config_from_flags(const engine_flag_values& flags);

/// One run's engine: owns the optional shard/kernel engine the options
/// select and presents a single step() entry point, so drivers stop
/// duplicating the three-way dispatch.  Create one per run (the engines
/// amortize their scratch across all chunks of that run).
class run_engine {
 public:
  explicit run_engine(const engine_config& opt) {
    if (opt.threads_per_run > 0) {
      shard_.emplace(shard_options{.threads = opt.threads_per_run,
                                   .shards = opt.shards,
                                   .lanes = opt.lanes,
                                   .isa = opt.isa});
      fingerprint_ = "shard[shards=" + std::to_string(opt.shards) +
                     ",lanes=" + std::to_string(opt.lanes) + "]";
    } else if (opt.use_kernel) {
      kernel_.emplace(kernel_options{.lanes = opt.lanes, .isa = opt.isa});
      fingerprint_ = "kernel[lanes=" + std::to_string(opt.lanes) + "]";
    } else {
      fingerprint_ = "serial";
    }
    churn_fingerprint_ = fingerprint_;
    if (shard_.has_value() || kernel_.has_value()) {
      // Engine-selected runs serve departure blocks through the batched
      // path, an additional sampling-contract parameter the insertion
      // fingerprint does not carry (insertion-only journals stay
      // restorable across this change).
      churn_fingerprint_.insert(churn_fingerprint_.size() - 1, ",depart=batch");
    }
  }

  /// Allocates `count` balls through the selected engine's step_many (or
  /// nb::step_many for the serial engine).
  template <single_steppable P>
  void step(P& process, rng_t& rng, step_count count) {
    if (shard_.has_value()) {
      shard_->step_many(process, rng, count);
    } else if (kernel_.has_value()) {
      kernel_->step_many(process, rng, count);
    } else {
      nb::step_many(process, rng, count);
    }
  }

  /// Serves `count` departure events through the selected engine: the
  /// SIMD departure kernel (shard-parallel or serial) for qualifying
  /// drain/random blocks, the bulk lease pop, or the serial per-event
  /// reference loop.
  template <single_steppable P>
    requires departable_process<P>
  void depart(P& process, rng_t& rng, step_count count) {
    if (shard_.has_value()) {
      shard_->depart_many(process, rng, count);
    } else if (kernel_.has_value()) {
      kernel_->depart_many(process, rng, count);
    } else {
      nb::depart_many(process, rng, count);
    }
  }

  /// The engine's sampling-contract identity: mode plus the parameters
  /// that influence the drawn randomness (shards, lanes) -- and nothing
  /// execution-only (threads, ISA backend).  A checkpoint written under
  /// one fingerprint may only be restored under the same one; resuming
  /// with a different thread count or ISA is legal by construction.
  [[nodiscard]] const std::string& fingerprint() const noexcept { return fingerprint_; }

  /// The sampling-contract identity of runs that also serve departures
  /// through this engine (churn runs): equal to fingerprint() for the
  /// serial engine, and tagged with the batched-departure contract for
  /// the shard/kernel engines (e.g. "kernel[lanes=8,depart=batch]") --
  /// a churn checkpoint written under the batched path must not resume
  /// under a pre-batch journal's engine, and vice versa.  Insertion-only
  /// checkpoints keep using fingerprint(), which is unchanged.
  [[nodiscard]] const std::string& churn_fingerprint() const noexcept {
    return churn_fingerprint_;
  }

 private:
  std::optional<shard_engine> shard_;
  std::optional<kernel_engine> kernel_;
  std::string fingerprint_;
  std::string churn_fingerprint_;
};

/// Options for repeated runs.
struct repeat_options {
  std::size_t runs = 10;
  std::uint64_t master_seed = 1;
  /// 0 = one thread per hardware core.
  std::size_t threads = 0;
  /// Every run's engine.  engine.threads_per_run is intended for few, huge
  /// runs -- combined with `threads` > 1 the two multiply.
  engine_config engine;
  /// Generalized allocation model applied to every run's process (specs
  /// per make_weighting / make_sampler).  The defaults leave the factory's
  /// processes untouched, so historical call sites are bit-identical.
  /// Both are part of the sampling contract.
  std::string weighting = "unit";
  std::string sampler = "uniform";
  /// Request transparent-huge-page backing for the load array and compact
  /// snapshot of every run (see util/hugepage.hpp).  Execution-only and
  /// fail-soft: results never depend on it, and a refused madvise quietly
  /// degrades to normal pages.  Also reachable via NB_HUGEPAGES=1.
  bool hugepages = false;
};

/// Aggregate over repetitions of one configuration.
struct repeat_result {
  std::vector<run_result> runs;
  /// Histogram of gaps rounded to the nearest integer (exact when n | m,
  /// which holds for every paper experiment).
  int_histogram gap_histogram;

  [[nodiscard]] summary gap_summary() const;
  [[nodiscard]] double mean_gap() const;
};

namespace detail {
template <typename P>
run_result collect_run_result(const P& process) {
  run_result r;
  const load_state& s = process.state();
  r.gap = s.gap();
  r.underload_gap = s.underload_gap();
  r.max_load = s.max_load();
  r.min_load = s.min_load();
  r.balls = s.balls();
  return r;
}

template <typename P>
void check_run_ceiling(const P& process, step_count m) {
  NB_REQUIRE(m >= 0, "ball count must be non-negative");
  NB_REQUIRE(process.state().balls() + m <= max_run_balls,
             "run would overflow the per-bin load representation (max_run_balls)");
}
}  // namespace detail

/// Runs `process` (from its current state) for `m` additional balls via
/// the bulk path (one step_many call; bit-identical to the per-ball loop).
template <allocation_process P>
run_result simulate(P& process, step_count m, rng_t& rng) {
  detail::check_run_ceiling(process, m);
  step_many(process, rng, m);
  return detail::collect_run_result(process);
}

/// Engine-routed variant: moves the m balls through whichever engine the
/// options selected (run_engine).  This is what run_repeated_with and the
/// campaign cells use.  Same observables as simulate(); the shard and
/// kernel engines draw different (identically distributed) randomness
/// than the serial path, bit-identical for any thread count or ISA.
template <allocation_process P>
run_result simulate_with(P& process, step_count m, rng_t& rng, run_engine& engine) {
  detail::check_run_ceiling(process, m);
  engine.step(process, rng, m);
  return detail::collect_run_result(process);
}

/// Runs `factory()` for m balls, `opt.runs` times with derived seeds, in
/// parallel, and aggregates.  The factory must yield a fresh process (same
/// configuration) on every call and must be safe to call concurrently.
template <typename Factory>
repeat_result run_repeated_with(Factory&& factory, step_count m, const repeat_options& opt) {
  NB_REQUIRE(opt.runs >= 1, "need at least one run");
  // Scoped huge-page request: the knob is process-global (the allocation
  // sites in load_state / compact_snapshot consult it), so raise it for
  // the duration of this call and restore on every exit path.  The knob
  // only adds an madvise; it never lowers an environment-enabled setting.
  struct hugepage_scope {
    bool prev = hugepages_enabled();
    explicit hugepage_scope(bool want) {
      if (want) set_hugepages_enabled(true);
    }
    ~hugepage_scope() { set_hugepages_enabled(prev); }
  } hp_scope(opt.hugepages);
  // Build the shared allocation model ONCE on the caller's thread (alias
  // tables are O(n) to construct -- zipf alone is one pow per bin) and
  // copy it into every run; this also validates the specs before any pool
  // task starts.  Applied after construction so any factory-provided model
  // loses to an explicit request; the default spec never touches the
  // process.
  const bool custom_model = opt.weighting != "unit" || opt.sampler != "uniform";
  alloc_model shared_model;
  if (custom_model) {
    auto probe = factory();
    using P = std::remove_cvref_t<decltype(probe)>;
    if constexpr (modeled_process<P> || std::is_same_v<P, any_process>) {
      shared_model = make_model(opt.weighting, opt.sampler, probe.state().n());
      probe.set_model(shared_model);  // validates sampler bins against n
    } else {
      throw contract_error("process '" + probe.name() +
                           "' does not support weighted/non-uniform allocation");
    }
  }
  std::vector<run_result> results(opt.runs);
  // Weighted runs can fail mid-flight (guarded per-bin/total overflow);
  // pool tasks are noexcept by contract, so capture the first error and
  // rethrow it here instead of terminating.
  std::mutex error_mutex;
  std::exception_ptr first_error;
  parallel_for(opt.runs, opt.threads, [&](std::size_t r) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error) return;
    }
    try {
      auto process = factory();
      if (custom_model) {
        using P = std::remove_cvref_t<decltype(process)>;
        if constexpr (modeled_process<P> || std::is_same_v<P, any_process>) {
          process.set_model(shared_model);
        }
      }
      rng_t rng(derive_seed(opt.master_seed, r));
      run_engine engine(opt.engine);
      results[r] = simulate_with(process, m, rng, engine);
      results[r].seed = derive_seed(opt.master_seed, r);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
  repeat_result agg;
  agg.runs = std::move(results);
  for (const auto& r : agg.runs) {
    agg.gap_histogram.add(static_cast<std::int64_t>(std::llround(r.gap)));
  }
  return agg;
}

/// Dynamic-process convenience overload.
repeat_result run_repeated(const std::function<any_process()>& factory, step_count m,
                           const repeat_options& opt);

}  // namespace nb
