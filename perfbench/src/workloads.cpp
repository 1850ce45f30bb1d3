#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "host.hpp"
#include "ledger.hpp"
#include "noisebalance.hpp"
#include "reference.hpp"
#include "util/host_info.hpp"

namespace perfbench {

namespace {

using nb::step_count;

const std::vector<std::string> channels = {"random", "lease", "drain"};
const std::vector<std::string> table_kinds = {"g-bounded", "g-myopic", "sigma-noisy-load"};

struct metric_def {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off.  Their
/// names, units and bounds are recorded in BENCHMARK.json.
const std::vector<metric_def>& end_to_end_metrics() {
  static const std::vector<metric_def> defs = {
      {"balls_per_s", "balls/s"},
      {"events_per_s.random", "events/s"},
      {"events_per_s.lease", "events/s"},
      {"events_per_s.drain", "events/s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return defs;
}

/// Per-layer metrics, reported by every workload with tracing on (0 where
/// a workload does not exercise the layer).
const std::vector<metric_def>& per_layer_metrics() {
  static const std::vector<metric_def> defs = {
      {"setup.make_process_s", "s"},
      {"setup.engine_s", "s"},
      {"setup.warmup_s", "s"},
      {"alloc.busy_s", "s"},
      {"alloc.calls", "count"},
      {"alloc.balls_per_busy_s", "balls/s"},
      {"kernel.windows", "count"},
      {"kernel.draws_computed", "count"},
      {"kernel.bytes_computed", "B"},
      {"observe.busy_s", "s"},
      {"observe.calls", "count"},
      {"checkpoint.capture_s", "s"},
      {"checkpoint.write_s", "s"},
      {"checkpoint.bytes", "B"},
      {"checkpoint.count", "count"},
      {"shard.parallel_efficiency", "ratio"},
      {"churn.arrive_s.random", "s"},
      {"churn.arrive_s.lease", "s"},
      {"churn.arrive_s.drain", "s"},
      {"churn.depart_s.random", "s"},
      {"churn.depart_s.lease", "s"},
      {"churn.depart_s.drain", "s"},
      {"churn.depart_events_per_busy_s.random", "events/s"},
      {"churn.depart_events_per_busy_s.lease", "events/s"},
      {"churn.depart_events_per_busy_s.drain", "events/s"},
      {"campaign.cells", "count"},
      {"campaign.cell_busy_s", "s"},
      {"campaign.worker_busy_frac", "ratio"},
      {"campaign.idle_s", "s"},
      {"fused.balls_per_busy_s.g-bounded", "balls/s"},
      {"fused.balls_per_busy_s.g-myopic", "balls/s"},
      {"fused.balls_per_busy_s.sigma-noisy-load", "balls/s"},
      {"engine.fallbacks", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.span_coverage_frac", "ratio"},
      {"failed_frac", "ratio"},
  };
  return defs;
}

// paper_batch / paper_batch_shard: b-Batch with b = n at the paper's
// m = 100 n, observed after every window.
constexpr nb::bin_count batch_n = 1'000'000;
constexpr step_count batch_b = batch_n;
constexpr step_count batch_m = 100 * batch_n;
constexpr step_count batch_windows = batch_m / batch_b;
constexpr step_count windows_per_checkpoint = 25;

// steady_churn: occupancy = cycle = n, ten cycles per departure channel.
constexpr nb::bin_count churn_n = 1'000'000;
constexpr step_count churn_pairs = 10 * churn_n;

// table_12_3: the paper's n = 1e4, m = 1000 n.
constexpr nb::bin_count table_n = 10'000;
constexpr step_count table_m = 1000 * table_n;

/// Set-ups timed per untraced rep of paper_batch, paper_batch_shard and
/// table_12_3, whose set-up takes about a millisecond or less.
constexpr std::size_t setup_samples_per_rep = 20;

/// Bytes one kernel window moves, by the kernel engine's layout: an n-byte
/// snapshot, a 4n-byte count row, and a read and a write of the 4-byte loads.
constexpr double kernel_bytes_per_bin_window = 1.0 + 4.0 + 8.0;
/// The kernel draws at least three u64 per ball (two bin indices, a tie bit).
constexpr double kernel_draws_per_ball = 3.0;

// ---------------------------------------------------------------------------
// Outcomes and checks.

/// Outcome of one rep.
struct rep_outcome {
  double setup_s = 0.0;
  /// setup_s plus, in untraced reps, timings of further identical set-ups
  /// made after the work: setup_s is reported as their median.
  std::vector<double> setup_samples;
  double work_s = 0.0;  ///< measured wall time after set-up
  /// Share of the machine's CPU time the hypervisor stole during the rep
  /// (untraced reps): a rep stolen from heavily is left out of the
  /// end-to-end metrics (least_stolen).
  double stolen_frac = 0.0;
  std::map<std::string, double> rates;
  std::map<std::string, double> layers;  ///< traced reps only
  /// Digest of the final loads (one per process the rep ran), and the
  /// campaign JSON for table_12_3: what a traced rep must reproduce.
  std::vector<std::uint64_t> digests;
  std::string result_json;
  std::vector<double> gaps;  ///< final gap per process / campaign cell
  /// Engine path: the engine's sampling-contract fingerprint and the
  /// names of the processes it ran (fallback diagnostics are keyed on them).
  std::string fingerprint;
  std::vector<std::string> process_names;
};

/// Counts operations and failed checks.
struct check_log {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> messages;

  void fail(const std::string& what) {
    ++failed;
    if (messages.size() < 20) messages.push_back("FAILED: " + what);
  }
  /// Records one operation with its outcome; `what` is built only on failure.
  void op(bool ok, const std::function<std::string()>& what) {
    ++attempted;
    if (!ok) fail(what());
  }
  void expect(bool ok, const std::function<std::string()>& what) {
    if (!ok) fail(what());
  }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::uint64_t digest(const std::vector<nb::load_t>& loads) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nb::load_t x : loads) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t load_sum(const nb::load_state& s) {
  return std::accumulate(s.loads().begin(), s.loads().end(), std::int64_t{0});
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

void check_gap(check_log& log, const std::string& what, double gap, const gap_reference& ref) {
  const double tolerance = ref.single_tolerance();
  log.expect(std::abs(gap - ref.mean) <= tolerance, [&] {
    return what + ": final gap " + fmt(gap) + " outside reference " + fmt(ref.mean) + " +/- " +
           fmt(tolerance);
  });
}

void check_mean_gap(check_log& log, const std::string& what, const std::vector<double>& gaps,
                    const gap_reference& ref) {
  if (gaps.empty()) return;
  const double m = mean(gaps);
  const double tolerance = ref.mean_tolerance(gaps.size());
  log.expect(std::abs(m - ref.mean) <= tolerance, [&] {
    return what + ": mean gap " + fmt(m) + " over " + std::to_string(gaps.size()) +
           " runs outside reference " + fmt(ref.mean) + " +/- " + fmt(tolerance);
  });
}

/// Runs a check made after the measurement; a throw is a failed check.
void guarded(check_log& log, const std::function<void()>& check) {
  try {
    check();
  } catch (const std::exception& e) {
    log.fail(std::string("check threw: ") + e.what());
  }
}

/// After an untraced rep, times `set_up` until the rep holds
/// setup_samples_per_rep set-up samples (its own included).
void sample_setups(rep_outcome& out, const std::function<double()>& set_up) {
  out.setup_samples.push_back(out.setup_s);
  while (out.setup_samples.size() < setup_samples_per_rep) out.setup_samples.push_back(set_up());
}

/// Span-sum per-layer figures every traced rep reports.
void record_spans(rep_outcome& out, const ledger& trace) {
  out.layers["setup.make_process_s"] = trace.busy("setup.make_process");
  out.layers["setup.engine_s"] = trace.busy("setup.engine");
  out.layers["setup.warmup_s"] = trace.busy("setup.warmup");
  out.layers["trace.span_coverage_frac"] = trace.total() / (out.setup_s + out.work_s);
}

void record_kernel_counts(rep_outcome& out, double balls, nb::bin_count n, step_count b) {
  const double windows = balls / static_cast<double>(b);
  out.layers["kernel.windows"] = windows;
  out.layers["kernel.draws_computed"] = kernel_draws_per_ball * balls;
  out.layers["kernel.bytes_computed"] = windows * kernel_bytes_per_bin_window * n;
}

/// Fallback diagnostics that fired for the named processes.
std::vector<std::string> fired_fallbacks(const std::vector<std::string>& process_names) {
  std::vector<std::string> keys = {"oversubscribed/shard-engine threads_per_run",
                                   "oversubscribed/campaign workers x threads_per_run"};
  for (const auto& name : process_names) {
    for (const char* prefix : {"kernel-engine/", "kernel-engine-weighted/", "shard-engine/",
                               "shard-engine-weighted/", "depart-engine/",
                               "depart-engine-window/", "depart-engine-span/"}) {
      keys.push_back(prefix + name);
    }
  }
  std::vector<std::string> fired;
  for (const auto& key : keys) {
    if (nb::warned(key)) fired.push_back(key);
  }
  return fired;
}

std::string engine_note(const std::string& fingerprint,
                        const std::vector<std::string>& process_names) {
  const nb::kernel_isa isa = nb::resolve_kernel_isa(nb::kernel_isa::auto_detect);
  std::string s = "engine: isa=" + std::string(nb::kernel_isa_name(isa)) +
                  " fingerprint=" + fingerprint + " fallbacks=[";
  const auto fired = fired_fallbacks(process_names);
  for (std::size_t i = 0; i < fired.size(); ++i) s += (i > 0 ? ", " : "") + fired[i];
  return s + "]";
}

// ---------------------------------------------------------------------------
// paper_batch and paper_batch_shard.

nb::process_spec batch_spec(const std::string& departures = "none") {
  nb::process_spec spec;
  spec.kind = "b-batch";
  spec.n = batch_n;
  spec.param = static_cast<double>(batch_b);
  spec.departures = departures;
  return spec;
}

struct batch_options {
  nb::engine_config engine;
  bool checkpoints = false;
  std::string checkpoint_path;
};

struct observation {
  double gap = 0.0;
  double underload_gap = 0.0;
  double median_normalized = 0.0;
  double top_normalized = 0.0;
};

observation observe(const nb::load_state& s) {
  const std::vector<double> sorted = s.sorted_normalized_desc();
  const std::size_t h = sorted.size() / 2;
  observation o;
  o.gap = s.gap();
  o.underload_gap = s.underload_gap();
  o.median_normalized = sorted.size() % 2 == 1 ? sorted[h] : 0.5 * (sorted[h - 1] + sorted[h]);
  o.top_normalized = sorted.front();
  return o;
}

bool consistent(const observation& o) {
  return o.gap >= 0.0 && o.underload_gap >= 0.0 && std::abs(o.top_normalized - o.gap) <= 1e-9 &&
         o.median_normalized <= o.gap && o.median_normalized >= -o.underload_gap;
}

/// Restores the checkpoint the rep wrote last and checks it reproduces the
/// final loads.
void verify_checkpoint(check_log& log, const batch_options& opt, const std::string& fingerprint,
                       std::uint64_t seed, std::uint64_t final_digest) {
  const auto ckpt = nb::try_read_checkpoint_file(opt.checkpoint_path);
  log.expect(ckpt.has_value(), [] { return std::string("checkpoint file missing"); });
  if (!ckpt) return;
  nb::any_process restored = nb::make_process(batch_spec());
  nb::rng_t rng(0);
  const step_count balls =
      nb::restore_from_checkpoint(restored, rng, *ckpt, fingerprint, 0, seed, batch_m);
  log.expect(balls == batch_m && digest(restored.state().loads()) == final_digest,
             [] { return std::string("restored checkpoint differs from the final loads"); });
}

/// A process and the engine that moves its balls, built in place (the
/// shard engine owns a thread pool and cannot move).
struct process_and_engine {
  std::optional<nb::any_process> process;
  std::optional<nb::run_engine> engine;

  /// Builds both and returns the seconds it took.
  double set_up(const nb::process_spec& spec, const nb::engine_config& config, ledger* trace) {
    const auto t0 = bench_clock::now();
    {
      const span s(trace, "setup.make_process");
      process.emplace(nb::make_process(spec));
    }
    {
      const span s(trace, "setup.engine");
      engine.emplace(config);
    }
    return seconds_since(t0);
  }
};

rep_outcome batch_rep(const batch_options& opt, std::uint64_t seed, ledger* trace,
                      check_log& log) {
  rep_outcome out;
  process_and_engine run;
  out.setup_s = run.set_up(batch_spec(), opt.engine, trace);
  auto& process = run.process;
  auto& engine = run.engine;
  out.fingerprint = engine->fingerprint();
  out.process_names = {process->name()};

  nb::rng_t rng(seed);
  std::size_t checkpoints = 0;
  const auto t1 = bench_clock::now();
  for (step_count w = 1; w <= batch_windows; ++w) {
    {
      const span s(trace, "alloc");
      engine->step(*process, rng, batch_b);
    }
    observation o;
    {
      const span s(trace, "observe");
      o = observe(process->state());
    }
    log.op(process->state().balls() == w * batch_b && consistent(o), [&] {
      return "window " + std::to_string(w) + ": balls " +
             std::to_string(process->state().balls()) + ", gap " + fmt(o.gap) + ", underload " +
             fmt(o.underload_gap) + ", median " + fmt(o.median_normalized);
    });
    if (opt.checkpoints && w % windows_per_checkpoint == 0) {
      nb::run_checkpoint ckpt;
      {
        const span s(trace, "checkpoint.capture");
        ckpt = nb::capture_checkpoint(*process, rng, engine->fingerprint(), 0, seed);
      }
      const span s(trace, "checkpoint.write");
      nb::write_checkpoint_file(opt.checkpoint_path, ckpt);
      ++checkpoints;
    }
  }
  out.work_s = seconds_since(t1);

  const nb::load_state& state = process->state();
  out.rates["balls_per_s"] = static_cast<double>(batch_m) / out.work_s;
  out.digests.push_back(digest(state.loads()));
  out.gaps.push_back(state.gap());
  log.expect(load_sum(state) == batch_m && state.balls() == batch_m, [&] {
    return "sum of loads " + std::to_string(load_sum(state)) + " != balls placed " +
           std::to_string(batch_m);
  });
  if (opt.checkpoints) verify_checkpoint(log, opt, engine->fingerprint(), seed, out.digests[0]);
  if (trace == nullptr) {
    sample_setups(out, [&] {
      return process_and_engine{}.set_up(batch_spec(), opt.engine, nullptr);
    });
  }

  if (trace != nullptr) {
    record_spans(out, *trace);
    const double alloc_s = trace->busy("alloc");
    out.layers["alloc.busy_s"] = alloc_s;
    out.layers["alloc.calls"] = static_cast<double>(trace->calls("alloc"));
    out.layers["alloc.balls_per_busy_s"] = static_cast<double>(batch_m) / alloc_s;
    record_kernel_counts(out, static_cast<double>(batch_m), batch_n, batch_b);
    out.layers["observe.busy_s"] = trace->busy("observe");
    out.layers["observe.calls"] = static_cast<double>(trace->calls("observe"));
    out.layers["checkpoint.capture_s"] = trace->busy("checkpoint.capture");
    out.layers["checkpoint.write_s"] = trace->busy("checkpoint.write");
    out.layers["checkpoint.count"] = static_cast<double>(checkpoints);
    out.layers["checkpoint.bytes"] =
        checkpoints > 0 ? static_cast<double>(checkpoints) *
                              static_cast<double>(std::filesystem::file_size(opt.checkpoint_path))
                        : 0.0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// steady_churn.

rep_outcome churn_rep(std::uint64_t seed, ledger* trace, check_log& log) {
  rep_outcome out;
  double churn_total_s = 0.0;
  double arrive_total_s = 0.0;
  std::size_t arrive_calls = 0;
  nb::churn_options opt;
  opt.occupancy = churn_n;
  opt.events = churn_pairs;
  opt.cycle = churn_n;
  opt.telemetry_every = churn_n;
  const step_count cycles = churn_pairs / churn_n;

  for (std::size_t c = 0; c < channels.size(); ++c) {
    const std::string& ch = channels[c];
    const auto t0 = bench_clock::now();
    process_and_engine run;
    run.set_up(batch_spec(ch), nb::engine_config{.use_kernel = true}, trace);
    auto& process = run.process;
    auto& engine = run.engine;
    nb::rng_t rng(nb::derive_seed(seed, c));
    {
      const span s(trace, "setup.warmup");
      nb::churn_options warm = opt;
      warm.events = 0;
      (void)nb::run_churn_checkpointed(*process, warm, rng, *engine, 0, nullptr, 0);
    }
    out.setup_s += seconds_since(t0);
    out.fingerprint = engine->churn_fingerprint();
    out.process_names.push_back(process->name());

    const auto t1 = bench_clock::now();
    if (trace != nullptr) {
      // The cycle sequence run_churn issues: `cycle` arrivals through the
      // engine, then a block of `cycle` departures through the same engine.
      for (step_count k = 1; k <= cycles; ++k) {
        {
          const span s(trace, "churn.arrive." + ch);
          engine->step(*process, rng, opt.cycle);
        }
        {
          const span s(trace, "churn.depart." + ch);
          engine->depart(*process, rng, opt.cycle);
        }
        log.op(process->state().balls() == churn_n, [&] {
          return ch + " cycle " + std::to_string(k) + ": resident " +
                 std::to_string(process->state().balls()) + " != occupancy";
        });
      }
    } else {
      // Resumes at the end of the warm-up, so only the churn phase is timed.
      const nb::churn_result r =
          nb::run_churn_checkpointed(*process, opt, rng, *engine, 0, nullptr, churn_n);
      log.expect(r.trajectory.size() == static_cast<std::size_t>(cycles), [&] {
        return ch + ": " + std::to_string(r.trajectory.size()) + " cycle boundaries, expected " +
               std::to_string(cycles);
      });
      for (const auto& point : r.trajectory) {
        log.op(point.resident == churn_n, [&] {
          return ch + " after " + std::to_string(point.events_done) + " pairs: resident " +
                 std::to_string(point.resident) + " != occupancy";
        });
      }
    }
    const double churn_s = seconds_since(t1);
    churn_total_s += churn_s;
    out.rates["events_per_s." + ch] = 2.0 * static_cast<double>(churn_pairs) / churn_s;

    const nb::load_state& state = process->state();
    out.digests.push_back(digest(state.loads()));
    out.gaps.push_back(state.gap());
    log.expect(load_sum(state) == churn_n && state.balls() == churn_n, [&] {
      return ch + ": sum of loads " + std::to_string(load_sum(state)) + " != occupancy " +
             std::to_string(churn_n);
    });
    check_gap(log, "steady_churn " + ch, state.gap(), churn_gaps().at(ch));
    if (trace != nullptr) {
      const double arrive_s = trace->busy("churn.arrive." + ch);
      const double depart_s = trace->busy("churn.depart." + ch);
      out.layers["churn.arrive_s." + ch] = arrive_s;
      out.layers["churn.depart_s." + ch] = depart_s;
      out.layers["churn.depart_events_per_busy_s." + ch] =
          static_cast<double>(churn_pairs) / depart_s;
      arrive_total_s += arrive_s;
      arrive_calls += trace->calls("churn.arrive." + ch);
    }
  }
  out.work_s = churn_total_s;
  out.setup_samples.push_back(out.setup_s);
  const double arrivals = static_cast<double>(channels.size() * churn_pairs);
  out.rates["balls_per_s"] = arrivals / churn_total_s;
  if (trace != nullptr) {
    record_spans(out, *trace);
    out.layers["alloc.busy_s"] = arrive_total_s;
    out.layers["alloc.calls"] = static_cast<double>(arrive_calls);
    out.layers["alloc.balls_per_busy_s"] = arrivals / arrive_total_s;
    record_kernel_counts(out, arrivals, churn_n, churn_n);
  }
  return out;
}

// ---------------------------------------------------------------------------
// table_12_3.

/// Campaign-cell probe shared by every traced cell: the span ledger and a
/// count of cells whose loads did not add up.
struct cell_probe {
  ledger* trace = nullptr;
  std::atomic<std::size_t> bad_cells{0};
};

/// Forwarding process wrapper for traced campaign cells: times each bulk
/// step and checks the loads add up afterwards.  Draws exactly what the
/// wrapped process draws, so campaign results are unchanged.
class timed_process {
 public:
  timed_process(nb::any_process inner, cell_probe* probe, std::string kind)
      : inner_(std::move(inner)), probe_(probe), span_name_("cell." + std::move(kind)) {}

  void step(nb::rng_t& rng) { inner_.step(rng); }
  void step_many(nb::rng_t& rng, step_count count) {
    {
      const span s(probe_->trace, span_name_);
      inner_.step_many(rng, count);
    }
    if (load_sum(inner_.state()) != inner_.state().balls()) ++probe_->bad_cells;
  }
  [[nodiscard]] const nb::load_state& state() const { return inner_.state(); }
  void reset() { inner_.reset(); }
  [[nodiscard]] std::string name() const { return inner_.name(); }

 private:
  nb::any_process inner_;
  cell_probe* probe_;
  std::string span_name_;
};

std::vector<nb::campaign_config> table_configs() {
  nb::sweep_grid grid;
  grid.kinds = table_kinds;
  grid.params = {1, 2, 4, 8, 16};
  grid.bins = {table_n};
  grid.m_multiplier = table_m / table_n;
  return nb::make_configs(nb::expand_grid(grid));
}

/// The campaign's set-up, timed outside the campaign: the config list, one
/// process per config and an engine.  run_campaign builds each cell's own
/// process and engine inside the timed campaign (so they count in
/// balls_per_s); this times the same constructions once per config as a
/// proxy for them.  Returns its seconds.
double table_setup(std::vector<nb::campaign_config>& configs, rep_outcome& out, ledger* trace) {
  const auto t0 = bench_clock::now();
  configs = table_configs();
  out.process_names.clear();
  {
    const span s(trace, "setup.make_process");
    for (const auto& config : configs) {
      out.process_names.push_back(nb::make_process(config.process).name());
    }
  }
  {
    const span s(trace, "setup.engine");
    out.fingerprint = nb::run_engine(nb::engine_config{}).fingerprint();
  }
  return seconds_since(t0);
}

rep_outcome table_rep(std::uint64_t seed, ledger* trace, check_log& log) {
  rep_outcome out;
  const std::size_t workers = bench_threads();
  std::vector<nb::campaign_config> configs;
  out.setup_s = table_setup(configs, out, trace);
  nb::campaign_options opt;
  opt.repeats = 1;
  opt.seed = seed;
  opt.threads = workers;
  cell_probe probe;
  probe.trace = trace;
  if (trace != nullptr) {
    for (auto& config : configs) {
      config.factory = [spec = config.process, p = &probe] {
        return nb::any_process(timed_process(nb::make_process(spec), p, spec.kind));
      };
    }
  }

  const auto t1 = bench_clock::now();
  const nb::campaign_result result = nb::run_campaign(configs, opt);
  out.work_s = seconds_since(t1);

  out.rates["balls_per_s"] = static_cast<double>(configs.size() * table_m) / out.work_s;
  out.result_json = result.to_json();
  log.expect(result.cells.size() == configs.size(), [&] {
    return "campaign returned " + std::to_string(result.cells.size()) + " cells";
  });
  for (std::size_t i = 0; i < result.cells.size() && i < configs.size(); ++i) {
    const nb::run_result& cell = result.cells[i];
    log.op(cell.balls == table_m, [&] {
      return configs[i].label + ": " + std::to_string(cell.balls) + " balls placed";
    });
    check_gap(log, "table_12_3 " + configs[i].label, cell.gap, table_gap(configs[i].label));
    out.gaps.push_back(cell.gap);
  }
  log.expect(probe.bad_cells == 0, [&] {
    return std::to_string(probe.bad_cells.load()) + " traced cells whose loads do not sum to m";
  });
  if (trace == nullptr) {
    sample_setups(out, [] {
      std::vector<nb::campaign_config> unused;
      rep_outcome scratch;
      return table_setup(unused, scratch, nullptr);
    });
  }

  if (trace != nullptr) {
    record_spans(out, *trace);
    double busy = 0.0;
    for (const auto& kind : table_kinds) {
      const double kind_busy = trace->busy("cell." + kind);
      busy += kind_busy;
      const double kind_balls =
          static_cast<double>(configs.size() / table_kinds.size()) * static_cast<double>(table_m);
      out.layers["fused.balls_per_busy_s." + kind] = kind_balls / kind_busy;
    }
    const double capacity = static_cast<double>(workers) * out.work_s;
    out.layers["campaign.cells"] = static_cast<double>(result.cells.size());
    out.layers["campaign.cell_busy_s"] = busy;
    out.layers["campaign.worker_busy_frac"] = busy / capacity;
    out.layers["campaign.idle_s"] = capacity - busy;
    // Cell spans run concurrently on the workers: count their time per worker.
    out.layers["trace.span_coverage_frac"] =
        (trace->total() - busy + busy / static_cast<double>(workers)) / (out.setup_s + out.work_s);
  }
  return out;
}

/// Replays one campaign cell outside the campaign, checking the campaign's
/// per-cell seed contract and that the cell's loads add up.
void replay_table_cell(check_log& log, std::uint64_t campaign_seed, const rep_outcome& rep) {
  const std::vector<nb::campaign_config> configs = table_configs();
  const std::size_t c = campaign_seed % configs.size();
  nb::any_process process = nb::make_process(configs[c].process);
  nb::rng_t rng(nb::derive_seed(campaign_seed, c));
  nb::run_engine engine(nb::engine_config{});
  engine.step(process, rng, table_m);
  const nb::load_state& state = process.state();
  log.expect(c < rep.gaps.size() && state.gap() == rep.gaps[c] && load_sum(state) == table_m, [&] {
    return "replay of cell " + configs[c].label + " gives gap " + fmt(state.gap()) +
           " and sum of loads " + std::to_string(load_sum(state));
  });
}

/// The paper-fidelity table: each config's mean gap next to the paper's.
std::vector<std::string> fidelity_notes(const std::vector<rep_outcome>& reps, check_log& log) {
  const std::vector<nb::campaign_config> configs = table_configs();
  std::vector<std::string> notes = {"fidelity: config  measured_mean_gap  paper_mean_gap  runs"};
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::vector<double> gaps;
    for (const auto& rep : reps) {
      if (i < rep.gaps.size()) gaps.push_back(rep.gaps[i]);
    }
    if (gaps.empty()) continue;
    const auto& spec = configs[i].process;
    const auto paper = nb::bench::paper_mean_for(spec.kind, static_cast<int>(spec.param), table_n);
    notes.push_back("fidelity: " + configs[i].label + "  " + fmt(mean(gaps)) + "  " +
                    (paper ? fmt(*paper) : std::string("-")) + "  " + std::to_string(gaps.size()));
    check_mean_gap(log, "table_12_3 " + configs[i].label, gaps, table_gap(configs[i].label));
  }
  return notes;
}

// ---------------------------------------------------------------------------
// The measuring loop.

using rep_fn = std::function<rep_outcome(std::uint64_t seed, ledger* trace, check_log& log)>;

struct measured {
  std::vector<rep_outcome> untraced;
  std::vector<rep_outcome> traced;
  std::vector<double> overhead;  ///< per pair: (traced - untraced) / untraced wall
  double peak_rss_mib = 0.0;
};

constexpr std::size_t min_reps = 3;

/// Repeats `rep` with seeds derive_seed(seed, i) until `seconds` of reps
/// have run.  With tracing, every untraced rep is paired with a traced rep
/// of the same seed (alternating which runs first), which must reproduce
/// the untraced outputs.  A rep that throws is a failure and ends the
/// measurement.
measured measure(const workload_args& args, check_log& log, const rep_fn& rep) {
  measured m;
  double elapsed = 0.0;
  const auto cpus = static_cast<double>(nb::detect_host_info().hardware_concurrency);
  const std::string trace_path = args.work_dir + "/trace_" + args.workload + ".jsonl";
  if (args.trace) std::filesystem::remove(trace_path);
  try {
    for (std::size_t i = 0; i < min_reps || elapsed < args.seconds; ++i) {
      const std::uint64_t seed = nb::derive_seed(args.seed, i);
      const bool traced_first = args.trace && i % 2 == 1;
      ledger trace;
      std::optional<rep_outcome> t;
      if (traced_first) t = rep(seed, &trace, log);
      const double stolen0 = stolen_cpu_s();
      rep_outcome u = rep(seed, nullptr, log);
      const double u_wall = u.setup_s + u.work_s;
      u.stolen_frac = (stolen_cpu_s() - stolen0) / (cpus * u_wall);
      if (args.trace && !traced_first) t = rep(seed, &trace, log);
      elapsed += u_wall;
      if (t) {
        write_spans(trace_path, args.workload, i, trace.spans());
        const double t_wall = t->setup_s + t->work_s;
        elapsed += t_wall;
        m.overhead.push_back((t_wall - u_wall) / u_wall);
        log.expect(t->digests == u.digests && t->result_json == u.result_json, [&] {
          return "traced rep " + std::to_string(i) + " does not reproduce the untraced outputs";
        });
        m.traced.push_back(std::move(*t));
      }
      m.untraced.push_back(std::move(u));
      // The workload's footprint: a fresh process through its first rep.
      // Later reps reuse (and fragment) the allocator's heap, so their
      // high-water mark says more about malloc than about the workload.
      if (i == 0) m.peak_rss_mib = peak_rss_mib();
    }
  } catch (const std::exception& e) {
    log.fail(std::string("rep threw: ") + e.what());
  }
  return m;
}

/// Per-layer figures: medians over the traced reps.
std::map<std::string, double> layer_medians(const std::vector<rep_outcome>& reps) {
  std::map<std::string, std::vector<double>> values;
  for (const auto& r : reps) {
    for (const auto& [k, v] : r.layers) values[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : values) out[k] = median(std::move(v));
  return out;
}

/// Rates over the reps' summed measured time.  Every rep of a workload does
/// the same work, so that is the harmonic mean of the reps' rates.  Unlike
/// their median, it does not jump when a run's reps fall about evenly into
/// a host's fast and slow periods (steady_churn's lease and drain rates
/// differ by about 1.35x between them).
std::map<std::string, double> rate_over(const std::vector<rep_outcome>& reps) {
  std::map<std::string, double> inverse_sum;
  for (const auto& r : reps) {
    for (const auto& [k, v] : r.rates) inverse_sum[k] += 1.0 / v;
  }
  std::map<std::string, double> out;
  for (const auto& [k, inv] : inverse_sum) out[k] = static_cast<double>(reps.size()) / inv;
  return out;
}

/// A rep from which the hypervisor stole more than this share of the
/// machine's CPU time is left out of the end-to-end metrics.  On a 4-core
/// VM, leaving such reps out narrowed the run-to-run spread of
/// paper_batch_shard's balls_per_s (the workload whose barriers wait on
/// every thread) and left the other workloads' spreads about as they were.
constexpr double steal_limit = 0.02;

/// The untraced reps the end-to-end metrics are taken over: those within
/// steal_limit, or, when fewer than min_reps are, the min_reps least stolen.
std::vector<rep_outcome> least_stolen(std::vector<rep_outcome> reps) {
  std::stable_sort(reps.begin(), reps.end(), [](const rep_outcome& a, const rep_outcome& b) {
    return a.stolen_frac < b.stolen_frac;
  });
  std::size_t keep = std::min(min_reps, reps.size());
  while (keep < reps.size() && reps[keep].stolen_frac <= steal_limit) ++keep;
  reps.resize(keep);
  return reps;
}

/// Final gaps of process `index` over the untraced reps.
std::vector<double> gaps_of(const measured& m, std::size_t index) {
  std::vector<double> gaps;
  for (const auto& rep : m.untraced) {
    if (index < rep.gaps.size()) gaps.push_back(rep.gaps[index]);
  }
  return gaps;
}

/// Builds the report: end-to-end metrics from the untraced reps, or
/// per-layer metrics from the traced ones plus `layer_extra`.
workload_report report(const workload_args& args, const measured& m, const check_log& log,
                       const std::map<std::string, double>& layer_extra) {
  workload_report r;
  r.attempted = std::max<std::size_t>(log.attempted, 1);
  r.failed = std::min(log.failed, r.attempted);
  const rep_outcome first = m.untraced.empty() ? rep_outcome{} : m.untraced.front();
  const std::vector<std::string> fired = fired_fallbacks(first.process_names);
  r.notes.push_back(engine_note(first.fingerprint, first.process_names));
  for (std::size_t i = 0; i < m.untraced.size(); ++i) {
    const rep_outcome& rep = m.untraced[i];
    std::string line = "rep " + std::to_string(i) + ": setup_s " + fmt(rep.setup_s) + ", work_s " +
                       fmt(rep.work_s) + ", stolen " + fmt(rep.stolen_frac);
    for (const auto& [name, value] : rep.rates) line += ", " + name + " " + fmt(value);
    line += ", final gaps";
    for (const double g : rep.gaps) line += " " + fmt(g);
    r.notes.push_back(line);
  }
  r.notes.insert(r.notes.end(), log.messages.begin(), log.messages.end());
  r.notes.push_back("reps: " + std::to_string(m.untraced.size()) + " untraced, " +
                    std::to_string(m.traced.size()) + " traced");

  std::map<std::string, double> values;
  std::vector<metric_def> defs;
  if (!args.trace) {
    defs = end_to_end_metrics();
    const std::vector<rep_outcome> kept = least_stolen(m.untraced);
    r.notes.push_back("end-to-end metrics over the " + std::to_string(kept.size()) + " of " +
                      std::to_string(m.untraced.size()) + " reps stolen from least");
    values = rate_over(kept);
    // A workload without departures serves arrivals only: its event rate
    // on every channel is its arrival rate.
    for (const auto& ch : channels) {
      values.try_emplace("events_per_s." + ch, values["balls_per_s"]);
    }
    std::vector<double> setups;
    for (const auto& rep : kept) {
      setups.insert(setups.end(), rep.setup_samples.begin(), rep.setup_samples.end());
    }
    values["setup_s"] = median(setups);
    values["peak_rss_mib"] = m.peak_rss_mib;
  } else {
    defs = per_layer_metrics();
    values = layer_medians(m.traced);
    for (const auto& [k, v] : layer_extra) values[k] = v;
    values["engine.fallbacks"] = static_cast<double>(fired.size());
    values["trace.overhead_frac"] = median(m.overhead);
    values["failed_frac"] = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  }
  for (const auto& def : defs) {
    const auto it = values.find(def.name);
    r.metrics.push_back({def.name, it != values.end() ? it->second : 0.0, def.unit});
  }
  return r;
}

workload_report run_batch(const workload_args& args, bool shard) {
  check_log log;
  batch_options opt;
  opt.checkpoints = !shard;
  opt.checkpoint_path = args.work_dir + "/paper_batch.ckpt";
  if (shard) {
    opt.engine.threads_per_run = bench_threads();
  } else {
    opt.engine.use_kernel = true;
  }
  const measured m = measure(args, log, [&](std::uint64_t seed, ledger* trace, check_log& l) {
    return batch_rep(opt, seed, trace, l);
  });
  const gap_reference& ref = shard ? batch_shard_gap : batch_kernel_gap;
  const std::vector<double> gaps = gaps_of(m, 0);
  for (const double g : gaps) check_gap(log, args.workload, g, ref);
  check_mean_gap(log, args.workload, gaps, ref);

  std::map<std::string, double> extra;
  if (!shard || m.untraced.empty()) return report(args, m, log, extra);
  guarded(log, [&] {
    // Thread-count contract: a 1-thread shard engine replays rep 0 exactly.
    batch_options replay = opt;
    replay.engine.threads_per_run = 1;
    const rep_outcome r = batch_rep(replay, nb::derive_seed(args.seed, 0), nullptr, log);
    log.expect(r.digests == m.untraced.front().digests, [] {
      return std::string("1-thread shard replay differs from the multi-thread run");
    });
    if (args.trace) {
      // Efficiency base: the kernel engine's traced allocation rate.
      batch_options kernel;
      kernel.engine.use_kernel = true;
      ledger trace;
      const rep_outcome k = batch_rep(kernel, nb::derive_seed(args.seed, 0), &trace, log);
      const double shard_rate = layer_medians(m.traced)["alloc.balls_per_busy_s"];
      const double kernel_rate = k.layers.at("alloc.balls_per_busy_s");
      extra["shard.parallel_efficiency"] =
          shard_rate / (kernel_rate * static_cast<double>(bench_threads()));
    }
  });
  return report(args, m, log, extra);
}

workload_report run_churn_workload(const workload_args& args) {
  check_log log;
  const measured m = measure(args, log, churn_rep);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    check_mean_gap(log, "steady_churn " + channels[c], gaps_of(m, c), churn_gaps().at(channels[c]));
  }
  return report(args, m, log, {});
}

workload_report run_table(const workload_args& args) {
  check_log log;
  const measured m = measure(args, log, table_rep);
  if (!m.untraced.empty()) {
    const std::uint64_t campaign_seed = nb::derive_seed(args.seed, 0);
    guarded(log, [&] { replay_table_cell(log, campaign_seed, m.untraced.front()); });
  }
  std::vector<std::string> fidelity;
  guarded(log, [&] { fidelity = fidelity_notes(m.untraced, log); });
  workload_report r = report(args, m, log, {});
  r.notes.insert(r.notes.end(), fidelity.begin(), fidelity.end());
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_batch", "paper_batch_shard", "table_12_3",
                                                 "steady_churn"};
  return names;
}

workload_report run_workload(const workload_args& args) {
  if (args.workload == "paper_batch") return run_batch(args, false);
  if (args.workload == "paper_batch_shard") return run_batch(args, true);
  if (args.workload == "table_12_3") return run_table(args);
  if (args.workload == "steady_churn") return run_churn_workload(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
