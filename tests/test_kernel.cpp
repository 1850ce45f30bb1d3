// The lane-interleaved SIMD allocation kernel (core/kernel/) and its hard
// contract: the accumulated counts are a pure function of (lanes, n,
// snapshot, balls, seed) -- the instruction-set backend is execution only
// and NEVER affects results, while `lanes` is a sampling parameter exactly
// like shard_options::shards.  The suite pins
//   (1) the lane streams to the public xoshiro256++/derive_seed reference,
//   (2) the scalar backend to an independently written replay of the
//       documented per-ball draw order (Lemire i1, Lemire i2, tie draw),
//   (3) every vector backend to the scalar backend, bit for bit, including
//       partial rounds, remainder lanes and the rejection replay path,
//   (4) the engines (serial kernel_engine, shard_engine with the kernel
//       engaged) to ISA- and thread-count-invariance for every registered
//       process, plus distributional parity with the serial bulk path,
//   (5) a lane-count golden value so the sampling contract cannot drift
//       silently between releases.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/kernel/kernel_common.hpp"
#include "test_support.hpp"

namespace {

using namespace nb;

using nb::testing::all_isas;
using nb::testing::supported_isas;

/// A deterministic snapshot with plenty of ties (offsets cycle 0..4) and
/// the 3 padding bytes the vector gathers require.
std::vector<std::uint8_t> make_snapshot(bin_count n) {
  std::vector<std::uint8_t> snap(static_cast<std::size_t>(n) + compact_snapshot::tail_padding, 0);
  for (bin_count i = 0; i < n; ++i) snap[i] = static_cast<std::uint8_t>(i % 5);
  return snap;
}

std::vector<std::uint32_t> kernel_counts(kernel_isa isa, std::size_t lanes, bin_count n,
                                         const std::vector<std::uint8_t>& snap, step_count balls,
                                         std::uint64_t seed) {
  byte_counts counts;
  counts.reset(n);
  kernel_run(isa, lanes, n, snap.data(), counts, balls, seed);
  counts.widen();
  return counts.wide;
}

// ---------------------------------------------------------------------------
// (1) Lane streams.

TEST(KernelLanes, LaneStreamsMatchDerivedXoshiroReference) {
  // Lane l of the SoA state must replay nb::xoshiro256pp(derive_seed(seed, l))
  // exactly -- this is what makes the kernel's sampling auditable from the
  // public RNG API alone.
  kernel_detail::lane_soa st;
  st.init(5, 2024);
  for (std::size_t l = 0; l < 5; ++l) {
    rng_t reference(derive_seed(2024, l));
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(st.next(l), reference.next()) << "lane " << l << " draw " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// (2) The scalar backend vs an independent replay of the documented
// sampling order.

TEST(Kernel, ScalarMatchesDocumentedDrawOrder) {
  const bin_count n = 97;
  const std::size_t lanes = 4;
  const step_count balls = 1003;  // partial trailing round on purpose
  const std::uint64_t seed = 77;
  const auto snap = make_snapshot(n);

  // Reference: per-lane xoshiro streams; ball t uses lane t % lanes and
  // draws, in order, bounded(i1), bounded(i2), one raw tie draw.
  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < lanes; ++l) lane_rng.emplace_back(derive_seed(seed, l));
  std::vector<std::uint32_t> expected(n, 0);
  for (step_count t = 0; t < balls; ++t) {
    rng_t& rng = lane_rng[static_cast<std::size_t>(t) % lanes];
    const auto i1 = static_cast<bin_index>(bounded(rng, n));
    const auto i2 = static_cast<bin_index>(bounded(rng, n));
    const std::uint64_t c = rng.next();
    const std::uint8_t a = snap[i1];
    const std::uint8_t b = snap[i2];
    const bin_index chosen = a < b ? i1 : (b < a ? i2 : ((c >> 63) != 0 ? i1 : i2));
    ++expected[chosen];
  }

  EXPECT_EQ(kernel_counts(kernel_isa::scalar, lanes, n, snap, balls, seed), expected);
  EXPECT_EQ(std::accumulate(expected.begin(), expected.end(), std::int64_t{0}), balls);
}

TEST(Kernel, DecideAgreesWithBBatchSnapshotDecide) {
  // The kernel's branchless decide and b_batch::snapshot_decide implement
  // the same rule: feed snapshot_decide an rng whose next draw is exactly
  // the kernel's tie word and the choices must coincide -- for every
  // (less, greater, tie) x (bit set, bit clear) combination.
  const std::uint8_t snap[4] = {3, 7, 3, 0};
  rng_t rng(1234);
  for (int trial = 0; trial < 64; ++trial) {
    for (bin_index i1 = 0; i1 < 3; ++i1) {
      for (bin_index i2 = 0; i2 < 3; ++i2) {
        rng_t peek = rng;                   // snapshot_decide may consume one draw
        const std::uint64_t c = peek.next();  // ... and it would draw exactly this
        rng_t ref = rng;
        const bin_index want = b_batch::snapshot_decide(snap, i1, i2, ref);
        EXPECT_EQ(kernel_detail::decide(snap[i1], snap[i2], c, i1, i2), want)
            << "i1=" << i1 << " i2=" << i2 << " c.top=" << (c >> 63);
      }
    }
    rng.next();
  }
}

TEST(Kernel, ReplayBallConsumesQueueThenLiveStream) {
  // Force a genuine Lemire rejection through the queue: for bound = 3 the
  // threshold is (2^64 mod 3) = 1 and x = 0 yields low = 0 < 1, so a
  // queued first draw of 0 must be rejected and the retry must come from
  // the lane's live stream -- the exact continuation the vector backends
  // rely on when their coarse rejection test fires.
  const std::uint64_t bound = 3;
  const std::uint64_t threshold = kernel_detail::lemire_threshold(bound);
  ASSERT_EQ(threshold, 1u);
  const std::uint8_t snap[8] = {0, 1, 2, 0, 1, 2, 0, 1};

  kernel_detail::lane_soa st;
  st.init(2, 99);
  const std::uint64_t queue[3] = {0, 5, std::uint64_t{1} << 63};  // draw 1 rejects
  const std::uint32_t got = kernel_detail::replay_ball(st, 1, bound, threshold, snap, queue, 3);

  // Reference: same composite stream (queue, then lane 1's live draws).
  rng_t live(derive_seed(99, 1));
  std::vector<std::uint64_t> stream = {0, 5, std::uint64_t{1} << 63};
  for (int i = 0; i < 8; ++i) stream.push_back(live.next());
  std::size_t pos = 0;
  const auto draw_bounded = [&] {
    for (;;) {
      const std::uint64_t x = stream[pos++];
      const auto m = static_cast<__uint128_t>(x) * bound;
      if (static_cast<std::uint64_t>(m) >= threshold) return static_cast<std::uint32_t>(m >> 64);
    }
  };
  const std::uint32_t i1 = draw_bounded();
  const std::uint32_t i2 = draw_bounded();
  const std::uint64_t c = stream[pos++];
  EXPECT_EQ(got, kernel_detail::decide(snap[i1], snap[i2], c, i1, i2));
  EXPECT_GE(pos, 4u);  // the rejection actually consumed an extra draw

  // The lane must sit exactly past the draws the ball consumed: its next
  // output continues the reference stream.
  EXPECT_EQ(st.next(1), stream[pos]);
}

// ---------------------------------------------------------------------------
// (3) Backend bit-parity.

TEST(Kernel, BackendsBitIdenticalAcrossShapes) {
  // Every supported backend must reproduce the scalar counts bit for bit
  // over awkward shapes: lane counts that leave NEON/AVX2 remainder lanes
  // (1, 3, 5), one AVX-512 vector plus remainder lanes (13), whole vectors
  // (8, 16, 64), tiny bins, ball counts that end mid-round, and multiple
  // blocks (balls > the driver's 8192-ball block).
  const auto isas = supported_isas();
  ASSERT_GE(isas.size(), 1u);
  for (const bin_count n : {1u, 2u, 7u, 97u, 4096u}) {
    const auto snap = make_snapshot(n);
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{3}, std::size_t{5}, std::size_t{8}, std::size_t{13},
          std::size_t{16}, std::size_t{64}}) {
      for (const step_count balls : {step_count{1}, step_count{63}, step_count{1000},
                                     step_count{20000}}) {
        const auto reference = kernel_counts(kernel_isa::scalar, lanes, n, snap, balls, 31337);
        EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), std::int64_t{0}), balls);
        for (const kernel_isa isa : isas) {
          EXPECT_EQ(kernel_counts(isa, lanes, n, snap, balls, 31337), reference)
              << kernel_isa_name(isa) << " n=" << n << " lanes=" << lanes
              << " balls=" << balls;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Alias-sampled lane path (PR 5): non-uniform bin probabilities through
// the same lane contract.

std::vector<std::uint32_t> kernel_alias_counts(kernel_isa isa, std::size_t lanes, bin_count n,
                                               const std::vector<std::uint8_t>& snap,
                                               const alias_table& table, step_count balls,
                                               std::uint64_t seed) {
  byte_counts counts;
  counts.reset(n);
  kernel_run_alias(isa, lanes, n, snap.data(), table.thresholds(), table.aliases(), counts, balls,
                   seed);
  counts.widen();
  return counts.wide;
}

TEST(KernelAlias, BackendsBitIdenticalAcrossShapes) {
  // The alias lane path's backend contract, over the same awkward shapes
  // as the uniform path: remainder lanes, one AVX-512 vector plus
  // remainder lanes (13) and two whole vectors (16), tiny bins, mid-round
  // tails, multi-block runs.  AVX2 uses hardware gathers for the threshold /
  // alias / snapshot lookups; NEON vectorizes only the draw generation --
  // all must match the scalar reference bit for bit.
  const auto isas = supported_isas();
  for (const bin_count n : {1u, 2u, 7u, 97u, 4096u}) {
    const auto snap = make_snapshot(n);
    std::vector<double> weights(n);
    for (bin_count i = 0; i < n; ++i) weights[i] = 1.0 / (1.0 + static_cast<double>(i));
    const alias_table table(weights);
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{13}, std::size_t{16}}) {
      for (const step_count balls : {step_count{1}, step_count{63}, step_count{20000}}) {
        const auto reference =
            kernel_alias_counts(kernel_isa::scalar, lanes, n, snap, table, balls, 99);
        EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), std::int64_t{0}), balls);
        for (const kernel_isa isa : isas) {
          EXPECT_EQ(kernel_alias_counts(isa, lanes, n, snap, table, balls, 99), reference)
              << kernel_isa_name(isa) << " n=" << n << " lanes=" << lanes << " balls=" << balls;
        }
      }
    }
  }
}

TEST(KernelAlias, ScalarMatchesDocumentedAliasDrawOrder) {
  // Per ball and lane: slot1 (Lemire draws), u1, slot2, u2, tie -- the
  // documented order, auditable from the public RNG API plus the table.
  const bin_count n = 11;
  const auto snap = make_snapshot(n);
  std::vector<double> weights(n, 1.0);
  weights[3] = 8.0;  // something non-uniform
  const alias_table table(weights);
  const std::uint64_t seed = 4242;
  const std::size_t lanes = 3;
  const step_count balls = 500;

  std::vector<std::uint32_t> expected(n, 0);
  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < lanes; ++l) lane_rng.emplace_back(derive_seed(seed, l));
  for (step_count t = 0; t < balls; ++t) {
    rng_t& rng = lane_rng[static_cast<std::size_t>(t) % lanes];
    const auto slot1 = static_cast<bin_index>(bounded(rng, n));
    const std::uint64_t u1 = rng.next();
    const bin_index i1 = u1 < table.thresholds()[slot1] ? slot1 : table.aliases()[slot1];
    const auto slot2 = static_cast<bin_index>(bounded(rng, n));
    const std::uint64_t u2 = rng.next();
    const bin_index i2 = u2 < table.thresholds()[slot2] ? slot2 : table.aliases()[slot2];
    const std::uint64_t c = rng.next();
    const bool pick_first = (snap[i1] < snap[i2]) || ((snap[i1] == snap[i2]) && (c >> 63) != 0);
    ++expected[pick_first ? i1 : i2];
  }
  EXPECT_EQ(kernel_alias_counts(kernel_isa::scalar, lanes, n, snap, table, balls, seed),
            expected);
}

/// Runs kernel_emit (table == nullptr) or kernel_emit_alias and returns
/// the emitted bins in order, checking every block is in [1, 8192] balls.
std::vector<std::uint32_t> emitted(kernel_isa isa, std::size_t lanes, bin_count n,
                                   const std::vector<std::uint8_t>& snap,
                                   const alias_table* table, step_count balls,
                                   std::uint64_t seed) {
  std::vector<std::uint32_t> out;
  const kernel_sink sink = [&out](const std::uint32_t* chosen, std::size_t count) {
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, 8192u);
    out.insert(out.end(), chosen, chosen + count);
  };
  if (table != nullptr) {
    kernel_emit_alias(isa, lanes, n, snap.data(), table->thresholds(), table->aliases(), balls,
                      seed, sink);
  } else {
    kernel_emit(isa, lanes, n, snap.data(), balls, seed, sink);
  }
  return out;
}

TEST(Kernel, EmittedChoicesFoldToRunCounts) {
  // The shard engine range-partitions emitted choices instead of folding
  // rows: on every backend, the emitted sequence must be the same, hold
  // one in-range bin per ball, and fold to kernel_run's counts exactly
  // (multi-block runs and a mid-round tail included).
  for (const bin_count n : {53u, 4096u}) {
    const auto snap = make_snapshot(n);
    for (const std::size_t lanes : {std::size_t{3}, std::size_t{8}}) {
      const step_count balls = 20001;
      const auto reference = emitted(kernel_isa::scalar, lanes, n, snap, nullptr, balls, 5);
      ASSERT_EQ(reference.size(), static_cast<std::size_t>(balls));
      for (const kernel_isa isa : supported_isas()) {
        const auto got = emitted(isa, lanes, n, snap, nullptr, balls, 5);
        EXPECT_EQ(got, reference) << kernel_isa_name(isa) << " n " << n << " lanes " << lanes;
        std::vector<std::uint32_t> folded(n, 0);
        for (const std::uint32_t c : got) {
          ASSERT_LT(c, n);
          ++folded[c];
        }
        EXPECT_EQ(folded, kernel_counts(isa, lanes, n, snap, balls, 5))
            << kernel_isa_name(isa) << " n " << n << " lanes " << lanes;
      }
    }
  }
}

TEST(KernelAlias, EmittedChoicesFoldToRunCounts) {
  // The alias lane path's counterpart of the test above.
  for (const bin_count n : {53u, 4096u}) {
    const auto snap = make_snapshot(n);
    std::vector<double> weights(n);
    for (bin_count i = 0; i < n; ++i) weights[i] = static_cast<double>((i % 7) + 1);
    const alias_table table(weights);
    for (const std::size_t lanes : {std::size_t{3}, std::size_t{8}}) {
      const step_count balls = 20001;
      const auto reference = emitted(kernel_isa::scalar, lanes, n, snap, &table, balls, 5);
      ASSERT_EQ(reference.size(), static_cast<std::size_t>(balls));
      for (const kernel_isa isa : supported_isas()) {
        const auto got = emitted(isa, lanes, n, snap, &table, balls, 5);
        EXPECT_EQ(got, reference) << kernel_isa_name(isa) << " n " << n << " lanes " << lanes;
        std::vector<std::uint32_t> folded(n, 0);
        for (const std::uint32_t c : got) {
          ASSERT_LT(c, n);
          ++folded[c];
        }
        EXPECT_EQ(folded, kernel_alias_counts(isa, lanes, n, snap, table, balls, 5))
            << kernel_isa_name(isa) << " n " << n << " lanes " << lanes;
      }
    }
  }
}

/// Checks that kernel_run's widened byte counts equal the uint32 fold of
/// kernel_emit's sequence, on every backend, for carry-free windows
/// (balls = n) and carry-heavy ones (up to 10^5 balls into 1-64 bins,
/// whose carry lists pass n / 4 entries and spill into the uint32 row),
/// and that the counts are reused cleanly: a second window into the same
/// byte_counts, after the commit's zeroing of `wide`, counts the same.
void expect_widened_counts_match_emitted_fold(const alias_table* (*table_for)(bin_count)) {
  struct shape {
    bin_count n;
    step_count balls;
  };
  const shape shapes[] = {{4096, 4096}, {100003, 100003}, {1, 100000},
                          {7, 100000},  {64, 100000},     {64, 255 * 64}};
  for (const shape& sh : shapes) {
    const auto snap = make_snapshot(sh.n);
    const alias_table* table = table_for(sh.n);
    for (const kernel_isa isa : supported_isas()) {
      std::vector<std::uint32_t> folded(sh.n, 0);
      for (const std::uint32_t c : emitted(isa, 8, sh.n, snap, table, sh.balls, 11)) ++folded[c];
      byte_counts counts;
      counts.reset(sh.n);
      for (int window = 0; window < 2; ++window) {
        if (table != nullptr) {
          kernel_run_alias(isa, 8, sh.n, snap.data(), table->thresholds(), table->aliases(),
                           counts, sh.balls, 11);
        } else {
          kernel_run(isa, 8, sh.n, snap.data(), counts, sh.balls, 11);
        }
        const bool carry_free = sh.balls <= static_cast<step_count>(sh.n);
        EXPECT_EQ(counts.wrapped, !carry_free);
        EXPECT_LE(counts.carries.size(), sh.n / 4);
        if (sh.n <= 7) {
          EXPECT_EQ(counts.wide.size(), sh.n);  // spilled
        }
        counts.widen();
        EXPECT_EQ(counts.wide, folded) << kernel_isa_name(isa) << " n " << sh.n << " balls "
                                       << sh.balls << " window " << window;
        EXPECT_EQ(counts.low, std::vector<std::uint8_t>(sh.n, 0));
        EXPECT_TRUE(counts.carries.empty());
        EXPECT_FALSE(counts.wrapped);
        std::fill(counts.wide.begin(), counts.wide.end(), 0u);  // as the commit leaves it
      }
    }
  }
}

TEST(Kernel, ByteCountsWidenToEmittedFold) {
  expect_widened_counts_match_emitted_fold([](bin_count) -> const alias_table* {
    return nullptr;
  });
}

TEST(KernelAlias, ByteCountsWidenToEmittedFold) {
  expect_widened_counts_match_emitted_fold([](bin_count n) -> const alias_table* {
    static std::vector<std::unique_ptr<alias_table>> tables;
    std::vector<double> weights(n);
    for (bin_count i = 0; i < n; ++i) weights[i] = static_cast<double>((i % 7) + 1);
    tables.push_back(std::make_unique<alias_table>(weights));
    return tables.back().get();
  });
}

TEST(Kernel, LaneCountIsASamplingParameter) {
  // Different lane counts are different substream sets, so (with the same
  // seed) they must draw different randomness -- while each stays
  // internally ISA-invariant (covered above).
  const bin_count n = 512;
  const auto snap = make_snapshot(n);
  const auto l4 = kernel_counts(kernel_isa::scalar, 4, n, snap, 10000, 42);
  const auto l8 = kernel_counts(kernel_isa::scalar, 8, n, snap, 10000, 42);
  EXPECT_NE(l4, l8);
}

TEST(Kernel, GoldenLaneContractRegression) {
  // Frozen reference values for (seed 42, n 101, lanes 8, balls 10^5) on
  // the cyclic snapshot: an FNV-1a fold of the count vector plus spot
  // counts.  These pin the sampling contract itself -- any change to lane
  // seeding, draw order, Lemire acceptance or the tie rule shows up here.
  // EVERY compiled backend must hit the same golden hash directly (not
  // just match scalar): a contract drift that slipped into all backends at
  // once would still fail here.
  const bin_count n = 101;
  const auto snap = make_snapshot(n);
  for (const kernel_isa isa : supported_isas()) {
    const auto counts = kernel_counts(isa, 8, n, snap, 100000, 42);
    std::uint64_t fnv = 0xCBF29CE484222325ULL;
    for (const std::uint32_t c : counts) {
      fnv ^= c;
      fnv *= 0x100000001B3ULL;
    }
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}), 100000)
        << kernel_isa_name(isa);
    EXPECT_EQ(fnv, 852822278533736135ULL) << kernel_isa_name(isa);
    EXPECT_EQ(counts[0], 1784u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[1], 1301u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[2], 986u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[3], 579u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[4], 206u) << kernel_isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// (4) Engines: ISA- and thread-count invariance, serial fallbacks, and
// distributional parity.

std::vector<load_t> kernel_engine_loads(kernel_isa isa, std::size_t lanes, bin_count n,
                                        step_count m, std::uint64_t seed) {
  b_batch process(n, n);
  rng_t rng(seed);
  kernel_engine engine(kernel_options{.lanes = lanes, .isa = isa, .min_window = 1});
  engine.step_many(process, rng, m);
  return process.state().loads();
}

TEST(KernelEngine, BitIdenticalAcrossIsaBackends) {
  const bin_count n = 1024;
  const step_count m = 64 * n;
  const auto reference = kernel_engine_loads(kernel_isa::scalar, 8, n, m, 7);
  EXPECT_EQ(nb::testing::total_balls(reference), m);
  for (const kernel_isa isa : supported_isas()) {
    EXPECT_EQ(kernel_engine_loads(isa, 8, n, m, 7), reference) << kernel_isa_name(isa);
  }
  // auto_detect resolves to one of the backends, so it matches too.
  EXPECT_EQ(kernel_engine_loads(kernel_isa::auto_detect, 8, n, m, 7), reference);
  // Different lanes: different sampling.
  EXPECT_NE(kernel_engine_loads(kernel_isa::scalar, 4, n, m, 7), reference);
}

TEST(KernelEngine, UndersizedWindowsFallBackToSerialExactly) {
  // min_window above every batch: the engine must walk the run through the
  // serial fused loop on the master stream, bit-identical to step_many
  // including the generator position afterwards.
  b_batch via_engine(32, 32);
  b_batch serial(32, 32);
  rng_t rng_a(21);
  rng_t rng_b(21);
  kernel_engine engine(kernel_options{.min_window = 1 << 20});
  engine.step_many(via_engine, rng_a, 3210);
  step_many(serial, rng_b, 3210);
  EXPECT_EQ(via_engine.state().loads(), serial.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(KernelEngine, NonMinSelectProcessesFallBackToSerialExactly) {
  // two_choice has no window API; tau-Delay only probes (window 0).  Both
  // must route through the serial path bit for bit.
  two_choice tc_kernel(32);
  two_choice tc_serial(32);
  rng_t rng_a(5);
  rng_t rng_b(5);
  kernel_engine engine(kernel_options{.min_window = 1});
  engine.step_many(tc_kernel, rng_a, 2000);
  step_many(tc_serial, rng_b, 2000);
  EXPECT_EQ(tc_kernel.state().loads(), tc_serial.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());

  tau_delay<delay_adversarial> td_kernel(32, 9);
  tau_delay<delay_adversarial> td_serial(32, 9);
  rng_t rng_c(6);
  rng_t rng_d(6);
  engine.step_many(td_kernel, rng_c, 2000);
  step_many(td_serial, rng_d, 2000);
  EXPECT_EQ(td_kernel.state().loads(), td_serial.state().loads());
}

TEST(KernelEngine, TypeErasedRouteMatchesTemplateRoute) {
  // Same bridge contract as the shard engine's: the any_process overload
  // runs the concrete type's kernel path, never the no-window fallback.
  const bin_count n = 256;
  const step_count m = 32 * n;
  b_batch direct(n, n);
  any_process erased{b_batch(n, n)};
  rng_t rng_a(88);
  rng_t rng_b(88);
  kernel_engine engine(kernel_options{.min_window = 1});
  engine.step_many(direct, rng_a, m);
  engine.step_many(erased, rng_b, m);
  EXPECT_EQ(direct.state().loads(), erased.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());
  EXPECT_FALSE(warned("kernel-engine/" + erased.name()));
}

TEST(KernelEngine, GapDistributionMatchesSerialBulkPath) {
  // The kernel path draws different (identically distributed) randomness
  // than the serial fused loop; agreement is distributional.  Same bar as
  // the shard engine's parity test: means over 24 runs within 1.5.
  const bin_count n = 100;
  const step_count m = 100 * n;
  const std::size_t runs = 24;
  double serial_mean = 0.0;
  double kernel_mean = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    b_batch serial(n, n);
    rng_t rng_s(derive_seed(3000, r));
    step_many(serial, rng_s, m);
    serial_mean += serial.state().gap();

    b_batch kern(n, n);
    rng_t rng_k(derive_seed(4000, r));
    kernel_engine engine(kernel_options{.min_window = 1});
    engine.step_many(kern, rng_k, m);
    kernel_mean += kern.state().gap();
    EXPECT_EQ(kern.state().balls(), m);
  }
  EXPECT_NEAR(serial_mean / runs, kernel_mean / runs, 1.5);
}

TEST(KernelEngine, GoldenLoadsDigest) {
  // Frozen FNV-1a folds of the loads and the reported (stale) loads after
  // m balls through the 8-lane engine, run as two calls so a partial
  // window's touched bins meet the next boundary.  They pin the engine's
  // sampling contract across uniform and alias sampling, unit and fixed
  // weights and partial windows.  The last two cases put about 1,024 balls
  // into every bin per window, so their windows count past a byte.
  struct golden_case {
    bin_count n;
    step_count b;
    step_count m;
    const char* weighting;
    const char* sampler;
    std::uint64_t digest;
  };
  const golden_case cases[] = {
      {4096, 4096, 8 * 4096 + 3000, "unit", "uniform", 8857136117032778883ULL},
      {4096, 4096, 8 * 4096 + 3000, "unit", "zipf:1", 2420321821284552683ULL},
      {4096, 4096, 8 * 4096 + 3000, "fixed:3", "uniform", 13028744313023992443ULL},
      {4096, 4096, 8 * 4096 + 3000, "fixed:3", "zipf:1", 3955282710146095895ULL},
      {100003, 100003, 3 * 100003 + 50001, "unit", "uniform", 9615947909792585424ULL},
      {100003, 100003, 3 * 100003 + 50001, "unit", "zipf:1", 4614019372691308884ULL},
      {100003, 100003, 3 * 100003 + 50001, "fixed:3", "uniform", 9261906520251750402ULL},
      {100003, 100003, 3 * 100003 + 50001, "fixed:3", "zipf:1", 10914380077953886910ULL},
      {1024, 1 << 20, 2 * (1 << 20) + 300000, "unit", "uniform", 3211402878037618785ULL},
      {1024, 1 << 20, 2 * (1 << 20) + 300000, "fixed:3", "zipf:1", 7577701852071839011ULL},
  };
  for (const kernel_isa isa : supported_isas()) {
    kernel_engine engine(kernel_options{.lanes = 8, .isa = isa});
    for (const golden_case& c : cases) {
      b_batch process(c.n, c.b);
      process.set_model(make_model(c.weighting, c.sampler, c.n));
      rng_t rng(20261);
      engine.step_many(process, rng, c.m / 3);
      engine.step_many(process, rng, c.m - c.m / 3);
      std::uint64_t fnv = 0xCBF29CE484222325ULL;
      const auto fold = [&fnv](load_t x) {
        fnv ^= static_cast<std::uint32_t>(x);
        fnv *= 0x100000001B3ULL;
      };
      for (bin_index i = 0; i < c.n; ++i) fold(process.state().load(i));
      for (bin_index i = 0; i < c.n; ++i) fold(process.reported_load(i));
      EXPECT_EQ(process.state().balls(), c.m);
      EXPECT_EQ(fnv, c.digest) << kernel_isa_name(engine.isa()) << " n " << c.n << " b " << c.b
                               << " " << c.weighting << "/" << c.sampler;
    }
  }
}

std::vector<load_t> shard_kernel_loads(std::size_t threads, kernel_isa isa, bin_count n,
                                       step_count m, std::uint64_t seed) {
  b_batch process(n, n);
  rng_t rng(seed);
  shard_engine engine(shard_options{
      .threads = threads, .shards = 8, .min_window = 1, .lanes = 8, .isa = isa});
  engine.step_many(process, rng, m);
  return process.state().loads();
}

TEST(ShardEngineKernel, BitIdenticalAcrossThreadCountsAndBackends) {
  // The shard engine now runs min-select shards through the kernel: the
  // result must stay a pure function of (seed, shards, lanes) -- invariant
  // in BOTH the thread count and the ISA backend, jointly.
  const bin_count n = 256;
  const step_count m = 32 * n;
  const auto reference = shard_kernel_loads(1, kernel_isa::scalar, n, m, 2025);
  EXPECT_EQ(nb::testing::total_balls(reference), m);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const kernel_isa isa : supported_isas()) {
      EXPECT_EQ(shard_kernel_loads(threads, isa, n, m, 2025), reference)
          << threads << " threads, " << kernel_isa_name(isa);
    }
  }
}

TEST(ShardEngineKernel, GapHistogramInvariantAcrossBackendsForRegistry) {
  // Every registered process kind, driven through run_repeated's
  // shard-parallel route with explicit scalar vs auto backends and 1 vs 2
  // worker threads: per-run max loads, gaps and the aggregate gap
  // histogram must all be bit-identical.  Non-windowed kinds exercise the
  // serial fallback; b-batch exercises the kernel.
  for (const auto& [kind, description] : registered_process_kinds()) {
    // One valid parameter per kind: (1+beta) needs beta in [0,1], every
    // other parameterized kind accepts a small positive integer.
    const process_spec spec{kind, 64, kind == "one-plus-beta" ? 0.5 : 4.0};
    repeat_options opt;
    opt.runs = 3;
    opt.master_seed = 17;
    opt.threads = 1;
    opt.engine.threads_per_run = 1;
    opt.engine.shards = 4;
    opt.engine.lanes = 8;
    opt.engine.isa = kernel_isa::scalar;
    const auto scalar_run = run_repeated([&] { return make_process(spec); }, 64 * 64, opt);
    opt.threads = 2;
    opt.engine.threads_per_run = 2;
    opt.engine.isa = kernel_isa::auto_detect;
    const auto simd_run = run_repeated([&] { return make_process(spec); }, 64 * 64, opt);
    ASSERT_EQ(scalar_run.runs.size(), simd_run.runs.size()) << kind;
    for (std::size_t r = 0; r < scalar_run.runs.size(); ++r) {
      EXPECT_EQ(scalar_run.runs[r].max_load, simd_run.runs[r].max_load) << kind << " run " << r;
      EXPECT_DOUBLE_EQ(scalar_run.runs[r].gap, simd_run.runs[r].gap) << kind << " run " << r;
    }
    EXPECT_EQ(scalar_run.gap_histogram.entries(), simd_run.gap_histogram.entries()) << kind;
  }
}

TEST(KernelEngine, SimulateKernelAndRepeatRouting) {
  b_batch process(64, 64);
  rng_t rng(3);
  kernel_engine engine(kernel_options{.min_window = 1});
  engine.step_many(process, rng, 640);
  EXPECT_EQ(process.state().balls(), 640);

  // use_kernel routes run_repeated through the serial kernel engine;
  // results must not depend on the ISA backend.
  repeat_options opt;
  opt.runs = 3;
  opt.master_seed = 9;
  opt.engine.use_kernel = true;
  opt.engine.isa = kernel_isa::scalar;
  const auto a = run_repeated([] { return any_process(b_batch(64, 8192)); }, 64 * 256, opt);
  opt.engine.isa = kernel_isa::auto_detect;
  const auto b = run_repeated([] { return any_process(b_batch(64, 8192)); }, 64 * 256, opt);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].max_load, b.runs[r].max_load);
    EXPECT_DOUBLE_EQ(a.runs[r].gap, b.runs[r].gap);
  }
  EXPECT_EQ(a.gap_histogram.entries(), b.gap_histogram.entries());
}

// ---------------------------------------------------------------------------
// (5) Dispatch plumbing.

TEST(KernelIsa, NamesRoundTripAndAliases) {
  for (const kernel_isa isa : all_isas()) {
    const auto back = kernel_isa_from_name(kernel_isa_name(isa));
    ASSERT_TRUE(back.has_value()) << kernel_isa_name(isa);
    EXPECT_EQ(*back, isa) << kernel_isa_name(isa);
  }
  EXPECT_EQ(kernel_isa_from_name("auto"), kernel_isa::auto_detect);
  EXPECT_EQ(kernel_isa_from_name("simd"), kernel_isa::auto_detect);
  EXPECT_FALSE(kernel_isa_from_name("sve").has_value());
  EXPECT_FALSE(kernel_isa_from_name("").has_value());
}

TEST(KernelIsa, ResolutionIsSupportedAndStable) {
  const kernel_isa best = detect_kernel_isa();
  EXPECT_NE(best, kernel_isa::auto_detect);
  EXPECT_TRUE(kernel_isa_supported(best));
  EXPECT_EQ(resolve_kernel_isa(kernel_isa::auto_detect), best);
  EXPECT_EQ(resolve_kernel_isa(kernel_isa::scalar), kernel_isa::scalar);
  // An explicit but unsupported request downgrades (legal: the backend
  // never affects results).
  if (!kernel_isa_supported(kernel_isa::avx2)) {
    EXPECT_EQ(resolve_kernel_isa(kernel_isa::avx2), best);
  }
}

TEST(KernelIsa, UnsupportedForcedIsaWarnsOnceOnFallback) {
  // Forcing a backend the CPU lacks must still resolve (downgrade is legal)
  // but emit the one-shot kernel-isa-fallback diagnostic, so a benchmark
  // that silently measured the wrong ISA is visible in its output.  Every
  // build has at least one unsupported backend (neon on x86, the x86 ISAs
  // on aarch64).
  bool exercised = false;
  for (const kernel_isa isa : all_isas()) {
    if (kernel_isa_supported(isa)) continue;
    exercised = true;
    const std::string key = std::string("kernel-isa-fallback:") + kernel_isa_name(isa);
    const kernel_isa resolved = resolve_kernel_isa(isa);
    EXPECT_TRUE(kernel_isa_supported(resolved)) << kernel_isa_name(isa);
    EXPECT_NE(resolved, isa);
    EXPECT_TRUE(warned(key)) << key;
  }
  EXPECT_TRUE(exercised);
  // Supported requests resolve to themselves and never warn.
  EXPECT_EQ(resolve_kernel_isa(kernel_isa::scalar), kernel_isa::scalar);
  EXPECT_FALSE(warned("kernel-isa-fallback:scalar"));
}

TEST(Kernel, RejectsContractViolations) {
  const auto snap = make_snapshot(8);
  byte_counts counts;
  counts.reset(8);
  EXPECT_THROW(kernel_run(kernel_isa::scalar, 0, 8, snap.data(), counts, 10, 1), contract_error);
  EXPECT_THROW(kernel_run(kernel_isa::scalar, kernel_max_lanes + 1, 8, snap.data(), counts, 10, 1),
               contract_error);
  EXPECT_THROW(kernel_run(kernel_isa::scalar, 8, 9, snap.data(), counts, 10, 1),
               contract_error);  // counts sized for another n
  counts.reset(0);
  EXPECT_THROW(kernel_run(kernel_isa::scalar, 8, 0, snap.data(), counts, 10, 1), contract_error);
  EXPECT_THROW(static_cast<void>(shard_engine(shard_options{.lanes = 0})), contract_error);
  EXPECT_THROW(static_cast<void>(kernel_engine(kernel_options{.lanes = 65})), contract_error);
}

}  // namespace
