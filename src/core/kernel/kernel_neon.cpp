// NEON backend of the allocation kernel: 2 lanes per 128-bit vector,
// compile-time selected on aarch64 (AdvSIMD is architecturally mandatory
// there, so no runtime feature test or target attribute is needed).
//
// The arithmetic-heavy half -- the xoshiro256++ steps and the Lemire
// multiply-shift (vmull_u32 on the narrowed 32-bit halves gives the
// 96-bit product decomposition) -- runs vectorized, the snapshot loads
// stay scalar (no gathers on NEON), and the min-select runs on 32-bit
// NEON lanes.  NEON has unsigned 64-bit compares (vcltq_u64), so the
// rejection test is EXACT: a group only leaves the vector path on a true
// Lemire rejection (~2^-32 per draw), a remainder lane, or the trailing
// partial round -- all through the shared scalar queue replay, preserving
// the per-lane draw order bit for bit.
//
// NEON shift/rotate immediates must be compile-time constants, hence the
// template<int K> rotate.
#if defined(__aarch64__)

#include <arm_neon.h>

#include "core/kernel/kernel_common.hpp"

namespace nb::kernel_detail {
namespace {

template <int K>
inline uint64x2_t rot64(uint64x2_t x) {
  return vorrq_u64(vshlq_n_u64(x, K), vshrq_n_u64(x, 64 - K));
}

/// One xoshiro256++ step for 2 lanes (same update as lane_soa::next).
inline uint64x2_t xo_step(uint64x2_t& s0, uint64x2_t& s1, uint64x2_t& s2, uint64x2_t& s3) {
  const uint64x2_t result = vaddq_u64(rot64<23>(vaddq_u64(s0, s3)), s0);
  const uint64x2_t t = vshlq_n_u64(s1, 17);
  s2 = veorq_u64(s2, s0);
  s3 = veorq_u64(s3, s1);
  s1 = veorq_u64(s1, s2);
  s0 = veorq_u64(s0, s3);
  s2 = veorq_u64(s2, t);
  s3 = rot64<45>(s3);
  return result;
}

/// Lemire multiply-shift for 2 draws (see lemire4 in kernel_avx2.cpp for
/// the decomposition; bound < 2^32).  vmull_u32 widens the narrowed
/// 32-bit halves straight into the two 64-bit partial products.
inline void lemire2(uint64x2_t x, uint32x2_t bound, uint64x2_t& candidate, uint64x2_t& low) {
  const uint64x2_t lo_prod = vmull_u32(vmovn_u64(x), bound);
  const uint64x2_t hi_prod = vmull_u32(vshrn_n_u64(x, 32), bound);
  candidate = vshrq_n_u64(vaddq_u64(hi_prod, vshrq_n_u64(lo_prod, 32)), 32);
  low = vaddq_u64(vshlq_n_u64(hi_prod, 32), lo_prod);
}

/// True when any 64-bit lane of `m` is all-ones.
inline bool any_lane(uint64x2_t m) { return vmaxvq_u32(vreinterpretq_u32_u64(m)) != 0; }

void fill_neon_impl(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                    std::uint32_t* chosen, std::size_t balls) {
  const std::size_t lanes = st.lanes;
  const std::size_t vec_lanes = lanes - lanes % 2;
  const auto bound64 = static_cast<std::uint64_t>(n);
  const uint32x2_t bound = vdup_n_u32(static_cast<std::uint32_t>(bound64));
  const uint64x2_t thr = vdupq_n_u64(threshold);

  std::size_t t = 0;
  while (t + lanes <= balls) {
    for (std::size_t lane0 = 0; lane0 < vec_lanes; lane0 += 2) {
      uint64x2_t s0 = vld1q_u64(st.s0.data() + lane0);
      uint64x2_t s1 = vld1q_u64(st.s1.data() + lane0);
      uint64x2_t s2 = vld1q_u64(st.s2.data() + lane0);
      uint64x2_t s3 = vld1q_u64(st.s3.data() + lane0);
      const uint64x2_t a = xo_step(s0, s1, s2, s3);
      const uint64x2_t b = xo_step(s0, s1, s2, s3);
      const uint64x2_t c = xo_step(s0, s1, s2, s3);
      vst1q_u64(st.s0.data() + lane0, s0);
      vst1q_u64(st.s1.data() + lane0, s1);
      vst1q_u64(st.s2.data() + lane0, s2);
      vst1q_u64(st.s3.data() + lane0, s3);

      uint64x2_t i1;
      uint64x2_t i2;
      uint64x2_t low_a;
      uint64x2_t low_b;
      lemire2(a, bound, i1, low_a);
      lemire2(b, bound, i2, low_b);

      // Exact rejection test: reject iff the low product word clears the
      // hoisted Lemire threshold.
      if (any_lane(vorrq_u64(vcltq_u64(low_a, thr), vcltq_u64(low_b, thr)))) [[unlikely]] {
        std::uint64_t qa[2];
        std::uint64_t qb[2];
        std::uint64_t qc[2];
        vst1q_u64(qa, a);
        vst1q_u64(qb, b);
        vst1q_u64(qc, c);
        for (std::size_t l = 0; l < 2; ++l) {
          const std::uint64_t queue[3] = {qa[l], qb[l], qc[l]};
          chosen[t + lane0 + l] = replay_ball(st, lane0 + l, bound64, threshold, snap, queue, 3);
        }
        continue;
      }

      // Scalar snapshot loads (no gathers on NEON), vector min-select:
      // pick i1 when snap[i1] < snap[i2], or on a tie when draw c's top
      // bit is set.
      std::uint64_t idx1[2];
      std::uint64_t idx2[2];
      vst1q_u64(idx1, i1);
      vst1q_u64(idx2, i2);
      uint32x2_t ga = vdup_n_u32(snap[idx1[0]]);
      ga = vset_lane_u32(snap[idx1[1]], ga, 1);
      uint32x2_t gb = vdup_n_u32(snap[idx2[0]]);
      gb = vset_lane_u32(snap[idx2[1]], gb, 1);
      const uint32x2_t tie = vmovn_u64(vcltzq_s64(vreinterpretq_s64_u64(c)));
      const uint32x2_t pick =
          vorr_u32(vclt_u32(ga, gb), vand_u32(vceq_u32(ga, gb), tie));
      const uint32x2_t ch = vbsl_u32(pick, vmovn_u64(i1), vmovn_u64(i2));
      vst1_u32(chosen + t + lane0, ch);
    }
    for (std::size_t l = vec_lanes; l < lanes; ++l) {  // remainder lanes
      chosen[t + l] = replay_ball(st, l, bound64, threshold, snap, nullptr, 0);
    }
    t += lanes;
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {  // trailing partial round
    chosen[t] = replay_ball(st, l, bound64, threshold, snap, nullptr, 0);
  }
}

/// Alias-sampled fill: vector RNG + Lemire for the five draws per 2-lane
/// group, scalar table lookups (alias_pick) and decision, with the
/// uniform path's exact rejection test.
void fill_alias_neon_impl(lane_soa& st, bin_count n, std::uint64_t threshold,
                          const std::uint8_t* snap, const std::uint64_t* thresh,
                          const bin_index* alias, std::uint32_t* chosen, std::size_t balls) {
  const std::size_t lanes = st.lanes;
  const std::size_t vec_lanes = lanes - lanes % 2;
  const auto bound64 = static_cast<std::uint64_t>(n);
  const uint32x2_t bound = vdup_n_u32(static_cast<std::uint32_t>(bound64));
  const uint64x2_t thr = vdupq_n_u64(threshold);

  std::size_t t = 0;
  while (t + lanes <= balls) {
    for (std::size_t lane0 = 0; lane0 < vec_lanes; lane0 += 2) {
      uint64x2_t s0 = vld1q_u64(st.s0.data() + lane0);
      uint64x2_t s1 = vld1q_u64(st.s1.data() + lane0);
      uint64x2_t s2 = vld1q_u64(st.s2.data() + lane0);
      uint64x2_t s3 = vld1q_u64(st.s3.data() + lane0);
      const uint64x2_t a = xo_step(s0, s1, s2, s3);   // slot 1
      const uint64x2_t u1 = xo_step(s0, s1, s2, s3);  // keep/alias test 1
      const uint64x2_t b = xo_step(s0, s1, s2, s3);   // slot 2
      const uint64x2_t u2 = xo_step(s0, s1, s2, s3);  // keep/alias test 2
      const uint64x2_t c = xo_step(s0, s1, s2, s3);   // tie bit
      vst1q_u64(st.s0.data() + lane0, s0);
      vst1q_u64(st.s1.data() + lane0, s1);
      vst1q_u64(st.s2.data() + lane0, s2);
      vst1q_u64(st.s3.data() + lane0, s3);

      uint64x2_t sl1;
      uint64x2_t sl2;
      uint64x2_t low_a;
      uint64x2_t low_b;
      lemire2(a, bound, sl1, low_a);
      lemire2(b, bound, sl2, low_b);

      std::uint64_t qu1[2];
      std::uint64_t qu2[2];
      std::uint64_t qc[2];
      vst1q_u64(qu1, u1);
      vst1q_u64(qu2, u2);
      vst1q_u64(qc, c);

      if (any_lane(vorrq_u64(vcltq_u64(low_a, thr), vcltq_u64(low_b, thr)))) [[unlikely]] {
        std::uint64_t qa[2];
        std::uint64_t qb[2];
        vst1q_u64(qa, a);
        vst1q_u64(qb, b);
        for (std::size_t l = 0; l < 2; ++l) {
          const std::uint64_t queue[5] = {qa[l], qu1[l], qb[l], qu2[l], qc[l]};
          chosen[t + lane0 + l] =
              replay_ball_alias(st, lane0 + l, bound64, threshold, snap, thresh, alias, queue, 5);
        }
        continue;
      }

      std::uint64_t slot1[2];
      std::uint64_t slot2[2];
      vst1q_u64(slot1, sl1);
      vst1q_u64(slot2, sl2);
      for (std::size_t l = 0; l < 2; ++l) {
        const std::uint32_t i1 =
            alias_pick(thresh, alias, static_cast<std::uint32_t>(slot1[l]), qu1[l]);
        const std::uint32_t i2 =
            alias_pick(thresh, alias, static_cast<std::uint32_t>(slot2[l]), qu2[l]);
        chosen[t + lane0 + l] = decide(snap[i1], snap[i2], qc[l], i1, i2);
      }
    }
    for (std::size_t l = vec_lanes; l < lanes; ++l) {
      chosen[t + l] = replay_ball_alias(st, l, bound64, threshold, snap, thresh, alias, nullptr, 0);
    }
    t += lanes;
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {
    chosen[t] = replay_ball_alias(st, l, bound64, threshold, snap, thresh, alias, nullptr, 0);
  }
}

}  // namespace

void fill_neon(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
               std::uint32_t* chosen, std::size_t balls, kernel_tuning /*tune*/) {
  fill_neon_impl(st, n, threshold, snap, chosen, balls);
}

void fill_alias_neon(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                     const std::uint64_t* thresh, const bin_index* alias, std::uint32_t* chosen,
                     std::size_t balls, kernel_tuning /*tune*/) {
  fill_alias_neon_impl(st, n, threshold, snap, thresh, alias, chosen, balls);
}

}  // namespace nb::kernel_detail

#endif  // aarch64
