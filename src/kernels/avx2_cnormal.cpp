// AVX2 add_cnormal: eight complex normal samples per iteration.
//
// Each double lane runs detail::cnormal_ref (common/cnormal_ref.hpp) step for
// step — the same SplitMix64 mix, the same exact 53-bit conversion, the
// same polynomial log and sincos, the same rounding of every +, -, *, /
// and sqrt — so the output equals the scalar table's bit for bit. That
// only holds while no multiply-add is contracted into an FMA, which is why
// this file is compiled apart from avx2.cpp with -mavx2 -ffp-contract=off
// and without -mfma.
//
// Lane i of an iteration's vectors is sample base + i (i < 8, two vectors
// of four), whose two draws are the Weyl states s + (2i + 1) gamma (radius)
// and s + (2i + 2) gamma (angle). AVX2
// has no 64-bit multiply-low or unsigned-64-to-double conversion; both are
// composed from 32-bit pieces without rounding.
#include <immintrin.h>

#include "common/cnormal_ref.hpp"
#include "kernels/kernels.hpp"

namespace ppstap::kernels::detail {

namespace {

using ppstap::detail::kWeylGamma;

// a * b mod 2^64 per lane, for a constant b split into 32-bit halves.
inline __m256i mullo64(__m256i a, __m256i b_lo, __m256i b_hi) {
  const __m256i lo = _mm256_mul_epu32(a, b_lo);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i splitmix64(__m256i z) {
  constexpr std::uint64_t kM1 = 0xbf58476d1ce4e5b9ULL;
  constexpr std::uint64_t kM2 = 0x94d049bb133111ebULL;
  const __m256i m1_lo = _mm256_set1_epi64x(static_cast<long long>(kM1));
  const __m256i m1_hi = _mm256_set1_epi64x(static_cast<long long>(kM1 >> 32));
  const __m256i m2_lo = _mm256_set1_epi64x(static_cast<long long>(kM2));
  const __m256i m2_hi = _mm256_set1_epi64x(static_cast<long long>(kM2 >> 32));
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), m1_lo, m1_hi);
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), m2_lo, m2_hi);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

// unit_from_draw: (draw >> 11) < 2^53 as two exact 32-bit halves.
inline __m256d unit_from_draw(__m256i draw) {
  const __m256i v = _mm256_srli_epi64(draw, 11);
  const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xffffffffLL));
  const __m256i hi = _mm256_srli_epi64(v, 32);
  const __m256d lo_d = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(lo, _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52));
  const __m256d hi_d = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(hi, _mm256_set1_epi64x(0x4530000000000000LL))),
      _mm256_set1_pd(0x1.0p84));
  return _mm256_mul_pd(_mm256_add_pd(hi_d, lo_d), _mm256_set1_pd(0x1.0p-53));
}

// The sampler's steps over G independent groups of four lanes, each step
// issued for every group before the next: the polynomial chains are
// latency-bound, and interleaved groups fill the gaps.
template <int G>
struct Lanes {
  __m256d v[G];
};

template <int G>
inline Lanes<G> horner(const Lanes<G>& x2, const double* coef, int last) {
  Lanes<G> p;
  for (int g = 0; g < G; ++g) p.v[g] = _mm256_set1_pd(coef[last]);
  for (int k = last - 1; k >= 0; --k) {
    const __m256d c = _mm256_set1_pd(coef[k]);
    for (int g = 0; g < G; ++g)
      p.v[g] = _mm256_add_pd(_mm256_mul_pd(p.v[g], x2.v[g]), c);
  }
  return p;
}

template <int G>
inline Lanes<G> log_ref(const Lanes<G>& x) {
  namespace d = ppstap::detail;
  const __m256d one = _mm256_set1_pd(1.0);
  Lanes<G> e, s, s2;
  for (int g = 0; g < G; ++g) {
    const __m256i bits = _mm256_castpd_si256(x.v[g]);
    const __m256i biased = _mm256_srli_epi64(bits, 52);
    e.v[g] = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            biased, _mm256_set1_epi64x(0x4330000000000000LL))),
        _mm256_set1_pd(0x1.0p52 + 1023.0));
    __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
        _mm256_set1_epi64x(0x3ff0000000000000LL)));
    const __m256d big =
        _mm256_cmp_pd(m, _mm256_set1_pd(d::kSqrt2), _CMP_GT_OQ);
    m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
    e.v[g] = _mm256_add_pd(e.v[g], _mm256_and_pd(big, one));
    s.v[g] = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
    s2.v[g] = _mm256_mul_pd(s.v[g], s.v[g]);
  }
  const Lanes<G> p = horner(s2, d::kLogCoef, 10);
  Lanes<G> out;
  for (int g = 0; g < G; ++g)
    out.v[g] = _mm256_add_pd(
        _mm256_mul_pd(e.v[g], _mm256_set1_pd(d::kLn2Hi)),
        _mm256_add_pd(_mm256_mul_pd(e.v[g], _mm256_set1_pd(d::kLn2Lo)),
                      _mm256_mul_pd(s.v[g], p.v[g])));
  return out;
}

template <int G>
inline void sincos_turn_ref(const Lanes<G>& u, Lanes<G>& c, Lanes<G>& s) {
  namespace d = ppstap::detail;
  const __m256d magic = _mm256_set1_pd(d::kRoundMagic);
  Lanes<G> phi, p2, shifted;
  for (int g = 0; g < G; ++g) {
    const __m256d x = _mm256_mul_pd(u.v[g], _mm256_set1_pd(4.0));
    shifted.v[g] = _mm256_add_pd(x, magic);
    const __m256d q = _mm256_sub_pd(shifted.v[g], magic);
    phi.v[g] = _mm256_mul_pd(_mm256_sub_pd(x, q), _mm256_set1_pd(d::kHalfPi));
    p2.v[g] = _mm256_mul_pd(phi.v[g], phi.v[g]);
  }
  Lanes<G> sp = horner(p2, d::kSinCoef, 8);
  const Lanes<G> cp = horner(p2, d::kCosCoef, 9);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (int g = 0; g < G; ++g) {
    sp.v[g] = _mm256_mul_pd(sp.v[g], phi.v[g]);
    // The integer q sits in the low mantissa bits of x + magic.
    const __m256i qi = _mm256_castpd_si256(shifted.v[g]);
    const __m256d odd = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(qi, one), one));
    const __m256d neg_c = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_add_epi64(qi, one), two), two));
    const __m256d neg_s = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(qi, two), two));
    c.v[g] = _mm256_xor_pd(_mm256_blendv_pd(cp.v[g], sp.v[g], odd),
                           _mm256_and_pd(neg_c, sign));
    s.v[g] = _mm256_xor_pd(_mm256_blendv_pd(sp.v[g], cp.v[g], odd),
                           _mm256_and_pd(neg_s, sign));
  }
}

}  // namespace

void add_cnormal_avx2(std::uint64_t state, double scale, cfloat* out,
                      index_t n) {
  namespace d = ppstap::detail;
  const auto lanes = [&](std::uint64_t first) {
    return _mm256_setr_epi64x(
        static_cast<long long>(state + first * kWeylGamma),
        static_cast<long long>(state + (first + 2) * kWeylGamma),
        static_cast<long long>(state + (first + 4) * kWeylGamma),
        static_cast<long long>(state + (first + 6) * kWeylGamma));
  };
  constexpr int kGroups = 2;  // 8 samples per iteration
  __m256i radius_state[kGroups], angle_state[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    radius_state[g] = lanes(8 * static_cast<std::uint64_t>(g) + 1);
    angle_state[g] = lanes(8 * static_cast<std::uint64_t>(g) + 2);
  }
  const __m256i step =
      _mm256_set1_epi64x(static_cast<long long>(8 * kGroups * kWeylGamma));
  const __m256d min_u = _mm256_set1_pd(d::kMinRadiusUniform);
  const __m256d inv_sqrt2 = _mm256_set1_pd(d::kInvSqrt2);
  const __m256d scale_v = _mm256_set1_pd(scale);
  index_t i = 0;
  for (; i + 4 * kGroups <= n; i += 4 * kGroups) {
    Lanes<kGroups> u1, u2, c, s;
    for (int g = 0; g < kGroups; ++g) {
      u1.v[g] =
          _mm256_max_pd(unit_from_draw(splitmix64(radius_state[g])), min_u);
      u2.v[g] = unit_from_draw(splitmix64(angle_state[g]));
      radius_state[g] = _mm256_add_epi64(radius_state[g], step);
      angle_state[g] = _mm256_add_epi64(angle_state[g], step);
    }
    const Lanes<kGroups> lg = log_ref(u1);
    sincos_turn_ref(u2, c, s);
    for (int g = 0; g < kGroups; ++g) {
      const __m256d r =
          _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), lg.v[g]));
      const __m256d re = _mm256_mul_pd(
          _mm256_mul_pd(inv_sqrt2, _mm256_mul_pd(r, c.v[g])), scale_v);
      const __m256d im = _mm256_mul_pd(
          _mm256_mul_pd(inv_sqrt2, _mm256_mul_pd(r, s.v[g])), scale_v);
      const __m128 re_f = _mm256_cvtpd_ps(re);
      const __m128 im_f = _mm256_cvtpd_ps(im);
      float* o = reinterpret_cast<float*>(out + i + 4 * g);
      const __m256 z = _mm256_set_m128(_mm_unpackhi_ps(re_f, im_f),
                                       _mm_unpacklo_ps(re_f, im_f));
      _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), z));
    }
  }
  state += 2 * static_cast<std::uint64_t>(i) * kWeylGamma;
  for (; i < n; ++i) {
    double re, im;
    d::cnormal_ref(state, re, im);
    state += 2 * kWeylGamma;
    out[i] += cfloat(static_cast<float>(re * scale),
                     static_cast<float>(im * scale));
  }
}

}  // namespace ppstap::kernels::detail
