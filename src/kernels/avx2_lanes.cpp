// AVX2 batched weight solves: one __m256 carries all eight lanes of a group.
//
// The algorithms are kernels/lanes_ref.hpp's, instantiated over the policy
// below; the scalar table instantiates the same templates over one float.
// Every policy operation rounds exactly like its scalar counterpart
// (vfmadd/vfnmadd against std::fma, MAXPS against `a > b ? a : b`,
// compare-and-blend against the scalar selects), so each lane equals the
// scalar table bit for bit. That holds only while the compiler fuses
// nothing on its own: this file is built with -mavx2 -mfma but
// -ffp-contract=off, apart from avx2.cpp whose kernels contract freely.
#include <immintrin.h>

#include "kernels/kernels.hpp"
#include "kernels/lanes_ref.hpp"

namespace ppstap::kernels::detail {

namespace {

struct Avx2Lane {
  using V = __m256;
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_ps(a); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V fnma(V a, V b, V c) { return _mm256_fnmadd_ps(a, b, c); }
  static V neg(V a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }
  static V abs(V a) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V select_eq0(V c, V a, V b) {
    return _mm256_blendv_ps(
        b, a, _mm256_cmp_ps(c, _mm256_setzero_ps(), _CMP_EQ_OQ));
  }
  static V select_gt0(V c, V a, V b) {
    return _mm256_blendv_ps(
        b, a, _mm256_cmp_ps(c, _mm256_setzero_ps(), _CMP_GT_OQ));
  }
};

}  // namespace

void qr_append_lanes_avx2(float* r, index_t n, float* x, index_t k,
                          float* rhs, float* xrhs, index_t p) {
  qr_append_ref<Avx2Lane>(r, n, x, k, rhs, xrhs, p);
}

void qr_dense_lanes_avx2(float* a, index_t m, index_t n, float* b,
                         index_t p) {
  qr_dense_ref<Avx2Lane>(a, m, n, b, p);
}

void back_substitute_lanes_avx2(const float* r, index_t rs, index_t cs,
                                index_t n, float* b, index_t brs, index_t bcs,
                                index_t p) {
  back_substitute_ref<Avx2Lane>(r, rs, cs, n, b, brs, bcs, p);
}

// Four double lanes per half: the same product, sum and sqrt as the
// scalar loop, each rounded once.
void lane_abs_sum_avx2(const float* g, index_t count, double* acc) {
  __m256d lo = _mm256_loadu_pd(acc), hi = _mm256_loadu_pd(acc + 4);
  for (index_t e = 0; e < count; ++e, g += kLaneElem) {
    const __m256 re = _mm256_loadu_ps(g), im = _mm256_loadu_ps(g + kLanes);
    const __m256d re_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(re));
    const __m256d re_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(re, 1));
    const __m256d im_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(im));
    const __m256d im_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(im, 1));
    lo = _mm256_add_pd(lo, _mm256_sqrt_pd(_mm256_add_pd(
                               _mm256_mul_pd(re_lo, re_lo),
                               _mm256_mul_pd(im_lo, im_lo))));
    hi = _mm256_add_pd(hi, _mm256_sqrt_pd(_mm256_add_pd(
                               _mm256_mul_pd(re_hi, re_hi),
                               _mm256_mul_pd(im_hi, im_hi))));
  }
  _mm256_storeu_pd(acc, lo);
  _mm256_storeu_pd(acc + 4, hi);
}

}  // namespace ppstap::kernels::detail
