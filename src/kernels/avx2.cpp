// AVX2+FMA kernel implementations.
//
// Compiled with -mavx2 -mfma as its own translation unit; nothing here runs
// unless dispatch.cpp selects this table after verifying cpuid, so the rest
// of the library stays free of AVX2 code paths.
//
// Complex layout is interleaved (re, im) pairs, four complex floats per ymm.
// The complex product a*b uses the fmaddsub idiom:
//   ar = dup even lanes of a, ai = dup odd lanes of a, bs = b with re/im
//   swapped per pair; fmaddsub(ar, b, ai*bs) yields
//   even: ar*br - ai*bi, odd: ar*bi + ai*br.
// FMA contraction makes low-order bits differ from the scalar table; every
// consumer tolerance is vector-aware (DESIGN §13).
#include <immintrin.h>

#include "kernels/kernels.hpp"

namespace ppstap::kernels::detail {

namespace {

inline const float* fp(const cfloat* p) {
  return reinterpret_cast<const float*>(p);
}
inline float* fp(cfloat* p) { return reinterpret_cast<float*>(p); }

// b with re/im swapped within each complex pair.
inline __m256 swap_pairs(__m256 v) { return _mm256_permute_ps(v, 0xB1); }

// (ar + i ai) * b for broadcast scalars ar, ai and packed b.
inline __m256 cmul_broadcast(__m256 ar, __m256 ai, __m256 b) {
  return _mm256_fmaddsub_ps(ar, b, _mm256_mul_ps(ai, swap_pairs(b)));
}

void axpy_avx2(cfloat a, const cfloat* x, cfloat* y, index_t n) {
  const __m256 ar = _mm256_set1_ps(a.real());
  const __m256 ai = _mm256_set1_ps(a.imag());
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 xv = _mm256_loadu_ps(fp(x + i));
    const __m256 yv = _mm256_loadu_ps(fp(y + i));
    _mm256_storeu_ps(fp(y + i), _mm256_add_ps(yv, cmul_broadcast(ar, ai, xv)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void mul_inplace_avx2(cfloat* a, const cfloat* b, index_t n) {
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 av = _mm256_loadu_ps(fp(a + i));
    const __m256 bv = _mm256_loadu_ps(fp(b + i));
    const __m256 ar = _mm256_moveldup_ps(av);
    const __m256 ai = _mm256_movehdup_ps(av);
    _mm256_storeu_ps(fp(a + i), cmul_broadcast(ar, ai, bv));
  }
  for (; i < n; ++i) a[i] *= b[i];
}

void abs_sq_avx2(const cfloat* x, float* out, index_t n) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x0 = _mm256_loadu_ps(fp(x + i));
    const __m256 x1 = _mm256_loadu_ps(fp(x + i + 4));
    // hadd interleaves 128-bit lanes of its two inputs; the permute of
    // 64-bit groups (0, 2, 1, 3) restores ascending element order.
    const __m256 s = _mm256_hadd_ps(_mm256_mul_ps(x0, x0),
                                    _mm256_mul_ps(x1, x1));
    const __m256d r = _mm256_permute4x64_pd(_mm256_castps_pd(s), 0xD8);
    _mm256_storeu_ps(out + i, _mm256_castpd_ps(r));
  }
  for (; i < n; ++i)
    out[i] = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
}

double energy_avx2(const cfloat* x, index_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 xv = _mm256_loadu_ps(fp(x + i));
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(xv));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  const __m128d sum2 =
      _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  double total = _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
  for (; i < n; ++i) {
    total += static_cast<double>(x[i].real()) * x[i].real() +
             static_cast<double>(x[i].imag()) * x[i].imag();
  }
  return total;
}

void fft_stage_avx2(cfloat* data, index_t n, index_t len, const cfloat* tw,
                    bool conj_tw) {
  const index_t half = len / 2;
  // XORing (+0, -0) per pair conjugates the packed twiddles.
  const __m256 conj_mask =
      _mm256_setr_ps(0.f, -0.f, 0.f, -0.f, 0.f, -0.f, 0.f, -0.f);
  for (index_t start = 0; start < n; start += len) {
    float* u = fp(data + start);
    float* v = fp(data + start + half);
    index_t k = 0;
    for (; k + 4 <= half; k += 4) {
      __m256 wv = _mm256_loadu_ps(fp(tw + k));
      if (conj_tw) wv = _mm256_xor_ps(wv, conj_mask);
      const __m256 wr = _mm256_moveldup_ps(wv);
      const __m256 wi = _mm256_movehdup_ps(wv);
      const __m256 vv = _mm256_loadu_ps(v + 2 * k);
      const __m256 uv = _mm256_loadu_ps(u + 2 * k);
      const __m256 t = cmul_broadcast(wr, wi, vv);
      _mm256_storeu_ps(u + 2 * k, _mm256_add_ps(uv, t));
      _mm256_storeu_ps(v + 2 * k, _mm256_sub_ps(uv, t));
    }
    for (; k < half; ++k) {
      cfloat w = tw[k];
      if (conj_tw) w = std::conj(w);
      cfloat& uu = data[start + k];
      cfloat& vv = data[start + k + half];
      const cfloat t = vv * w;
      vv = uu - t;
      uu = uu + t;
    }
  }
}

void fft_stage2_avx2(cfloat* data, index_t n) {
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 x = _mm256_loadu_ps(fp(data + i));
    // Swap the two complex pairs within each 128-bit lane -> [b, a].
    const __m256 xp = _mm256_permute_ps(x, _MM_SHUFFLE(1, 0, 3, 2));
    const __m256 s = _mm256_add_ps(x, xp);   // [a+b, b+a] per lane
    const __m256 d = _mm256_sub_ps(xp, x);   // [b-a, a-b] per lane
    // Keep a+b in the first pair of each lane, a-b in the second.
    _mm256_storeu_ps(fp(data + i), _mm256_blend_ps(s, d, 0xCC));
  }
  for (; i < n; i += 2) {
    const cfloat u = data[i];
    const cfloat t = data[i + 1];
    data[i] = u + t;
    data[i + 1] = u - t;
  }
}

void fft_stage4_avx2(cfloat* data, index_t n, bool conj_tw) {
  // One ymm holds a whole block [u0 u1 | v0 v1]. t = [v0, -i*v1] forward
  // ([v0, +i*v1] inverse); multiplying by -+i is a re/im swap plus one sign
  // flip, selected by mask.
  const __m256 sgn_fwd =
      _mm256_setr_ps(0.f, 0.f, 0.f, -0.f, 0.f, 0.f, 0.f, -0.f);
  const __m256 sgn_inv =
      _mm256_setr_ps(0.f, 0.f, -0.f, 0.f, 0.f, 0.f, -0.f, 0.f);
  const __m256 sgn = conj_tw ? sgn_inv : sgn_fwd;
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 x = _mm256_loadu_ps(fp(data + i));
    const __m256 uu = _mm256_permute2f128_ps(x, x, 0x00);  // [u0 u1 | u0 u1]
    const __m256 vv = _mm256_permute2f128_ps(x, x, 0x11);  // [v0 v1 | v0 v1]
    const __m256 rot = _mm256_xor_ps(swap_pairs(vv), sgn);
    // Pair 0 of each lane keeps v (t0 = v0); pair 1 takes the rotated v1.
    const __m256 t = _mm256_blend_ps(vv, rot, 0xCC);
    const __m256 s = _mm256_add_ps(uu, t);
    const __m256 d = _mm256_sub_ps(uu, t);
    _mm256_storeu_ps(fp(data + i), _mm256_blend_ps(s, d, 0xF0));
  }
}

template <int MT>
void bf_panel_tile(const cfloat* wrows, index_t ldcw, index_t j_channels,
                   const cfloat* xt, index_t ldxt, index_t k, cfloat* out,
                   index_t ldc) {
  index_t c = 0;
  for (; c + 4 <= k; c += 4) {
    __m256 acc[MT];
    for (int m = 0; m < MT; ++m) acc[m] = _mm256_setzero_ps();
    for (index_t j = 0; j < j_channels; ++j) {
      const __m256 xv = _mm256_loadu_ps(fp(xt + j * ldxt + c));
      const __m256 xs = swap_pairs(xv);
      for (int m = 0; m < MT; ++m) {
        const float* a = fp(wrows + m * ldcw + j);
        const __m256 ar = _mm256_broadcast_ss(a);
        const __m256 ai = _mm256_broadcast_ss(a + 1);
        acc[m] = _mm256_add_ps(
            acc[m], _mm256_fmaddsub_ps(ar, xv, _mm256_mul_ps(ai, xs)));
      }
    }
    for (int m = 0; m < MT; ++m)
      _mm256_storeu_ps(fp(out + m * ldc + c), acc[m]);
  }
  for (; c < k; ++c) {
    for (int m = 0; m < MT; ++m) {
      cfloat s{};
      const cfloat* wrow = wrows + m * ldcw;
      for (index_t j = 0; j < j_channels; ++j) s += wrow[j] * xt[j * ldxt + c];
      out[m * ldc + c] = s;
    }
  }
}

void bf_panel_avx2(const cfloat* conj_w, index_t ldcw, index_t j_channels,
                   index_t m_active, const cfloat* xt, index_t ldxt, index_t k,
                   cfloat* out, index_t ldc) {
  index_t m0 = 0;
  for (; m0 + 4 <= m_active; m0 += 4)
    bf_panel_tile<4>(conj_w + m0 * ldcw, ldcw, j_channels, xt, ldxt, k,
                     out + m0 * ldc, ldc);
  switch (m_active - m0) {
    case 3:
      bf_panel_tile<3>(conj_w + m0 * ldcw, ldcw, j_channels, xt, ldxt, k,
                       out + m0 * ldc, ldc);
      break;
    case 2:
      bf_panel_tile<2>(conj_w + m0 * ldcw, ldcw, j_channels, xt, ldxt, k,
                       out + m0 * ldc, ldc);
      break;
    case 1:
      bf_panel_tile<1>(conj_w + m0 * ldcw, ldcw, j_channels, xt, ldxt, k,
                       out + m0 * ldc, ldc);
      break;
    default:
      break;
  }
}

// Householder reflector over column chunks of up to 16 complex (NQ ymm
// vectors of 4). The chunk's w lives in registers for both passes; a
// partial last vector (kTail) goes through masked loads and stores, so no
// element outside the block is touched.
//
// Multiplying by a scalar a = (ar, ai) is split into two independent FMA
// chains: x * ar on the raw vector and swap(x) * (-ai, +ai) on the
// re/im-swapped one. conj(v) (the w pass) and -v (the update pass) share
// the second factor (vi, -vi); only the sign of the real broadcast differs.
inline __m256 alt_imag(float im) {
  const __m256 odd_sign =
      _mm256_setr_ps(0.f, -0.f, 0.f, -0.f, 0.f, -0.f, 0.f, -0.f);
  return _mm256_xor_ps(_mm256_set1_ps(im), odd_sign);
}

template <int NQ, bool kTail>
inline __m256 chunk_load(const cfloat* p, int q, __m256i tail) {
  if (kTail && q == NQ - 1) return _mm256_maskload_ps(fp(p + 4 * q), tail);
  return _mm256_loadu_ps(fp(p + 4 * q));
}

template <int NQ, bool kTail>
inline void chunk_store(cfloat* p, int q, __m256 v, __m256i tail) {
  if (kTail && q == NQ - 1)
    _mm256_maskstore_ps(fp(p + 4 * q), tail, v);
  else
    _mm256_storeu_ps(fp(p + 4 * q), v);
}

// The tail mask is built here from a lane count, not passed in: a function
// taking a vector argument gets no vzeroupper on return, and the dirty
// upper state then taxes every SSE instruction the scalar caller runs.
template <int NQ, bool kTail>
void reflect_chunk(cfloat v0, const cfloat* v, index_t ldv, float beta,
                   cfloat* pivot, cfloat* rows, index_t ld, index_t k,
                   int tail_floats) {
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(tail_floats),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc_r[NQ], acc_i[NQ];
  const __m256 alt0 = alt_imag(v0.imag());
  const __m256 r0 = _mm256_set1_ps(v0.real());
  for (int q = 0; q < NQ; ++q) {
    const __m256 x = chunk_load<NQ, kTail>(pivot, q, tail);
    acc_r[q] = _mm256_mul_ps(r0, x);
    acc_i[q] = _mm256_mul_ps(alt0, swap_pairs(x));
  }
  for (index_t i = 0; i < k; ++i) {
    const cfloat vi = v[i * ldv];
    const __m256 ar = _mm256_set1_ps(vi.real());
    const __m256 alt = alt_imag(vi.imag());
    const cfloat* row = rows + i * ld;
    for (int q = 0; q < NQ; ++q) {
      const __m256 x = chunk_load<NQ, kTail>(row, q, tail);
      acc_r[q] = _mm256_fmadd_ps(ar, x, acc_r[q]);
      acc_i[q] = _mm256_fmadd_ps(alt, swap_pairs(x), acc_i[q]);
    }
  }
  const __m256 b = _mm256_set1_ps(beta);
  __m256 w[NQ], ws[NQ];
  for (int q = 0; q < NQ; ++q) {
    w[q] = _mm256_mul_ps(_mm256_add_ps(acc_r[q], acc_i[q]), b);
    ws[q] = swap_pairs(w[q]);
  }
  const __m256 nr0 = _mm256_set1_ps(-v0.real());
  for (int q = 0; q < NQ; ++q) {
    __m256 x = chunk_load<NQ, kTail>(pivot, q, tail);
    x = _mm256_fmadd_ps(nr0, w[q], x);
    chunk_store<NQ, kTail>(pivot, q, _mm256_fmadd_ps(alt0, ws[q], x), tail);
  }
  for (index_t i = 0; i < k; ++i) {
    const cfloat vi = v[i * ldv];
    const __m256 nr = _mm256_set1_ps(-vi.real());
    const __m256 alt = alt_imag(vi.imag());
    cfloat* row = rows + i * ld;
    for (int q = 0; q < NQ; ++q) {
      __m256 x = chunk_load<NQ, kTail>(row, q, tail);
      x = _mm256_fmadd_ps(nr, w[q], x);
      chunk_store<NQ, kTail>(row, q, _mm256_fmadd_ps(alt, ws[q], x), tail);
    }
  }
}

void reflect_avx2(cfloat v0, const cfloat* v, index_t ldv, float beta,
                  cfloat* pivot, cfloat* rows, index_t ld, index_t k,
                  index_t lw) {
  using ChunkFn = void (*)(cfloat, const cfloat*, index_t, float, cfloat*,
                           cfloat*, index_t, index_t, int);
  static constexpr ChunkFn kChunks[4][2] = {
      {reflect_chunk<1, false>, reflect_chunk<1, true>},
      {reflect_chunk<2, false>, reflect_chunk<2, true>},
      {reflect_chunk<3, false>, reflect_chunk<3, true>},
      {reflect_chunk<4, false>, reflect_chunk<4, true>},
  };
  for (index_t c0 = 0; c0 < lw; c0 += 16) {
    const index_t nc = lw - c0 < 16 ? lw - c0 : 16;
    const auto rem = static_cast<int>(nc % 4);  // complex in a partial vector
    kChunks[(nc + 3) / 4 - 1][rem != 0](v0, v, ldv, beta, pivot + c0,
                                        rows + c0, ld, k, 2 * rem);
  }
}

// Eight independent ymm FMA chains (the latency-throughput product of a
// 2-port, ~4-cycle FMA unit): measures the core's fused multiply-add peak.
// 8 accumulators x 8 lanes x 2 flops = 128 flops per iteration.
void fma_probe_avx2(index_t iters, float* sink) {
  __m256 a0 = _mm256_set1_ps(1.0f), a1 = _mm256_set1_ps(1.1f);
  __m256 a2 = _mm256_set1_ps(1.2f), a3 = _mm256_set1_ps(1.3f);
  __m256 a4 = _mm256_set1_ps(1.4f), a5 = _mm256_set1_ps(1.5f);
  __m256 a6 = _mm256_set1_ps(1.6f), a7 = _mm256_set1_ps(1.7f);
  const __m256 m = _mm256_set1_ps(0.999999f);
  const __m256 c = _mm256_set1_ps(1e-7f);
  for (index_t i = 0; i < iters; ++i) {
    a0 = _mm256_fmadd_ps(a0, m, c);
    a1 = _mm256_fmadd_ps(a1, m, c);
    a2 = _mm256_fmadd_ps(a2, m, c);
    a3 = _mm256_fmadd_ps(a3, m, c);
    a4 = _mm256_fmadd_ps(a4, m, c);
    a5 = _mm256_fmadd_ps(a5, m, c);
    a6 = _mm256_fmadd_ps(a6, m, c);
    a7 = _mm256_fmadd_ps(a7, m, c);
  }
  const __m256 s = _mm256_add_ps(
      _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)),
      _mm256_add_ps(_mm256_add_ps(a4, a5), _mm256_add_ps(a6, a7)));
  float tmp[8];
  _mm256_storeu_ps(tmp, s);
  for (float v : tmp) *sink += v;
}

}  // namespace

const KernelOps& avx2_ops() {
  static const KernelOps ops = {
      axpy_avx2,      mul_inplace_avx2, abs_sq_avx2,     energy_avx2,
      fft_stage_avx2, fft_stage2_avx2,  fft_stage4_avx2, bf_panel_avx2,
      reflect_avx2,   add_cnormal_avx2, qr_append_lanes_avx2,
      qr_dense_lanes_avx2, back_substitute_lanes_avx2, lane_abs_sum_avx2,
      fma_probe_avx2, 128,
  };
  return ops;
}

}  // namespace ppstap::kernels::detail
