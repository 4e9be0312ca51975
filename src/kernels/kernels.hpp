// Vector primitives behind the hot STAP kernels.
//
// Every function operates on contiguous single-precision complex data (the
// CPI sample type) and dispatches through a per-process table selected by
// dispatch.hpp: an AVX2+FMA implementation compiled in its own translation
// unit with -mavx2 -mfma, and a portable scalar implementation that keeps
// the exact accumulation order the pre-SIMD code used. Callers pick the
// blocking; these primitives supply the inner loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "kernels/lanes_ref.hpp"

namespace ppstap::kernels {

/// y[i] += a * x[i]. The caller conjugates `a` when it needs conj(a)*x —
/// the kernel itself never conjugates.
void cf_axpy(cfloat a, const cfloat* x, cfloat* y, index_t n);

/// a[i] *= b[i] (pointwise complex multiply — the matched-filter spectrum
/// product of pulse compression).
void cf_mul_inplace(cfloat* a, const cfloat* b, index_t n);

/// out[i] = |x[i]|^2 (move to the post-detection power domain).
void cf_abs_sq(const cfloat* x, float* out, index_t n);

/// sum_i |x[i]|^2 accumulated in double (ABFT energy probes).
double cf_energy(const cfloat* x, index_t n);

/// One radix-2 butterfly stage of length `len` >= 8 over all n/len blocks:
/// for each block and k < len/2, (u, v) -> (u + w v, u - w v) with
/// w = tw[k] (conjugated when `conj_tw`, i.e. the inverse transform).
void fft_stage(cfloat* data, index_t n, index_t len, const cfloat* tw,
               bool conj_tw);

/// The len == 2 stage (w = 1): pairwise (a, b) -> (a + b, a - b).
void fft_stage2(cfloat* data, index_t n);

/// The len == 4 stage (w in {1, -i}, conjugated when `conj_tw`). Together
/// with fft_stage2 this forms the vector-specialized radix-4 bottom of the
/// transform where the generic stage has too few butterflies per block.
void fft_stage4(cfloat* data, index_t n, bool conj_tw);

/// Beamforming panel GEMM: out(m, kk) = sum_j conj(w(j, m)) * x(kk, j) for
/// m < m_active, kk < k. `w` is J x M row-major with leading dimension
/// `ldw` (= M), `x` is K x J row-major with leading dimension `ldx` (= J),
/// `out` is M x K row-major with leading dimension `ldc` (>= k; the hard
/// beamformer writes one range segment of a wider row). Internally packs
/// x^T into L1-resident panels and register-tiles the beam dimension; the
/// per-output accumulation over j is ascending in both paths.
void beamform_gemm(const cfloat* w, index_t ldw, index_t j_channels,
                   index_t m_active, const cfloat* x, index_t ldx, index_t k,
                   cfloat* out, index_t ldc);

/// One Householder reflector H = I - beta v v^H applied to a block of
/// 1 + k rows, `lw` columns each: the pivot row `pivot` (reflector element
/// v0) and rows `rows + i * ld`, i < k (reflector elements v[i * ldv]).
/// The pivot is a separate pointer because the row-append update keeps it
/// in R while the other rows live in the appended block. One call per
/// reflector: the scalar table runs detail::reflect_ref (the pre-kernel
/// per-element order), the AVX2 table keeps w in registers.
void reflect(cfloat v0, const cfloat* v, index_t ldv, float beta,
             cfloat* pivot, cfloat* rows, index_t ld, index_t k, index_t lw);

/// out[i] += cfloat(rng.cnormal() * scale) for i < n, bit for bit at every
/// dispatch level: the scalar table loops over detail::cnormal_ref
/// (common/cnormal_ref.hpp), the AVX2 table runs four samples per vector
/// through the same operation sequence. Leaves `rng` 2n draws further on;
/// throws, like Rng::skip, when a normal() half is cached.
void add_cnormal(Rng& rng, double scale, cfloat* out, index_t n);

/// Storage for lane groups, 64-byte aligned so each complex element of a
/// group (kLaneElem floats) is exactly one cache line.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const {
    return true;
  }
};
using LaneBuffer = std::vector<float, CacheLineAllocator<float>>;

/// Batched weight solves over one group of kLanes independent problems in
/// the lane layout of kernels/lanes_ref.hpp (every pointer addresses a
/// group; layouts and strides are documented there). Each lane runs the
/// reference's operation sequence, so both dispatch levels agree bit for
/// bit and no lane reads another.
///
/// qr_append_lanes: re-triangularize [R; X] (R n x n, X k x n) in place,
/// carrying [rhs; xrhs] (n x p over k x p); x and xrhs are workspace.
void qr_append_lanes(float* r, index_t n, float* x, index_t k, float* rhs,
                     float* xrhs, index_t p);
/// qr_dense_lanes: Householder QR of the m x n a in place (R in its upper
/// triangle), applying Q^H to the m x p b.
void qr_dense_lanes(float* a, index_t m, index_t n, float* b, index_t p);
/// back_substitute_lanes: solve R X = B in place for the n x n upper
/// triangle of r, B n x p.
void back_substitute_lanes(const float* r, index_t rs, index_t cs, index_t n,
                           float* b, index_t brs, index_t bcs, index_t p);
/// lane_abs_sum: acc[l] += sum of |z| over `count` consecutive elements of
/// the group from g, in double (sqrt(re^2 + im^2), ascending elements);
/// `acc` holds kLanes doubles. The weight computers' data-scale proxy.
void lane_abs_sum(const float* g, index_t count, double* acc);

namespace detail {

/// Per-ISA implementation table. `beamform_gemm` stays common (blocking and
/// packing are ISA-independent); it calls back into the table's axpy-style
/// micro-kernel.
struct KernelOps {
  void (*axpy)(cfloat, const cfloat*, cfloat*, index_t);
  void (*mul_inplace)(cfloat*, const cfloat*, index_t);
  void (*abs_sq)(const cfloat*, float*, index_t);
  double (*energy)(const cfloat*, index_t);
  void (*fft_stage)(cfloat*, index_t, index_t, const cfloat*, bool);
  void (*fft_stage2)(cfloat*, index_t);
  void (*fft_stage4)(cfloat*, index_t, bool);
  /// Register-tiled micro-kernel behind beamform_gemm: for each of
  /// `m_active` beams, out_rows[m][0..k) = sum_j conj_w[m][j] * xt[j][0..k)
  /// where xt rows are the packed x^T panel with leading dimension ldxt.
  void (*bf_panel)(const cfloat* conj_w, index_t ldcw, index_t j_channels,
                   index_t m_active, const cfloat* xt, index_t ldxt,
                   index_t k, cfloat* out, index_t ldc);
  void (*reflect)(cfloat v0, const cfloat* v, index_t ldv, float beta,
                  cfloat* pivot, cfloat* rows, index_t ld, index_t k,
                  index_t lw);
  /// add_cnormal from the generator's Weyl state (Rng::state()).
  void (*add_cnormal)(std::uint64_t state, double scale, cfloat* out,
                      index_t n);
  void (*qr_append_lanes)(float* r, index_t n, float* x, index_t k,
                          float* rhs, float* xrhs, index_t p);
  void (*qr_dense_lanes)(float* a, index_t m, index_t n, float* b,
                         index_t p);
  void (*back_substitute_lanes)(const float* r, index_t rs, index_t cs,
                                index_t n, float* b, index_t brs,
                                index_t bcs, index_t p);
  void (*lane_abs_sum)(const float* g, index_t count, double* acc);
  /// Roofline compute-peak probe: `iters` rounds of independent
  /// register-resident multiply-adds, result folded into *sink so the
  /// chains cannot be optimized away. The caller times it; each iteration
  /// performs `fma_probe_flops_per_iter` arithmetic operations (mul and
  /// add counted separately, summed over lanes and accumulators).
  void (*fma_probe)(index_t iters, float* sink);
  int fma_probe_flops_per_iter;
};

const KernelOps& scalar_ops();
const KernelOps& avx2_ops();  // valid only when dispatch says AVX2 exists
const KernelOps& ops();       // active table (see dispatch.hpp)

/// The AVX2 table's add_cnormal, compiled apart from the rest of that table
/// with -ffp-contract=off so no multiply-add fuses (see avx2_cnormal.cpp).
void add_cnormal_avx2(std::uint64_t state, double scale, cfloat* out,
                      index_t n);

/// The AVX2 table's batched-solve ops, compiled apart with -mfma but
/// -ffp-contract=off so only the reference's explicit multiply-adds fuse
/// (see avx2_lanes.cpp).
void qr_append_lanes_avx2(float* r, index_t n, float* x, index_t k,
                          float* rhs, float* xrhs, index_t p);
void qr_dense_lanes_avx2(float* a, index_t m, index_t n, float* b,
                         index_t p);
void back_substitute_lanes_avx2(const float* r, index_t rs, index_t cs,
                                index_t n, float* b, index_t brs, index_t bcs,
                                index_t p);
void lane_abs_sum_avx2(const float* g, index_t count, double* acc);

}  // namespace detail

inline void cf_axpy(cfloat a, const cfloat* x, cfloat* y, index_t n) {
  detail::ops().axpy(a, x, y, n);
}
inline void cf_mul_inplace(cfloat* a, const cfloat* b, index_t n) {
  detail::ops().mul_inplace(a, b, n);
}
inline void cf_abs_sq(const cfloat* x, float* out, index_t n) {
  detail::ops().abs_sq(x, out, n);
}
inline double cf_energy(const cfloat* x, index_t n) {
  return detail::ops().energy(x, n);
}
inline void fft_stage(cfloat* data, index_t n, index_t len, const cfloat* tw,
                      bool conj_tw) {
  detail::ops().fft_stage(data, n, len, tw, conj_tw);
}
inline void fft_stage2(cfloat* data, index_t n) {
  detail::ops().fft_stage2(data, n);
}
inline void fft_stage4(cfloat* data, index_t n, bool conj_tw) {
  detail::ops().fft_stage4(data, n, conj_tw);
}
inline void reflect(cfloat v0, const cfloat* v, index_t ldv, float beta,
                    cfloat* pivot, cfloat* rows, index_t ld, index_t k,
                    index_t lw) {
  detail::ops().reflect(v0, v, ldv, beta, pivot, rows, ld, k, lw);
}

inline void qr_append_lanes(float* r, index_t n, float* x, index_t k,
                            float* rhs, float* xrhs, index_t p) {
  detail::ops().qr_append_lanes(r, n, x, k, rhs, xrhs, p);
}
inline void qr_dense_lanes(float* a, index_t m, index_t n, float* b,
                           index_t p) {
  detail::ops().qr_dense_lanes(a, m, n, b, p);
}
inline void back_substitute_lanes(const float* r, index_t rs, index_t cs,
                                  index_t n, float* b, index_t brs,
                                  index_t bcs, index_t p) {
  detail::ops().back_substitute_lanes(r, rs, cs, n, b, brs, bcs, p);
}
inline void lane_abs_sum(const float* g, index_t count, double* acc) {
  detail::ops().lane_abs_sum(g, count, acc);
}

inline void add_cnormal(Rng& rng, double scale, cfloat* out, index_t n) {
  const std::uint64_t state = rng.state();
  rng.skip(2 * static_cast<std::uint64_t>(n));
  detail::ops().add_cnormal(state, scale, out, n);
}

/// Compute-peak probe of the active dispatch table (see KernelOps).
inline void fma_probe(index_t iters, float* sink) {
  detail::ops().fma_probe(iters, sink);
}
inline int fma_probe_flops_per_iter() {
  return detail::ops().fma_probe_flops_per_iter;
}

}  // namespace ppstap::kernels
