// Guaranteed-portable kernel implementations.
//
// These run the same blocked algorithms as the AVX2 translation unit but in
// plain std::complex arithmetic, keeping the accumulation order of the
// pre-SIMD code (ascending j in the beamform sums, ascending butterfly index
// in the FFT stages), so a forced-scalar run reproduces the legacy numerics
// on any target the compiler supports.
#include <cmath>

#include "common/cnormal_ref.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lanes_ref.hpp"
#include "kernels/reflect_ref.hpp"

namespace ppstap::kernels::detail {

namespace {

void axpy_scalar(cfloat a, const cfloat* x, cfloat* y, index_t n) {
  for (index_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void mul_inplace_scalar(cfloat* a, const cfloat* b, index_t n) {
  for (index_t i = 0; i < n; ++i) a[i] *= b[i];
}

void abs_sq_scalar(const cfloat* x, float* out, index_t n) {
  for (index_t i = 0; i < n; ++i)
    out[i] = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
}

double energy_scalar(const cfloat* x, index_t n) {
  double acc = 0.0;
  for (index_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i].real()) * x[i].real() +
           static_cast<double>(x[i].imag()) * x[i].imag();
  }
  return acc;
}

void fft_stage_scalar(cfloat* data, index_t n, index_t len, const cfloat* tw,
                      bool conj_tw) {
  const index_t half = len / 2;
  for (index_t start = 0; start < n; start += len) {
    for (index_t k = 0; k < half; ++k) {
      cfloat w = tw[k];
      if (conj_tw) w = std::conj(w);
      cfloat& u = data[start + k];
      cfloat& v = data[start + k + half];
      const cfloat t = v * w;
      v = u - t;
      u = u + t;
    }
  }
}

void fft_stage2_scalar(cfloat* data, index_t n) {
  // w = 1 exactly, so t = v (finite values; multiplication by (1, 0) is
  // exact apart from the sign of a zero imaginary part).
  for (index_t i = 0; i < n; i += 2) {
    const cfloat u = data[i];
    const cfloat t = data[i + 1];
    data[i] = u + t;
    data[i + 1] = u - t;
  }
}

void fft_stage4_scalar(cfloat* data, index_t n, bool conj_tw) {
  // Twiddles are {1, -i} forward and {1, +i} inverse; multiplying by +/-i is
  // an exact swap-and-negate, matching the generic complex product on finite
  // inputs.
  for (index_t start = 0; start < n; start += 4) {
    cfloat& u0 = data[start];
    cfloat& u1 = data[start + 1];
    cfloat& v0 = data[start + 2];
    cfloat& v1 = data[start + 3];
    const cfloat t0 = v0;
    const cfloat t1 = conj_tw ? cfloat(-v1.imag(), v1.real())
                              : cfloat(v1.imag(), -v1.real());
    v0 = u0 - t0;
    u0 = u0 + t0;
    v1 = u1 - t1;
    u1 = u1 + t1;
  }
}

void bf_panel_scalar(const cfloat* conj_w, index_t ldcw, index_t j_channels,
                     index_t m_active, const cfloat* xt, index_t ldxt,
                     index_t k, cfloat* out, index_t ldc) {
  for (index_t m = 0; m < m_active; ++m) {
    cfloat* o = out + m * ldc;
    for (index_t c = 0; c < k; ++c) o[c] = cfloat{};
    const cfloat* wrow = conj_w + m * ldcw;
    for (index_t j = 0; j < j_channels; ++j) {
      const cfloat a = wrow[j];
      const cfloat* xrow = xt + j * ldxt;
      for (index_t c = 0; c < k; ++c) o[c] += a * xrow[c];
    }
  }
}

void reflect_scalar(cfloat v0, const cfloat* v, index_t ldv, float beta,
                    cfloat* pivot, cfloat* rows, index_t ld, index_t k,
                    index_t lw) {
  reflect_ref(v0, v, ldv, beta, pivot, rows, ld, k, lw);
}

void add_cnormal_scalar(std::uint64_t state, double scale, cfloat* out,
                        index_t n) {
  for (index_t i = 0; i < n; ++i) {
    double re, im;
    ppstap::detail::cnormal_ref(state, re, im);
    state += 2 * ppstap::detail::kWeylGamma;
    out[i] += cfloat(static_cast<float>(re * scale),
                     static_cast<float>(im * scale));
  }
}

// The lane policy of lanes_ref.hpp over one float: the scalar table runs
// each lane of a group through the reference in turn.
struct ScalarLane {
  using V = float;
  static V load(const float* p) { return *p; }
  static void store(float* p, V v) { *p = v; }
  static V set1(float x) { return x; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V div(V a, V b) { return a / b; }
  static V sqrt(V a) { return std::sqrt(a); }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V fnma(V a, V b, V c) { return std::fma(-a, b, c); }
  static V neg(V a) { return -a; }
  static V abs(V a) { return std::fabs(a); }
  static V max(V a, V b) { return a > b ? a : b; }  // MAXPS semantics
  static V select_eq0(V c, V a, V b) { return c == 0.0f ? a : b; }
  static V select_gt0(V c, V a, V b) { return c > 0.0f ? a : b; }
};

// Lane l of a group pointer (a null pointer stays null: empty operands).
inline float* lane(float* p, index_t l) { return p != nullptr ? p + l : p; }
inline const float* lane(const float* p, index_t l) {
  return p != nullptr ? p + l : p;
}

void qr_append_lanes_scalar(float* r, index_t n, float* x, index_t k,
                            float* rhs, float* xrhs, index_t p) {
  for (index_t l = 0; l < kLanes; ++l)
    qr_append_ref<ScalarLane>(lane(r, l), n, lane(x, l), k, lane(rhs, l),
                              lane(xrhs, l), p);
}

void qr_dense_lanes_scalar(float* a, index_t m, index_t n, float* b,
                           index_t p) {
  for (index_t l = 0; l < kLanes; ++l)
    qr_dense_ref<ScalarLane>(lane(a, l), m, n, lane(b, l), p);
}

void back_substitute_lanes_scalar(const float* r, index_t rs, index_t cs,
                                  index_t n, float* b, index_t brs,
                                  index_t bcs, index_t p) {
  for (index_t l = 0; l < kLanes; ++l)
    back_substitute_ref<ScalarLane>(lane(r, l), rs, cs, n, lane(b, l), brs,
                                    bcs, p);
}

void lane_abs_sum_scalar(const float* g, index_t count, double* acc) {
  for (index_t e = 0; e < count; ++e, g += kLaneElem)
    for (index_t l = 0; l < kLanes; ++l) {
      const double re = g[l], im = g[kLanes + l];
      acc[l] += std::sqrt(re * re + im * im);
    }
}

// Eight independent scalar multiply-add chains: enough to cover the FPU
// latency-throughput product on any recent core, so the measurement is the
// scalar pipe's throughput, not one chain's latency. 16 flops per iter.
void fma_probe_scalar(index_t iters, float* sink) {
  float a0 = 1.0f, a1 = 1.1f, a2 = 1.2f, a3 = 1.3f;
  float a4 = 1.4f, a5 = 1.5f, a6 = 1.6f, a7 = 1.7f;
  const float m = 0.999999f, c = 1e-7f;
  for (index_t i = 0; i < iters; ++i) {
    a0 = a0 * m + c;
    a1 = a1 * m + c;
    a2 = a2 * m + c;
    a3 = a3 * m + c;
    a4 = a4 * m + c;
    a5 = a5 * m + c;
    a6 = a6 * m + c;
    a7 = a7 * m + c;
  }
  *sink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
}

}  // namespace

const KernelOps& scalar_ops() {
  static const KernelOps ops = {
      axpy_scalar,      mul_inplace_scalar, abs_sq_scalar,
      energy_scalar,    fft_stage_scalar,   fft_stage2_scalar,
      fft_stage4_scalar, bf_panel_scalar,   reflect_scalar,
      add_cnormal_scalar, qr_append_lanes_scalar, qr_dense_lanes_scalar,
      back_substitute_lanes_scalar, lane_abs_sum_scalar, fma_probe_scalar, 16,
  };
  return ops;
}

}  // namespace ppstap::kernels::detail
