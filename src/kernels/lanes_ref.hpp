// Lane reference for the batched weight solves.
//
// The weight computers solve many small least-squares problems of one shape
// at once: one problem per SIMD lane, kLanes problems per group. A group
// stores every complex element as kLanes real parts followed by kLanes
// imaginary parts (structure of arrays), so lane l of element e lives at
// floats e * kLaneElem + l and e * kLaneElem + kLanes + l.
//
// Every step below is written once, over a lane policy L that supplies the
// arithmetic: the scalar kernel table instantiates it with one float per
// call and loops over the lanes, the AVX2 table with one __m256 holding all
// eight. The policy's operations are the IEEE ones that round identically
// in scalar and vector registers — +, -, *, /, sqrt, fused multiply-add
// (std::fma in the scalar policy), exact negation and absolute value, and
// compare-selects — and nothing else, so an AVX2 lane reproduces the scalar
// lane bit for bit, provided neither translation unit lets the compiler
// contract a separate multiply and add (both are built with
// -ffp-contract=off). No step reads another lane, so a lane's result does
// not depend on the other problems in its group or on its position.
//
// Layouts (element indices; multiply by kLaneElem for floats):
//   qr_append:  r n x n row-major (i * n + c), x k x n column-major
//               (c * k + i), rhs n x p row-major, xrhs k x p column-major.
//   qr_dense:   a m x n and b m x p, both column-major (c * m + i).
//   back_substitute: r(i, c) at i * rs + c * cs, b(i, c) at i * brs + c * bcs.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace ppstap::kernels {

/// Problems per batched-solve group: one float lane each.
inline constexpr index_t kLanes = 8;
/// Floats per complex element of a group (the real plane, then the
/// imaginary plane).
inline constexpr index_t kLaneElem = 2 * kLanes;

}  // namespace ppstap::kernels

namespace ppstap::kernels::detail {

template <typename L>
struct LaneC {
  typename L::V re, im;
};

template <typename L>
inline LaneC<L> lc_load(const float* p) {
  return {L::load(p), L::load(p + kLanes)};
}

template <typename L>
inline void lc_store(float* p, const LaneC<L>& z) {
  L::store(p, z.re);
  L::store(p + kLanes, z.im);
}

/// A Householder reflector H = I - beta v v^H that maps the column
/// [x0; tail] to [alpha; 0]: v = [v0; tail], alpha = -phase(x0) ||column||,
/// v0 = x0 - alpha, beta = 2 / ||v||^2 = 1 / (||column|| (||column|| + |x0|))
/// (0 for an all-zero column). `tail_sq` is the tail's squared norm.
template <typename L>
struct Reflector {
  LaneC<L> alpha, v0;
  typename L::V beta;
};

template <typename L>
inline Reflector<L> make_reflector(const LaneC<L>& x0,
                                   typename L::V tail_sq) {
  using V = typename L::V;
  const V zero = L::set1(0.0f), one = L::set1(1.0f);
  const V a2 = L::fma(x0.im, x0.im, L::mul(x0.re, x0.re));
  const V norm = L::sqrt(L::add(a2, tail_sq));
  const V a = L::sqrt(a2);
  // phase(x0) = x0 / |x0|, and 1 for x0 == 0.
  const V safe = L::select_eq0(a, one, a);
  const V ph_re = L::select_eq0(a, one, L::div(x0.re, safe));
  const V ph_im = L::select_eq0(a, zero, L::div(x0.im, safe));
  Reflector<L> h;
  h.alpha = {L::neg(L::mul(ph_re, norm)), L::neg(L::mul(ph_im, norm))};
  h.v0 = {L::sub(x0.re, h.alpha.re), L::sub(x0.im, h.alpha.im)};
  const V den = L::mul(norm, L::add(norm, a));
  h.beta = L::select_gt0(den, L::div(one, L::select_gt0(den, den, one)), zero);
  return h;
}

/// Apply H to NC columns of a block of 1 + k rows: column c's pivot element
/// at pivot + c * pstride and its k tail elements contiguous from
/// col + c * cstride; the reflector tail v holds k contiguous elements.
/// Per column: w = beta (conj(v0) pivot + sum_i conj(v_i) x_i), in row
/// order, then pivot -= v0 w and x_i -= v_i w.
template <typename L, int NC>
inline void reflect_cols(const Reflector<L>& h, const float* v, index_t k,
                         float* pivot, index_t pstride, float* col,
                         index_t cstride) {
  using V = typename L::V;
  LaneC<L> w[NC];
  for (int c = 0; c < NC; ++c) {
    const LaneC<L> p = lc_load<L>(pivot + c * pstride);
    w[c].re = L::fma(h.v0.im, p.im, L::mul(h.v0.re, p.re));
    w[c].im = L::fnma(h.v0.im, p.re, L::mul(h.v0.re, p.im));
  }
  for (index_t i = 0; i < k; ++i) {
    const V vr = L::load(v + i * kLaneElem);
    const V vi = L::load(v + i * kLaneElem + kLanes);
    for (int c = 0; c < NC; ++c) {
      const LaneC<L> x = lc_load<L>(col + c * cstride + i * kLaneElem);
      w[c].re = L::fma(vi, x.im, L::fma(vr, x.re, w[c].re));
      w[c].im = L::fnma(vi, x.re, L::fma(vr, x.im, w[c].im));
    }
  }
  for (int c = 0; c < NC; ++c) {
    w[c].re = L::mul(w[c].re, h.beta);
    w[c].im = L::mul(w[c].im, h.beta);
    LaneC<L> p = lc_load<L>(pivot + c * pstride);
    p.re = L::fma(h.v0.im, w[c].im, L::fnma(h.v0.re, w[c].re, p.re));
    p.im = L::fnma(h.v0.im, w[c].re, L::fnma(h.v0.re, w[c].im, p.im));
    lc_store<L>(pivot + c * pstride, p);
  }
  for (index_t i = 0; i < k; ++i) {
    const V vr = L::load(v + i * kLaneElem);
    const V vi = L::load(v + i * kLaneElem + kLanes);
    for (int c = 0; c < NC; ++c) {
      float* xp = col + c * cstride + i * kLaneElem;
      LaneC<L> x = lc_load<L>(xp);
      x.re = L::fma(vi, w[c].im, L::fnma(vr, w[c].re, x.re));
      x.im = L::fnma(vi, w[c].re, L::fnma(vr, w[c].im, x.im));
      lc_store<L>(xp, x);
    }
  }
}

/// reflect_cols over `ncols` columns, four at a time.
template <typename L>
inline void reflect_all(const Reflector<L>& h, const float* v, index_t k,
                        float* pivot, index_t pstride, float* col,
                        index_t cstride, index_t ncols) {
  index_t c = 0;
  for (; c + 4 <= ncols; c += 4)
    reflect_cols<L, 4>(h, v, k, pivot + c * pstride, pstride,
                       col + c * cstride, cstride);
  float* pv = pivot + c * pstride;
  float* cv = col + c * cstride;
  switch (ncols - c) {
    case 3: reflect_cols<L, 3>(h, v, k, pv, pstride, cv, cstride); break;
    case 2: reflect_cols<L, 2>(h, v, k, pv, pstride, cv, cstride); break;
    case 1: reflect_cols<L, 1>(h, v, k, pv, pstride, cv, cstride); break;
    default: break;
  }
}

/// Squared norm of k contiguous elements, in order.
template <typename L>
inline typename L::V sum_sq(const float* x, index_t k) {
  typename L::V s = L::set1(0.0f);
  for (index_t i = 0; i < k; ++i) {
    const LaneC<L> z = lc_load<L>(x + i * kLaneElem);
    s = L::fma(z.im, z.im, L::fma(z.re, z.re, s));
  }
  return s;
}

/// The reflectors of one factorization, kept for the columns that meet
/// them later: v0 and beta of column j at floats 3 j kLanes (re, im, beta
/// planes). For the scalar policy only the first float of each plane is
/// used.
template <typename L>
struct ReflectorStore {
  std::vector<float> f;
  explicit ReflectorStore(index_t n)
      : f(static_cast<size_t>(3 * kLanes * n)) {}
  void put(index_t j, const Reflector<L>& h) {
    float* p = f.data() + 3 * kLanes * j;
    L::store(p, h.v0.re);
    L::store(p + kLanes, h.v0.im);
    L::store(p + 2 * kLanes, h.beta);
  }
  Reflector<L> get(index_t j) const {
    const float* p = f.data() + 3 * kLanes * j;
    Reflector<L> h;
    h.v0 = {L::load(p), L::load(p + kLanes)};
    h.beta = L::load(p + 2 * kLanes);
    h.alpha = h.v0;  // unused by reflect_cols
    return h;
  }
};

/// Householder triangularization, left-looking in blocks of four columns.
/// Column j's reflector covers its pivot piv(j, j) and k(j) tail elements
/// contiguous from tail(j, j); under reflector j, column c's pivot is
/// piv(j, c) and its tail tail(j, c), and neighbouring columns sit
/// `pstride` (pivots) and `tstride` (tails) floats apart. Each column meets
/// reflectors 0, 1, ... in order, exactly as in the right-looking form,
/// while a block of columns stays cache-resident as the earlier reflectors
/// stream past it. The p right-hand-side columns (rpiv, rtail, rpstride,
/// rtstride) meet all n reflectors the same way.
template <typename L, typename Piv, typename Tail, typename K, typename RPiv,
          typename RTail>
void triangularize(index_t n, Piv piv, index_t pstride, Tail tail,
                   index_t tstride, K k, index_t p, RPiv rpiv,
                   index_t rpstride, RTail rtail, index_t rtstride) {
  ReflectorStore<L> hs(n);
  for (index_t c0 = 0; c0 < n; c0 += 4) {
    const index_t nc = n - c0 < 4 ? n - c0 : 4;
    for (index_t j = 0; j < c0; ++j)
      reflect_all<L>(hs.get(j), tail(j, j), k(j), piv(j, c0), pstride,
                     tail(j, c0), tstride, nc);
    for (index_t j = c0; j < c0 + nc; ++j) {
      const Reflector<L> h =
          make_reflector<L>(lc_load<L>(piv(j, j)), sum_sq<L>(tail(j, j), k(j)));
      lc_store<L>(piv(j, j), h.alpha);
      hs.put(j, h);
      if (j + 1 < c0 + nc)
        reflect_all<L>(h, tail(j, j), k(j), piv(j, j + 1), pstride,
                       tail(j, j + 1), tstride, c0 + nc - j - 1);
    }
  }
  for (index_t c0 = 0; c0 < p; c0 += 4) {
    const index_t nc = p - c0 < 4 ? p - c0 : 4;
    for (index_t j = 0; j < n; ++j)
      reflect_all<L>(hs.get(j), tail(j, j), k(j), rpiv(j, c0), rpstride,
                     rtail(j, c0), rtstride, nc);
  }
}

/// Re-triangularize [R; X] in place (the block row-append update), carrying
/// [rhs; xrhs] through the same reflectors: on return r holds the new R,
/// rhs the top n rows of Q^H [rhs; xrhs]; x and xrhs are workspace.
template <typename L>
void qr_append_ref(float* r, index_t n, float* x, index_t k, float* rhs,
                   float* xrhs, index_t p) {
  triangularize<L>(
      n, [=](index_t j, index_t c) { return r + (j * n + c) * kLaneElem; },
      kLaneElem, [=](index_t, index_t c) { return x + c * k * kLaneElem; },
      k * kLaneElem, [=](index_t) { return k; }, p,
      [=](index_t j, index_t c) { return rhs + (j * p + c) * kLaneElem; },
      kLaneElem, [=](index_t, index_t c) { return xrhs + c * k * kLaneElem; },
      k * kLaneElem);
}

/// Householder QR of the m x n (m >= n) column-major a in place, applying
/// Q^H to the m x p column-major b as it goes: on return the upper triangle
/// of a is R and the top n rows of b are Q^H b's.
template <typename L>
void qr_dense_ref(float* a, index_t m, index_t n, float* b, index_t p) {
  const index_t ld = m * kLaneElem;
  triangularize<L>(
      n, [=](index_t j, index_t c) { return a + c * ld + j * kLaneElem; }, ld,
      [=](index_t j, index_t c) { return a + c * ld + (j + 1) * kLaneElem; },
      ld, [=](index_t j) { return m - j - 1; }, p,
      [=](index_t j, index_t c) { return b + c * ld + j * kLaneElem; }, ld,
      [=](index_t j, index_t c) { return b + c * ld + (j + 1) * kLaneElem; },
      ld);
}

/// 1 / d with the fixed scaled formula: s = max(|re d|, |im d|),
/// d' = d / s, 1 / d = conj(d') / (s |d'|^2). No libgcc complex division.
template <typename L>
inline LaneC<L> reciprocal(const LaneC<L>& d) {
  using V = typename L::V;
  const V s = L::max(L::abs(d.re), L::abs(d.im));
  const V dr = L::div(d.re, s), di = L::div(d.im, s);
  const V t = L::mul(s, L::fma(di, di, L::mul(dr, dr)));
  return {L::div(dr, t), L::neg(L::div(di, t))};
}

/// b(i, c0..c0+NC) := (b(i, .) - sum_{j>i} r(i, j) b(j, .)) / r(i, i), the
/// sum in ascending j.
template <typename L, int NC>
inline void back_substitute_row(const float* r, index_t rs, index_t cs,
                                index_t n, index_t i, const LaneC<L>& inv,
                                float* b, index_t brs, index_t bcs) {
  LaneC<L> acc[NC];
  for (int c = 0; c < NC; ++c)
    acc[c] = lc_load<L>(b + (i * brs + c * bcs) * kLaneElem);
  for (index_t j = i + 1; j < n; ++j) {
    const LaneC<L> rij = lc_load<L>(r + (i * rs + j * cs) * kLaneElem);
    for (int c = 0; c < NC; ++c) {
      const LaneC<L> bj = lc_load<L>(b + (j * brs + c * bcs) * kLaneElem);
      acc[c].re = L::fma(rij.im, bj.im, L::fnma(rij.re, bj.re, acc[c].re));
      acc[c].im = L::fnma(rij.im, bj.re, L::fnma(rij.re, bj.im, acc[c].im));
    }
  }
  for (int c = 0; c < NC; ++c) {
    LaneC<L> out;
    out.re = L::fnma(acc[c].im, inv.im, L::mul(acc[c].re, inv.re));
    out.im = L::fma(acc[c].im, inv.re, L::mul(acc[c].re, inv.im));
    lc_store<L>(b + (i * brs + c * bcs) * kLaneElem, out);
  }
}

/// Solve R X = B in place for the upper triangle of the n x n r.
template <typename L>
void back_substitute_ref(const float* r, index_t rs, index_t cs, index_t n,
                         float* b, index_t brs, index_t bcs, index_t p) {
  for (index_t i = n - 1; i >= 0; --i) {
    const LaneC<L> inv =
        reciprocal<L>(lc_load<L>(r + (i * rs + i * cs) * kLaneElem));
    index_t c = 0;
    for (; c + 4 <= p; c += 4)
      back_substitute_row<L, 4>(r, rs, cs, n, i, inv, b + c * bcs * kLaneElem,
                                brs, bcs);
    float* bc = b + c * bcs * kLaneElem;
    switch (p - c) {
      case 3: back_substitute_row<L, 3>(r, rs, cs, n, i, inv, bc, brs, bcs); break;
      case 2: back_substitute_row<L, 2>(r, rs, cs, n, i, inv, bc, brs, bcs); break;
      case 1: back_substitute_row<L, 1>(r, rs, cs, n, i, inv, bc, brs, bcs); break;
      default: break;
    }
  }
}

}  // namespace ppstap::kernels::detail
