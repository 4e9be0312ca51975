// Reference Householder reflector application.
//
// One definition of the accumulation order, shared by the scalar kernel
// table (cfloat) and the linalg QR instantiations for the other element
// types, so a forced-scalar run and a double-precision QR step through the
// same per-element operation sequence.
#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace ppstap::kernels::detail {

/// Apply H = I - beta v v^H to a block of 1 + k rows of `lw` columns: the
/// pivot row `pivot` (reflector element v0) and rows `rows + i * ld` for
/// i < k (reflector elements v[i * ldv]). Two passes per column chunk:
/// w = beta (conj(v0) pivot + sum_i conj(v_i) row_i), accumulated in row
/// order, then row -= v w. Columns are independent, so chunking them keeps
/// `w` on the stack without changing any element's operation sequence.
template <typename T, typename Real>
void reflect_ref(T v0, const T* v, index_t ldv, Real beta, T* pivot, T* rows,
                 index_t ld, index_t k, index_t lw) {
  const auto conj_of = [](const T& x) {
    if constexpr (real_dof<T> == 2)
      return std::conj(x);
    else
      return x;
  };
  constexpr index_t kChunk = 16;
  T w[kChunk];
  for (index_t c0 = 0; c0 < lw; c0 += kChunk) {
    const index_t nc = std::min(kChunk, lw - c0);
    T* p = pivot + c0;
    for (index_t c = 0; c < nc; ++c) w[c] = T{};
    const T cv0 = conj_of(v0);
    for (index_t c = 0; c < nc; ++c) w[c] += cv0 * p[c];
    for (index_t i = 0; i < k; ++i) {
      const T a = conj_of(v[i * ldv]);
      const T* row = rows + i * ld + c0;
      for (index_t c = 0; c < nc; ++c) w[c] += a * row[c];
    }
    for (index_t c = 0; c < nc; ++c) w[c] *= beta;
    const T nv0 = -v0;
    for (index_t c = 0; c < nc; ++c) p[c] += nv0 * w[c];
    for (index_t i = 0; i < k; ++i) {
      const T a = -v[i * ldv];
      T* row = rows + i * ld + c0;
      for (index_t c = 0; c < nc; ++c) row[c] += a * w[c];
    }
  }
}

}  // namespace ppstap::kernels::detail
