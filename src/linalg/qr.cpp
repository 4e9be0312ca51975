#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/flops.hpp"
#include "kernels/kernels.hpp"
#include "kernels/reflect_ref.hpp"

namespace ppstap::linalg {

namespace {

// One Householder reflector over a [pivot row; k rows] block (see
// kernels::reflect). The sample-precision complex case runs through the
// dispatched kernel; every other element type runs the reference loop the
// scalar kernel table also uses, so both share one accumulation order.
template <typename T>
inline void reflect(const T& v0, const T* v, index_t ldv, real_of_t<T> beta,
                    T* pivot, T* rows, index_t ld, index_t k, index_t lw) {
  if constexpr (std::is_same_v<T, cfloat>) {
    kernels::reflect(v0, v, ldv, beta, pivot, rows, ld, k, lw);
  } else {
    kernels::detail::reflect_ref(v0, v, ldv, beta, pivot, rows, ld, k, lw);
  }
}

// Phase of x as a unit-magnitude scalar (1 for x == 0); identity sign logic
// for real types. Choosing v = x + phase(x0)*||x||*e1 keeps the reflector
// well conditioned regardless of the sign/phase of the pivot.
template <typename T>
T phase_of(const T& x) {
  if constexpr (real_dof<T> == 2) {
    const auto a = std::abs(x);
    return a == real_of_t<T>{0} ? T{1} : x / a;
  } else {
    return x < T{0} ? T{-1} : T{1};
  }
}

// x * y without the NaN-recovery branch of std::complex's operator*: the
// same products and sums per component, so finite results are bit-identical,
// but a loop of them vectorizes.
template <typename T>
inline T mul_finite(const T& x, const T& y) {
  if constexpr (real_dof<T> == 2) {
    return T(x.real() * y.real() - x.imag() * y.imag(),
             x.real() * y.imag() + x.imag() * y.real());
  } else {
    return x * y;
  }
}

template <typename T>
constexpr std::uint64_t fma_flops() {
  return real_dof<T> == 2 ? 8 : 2;
}

}  // namespace

template <typename T>
QrFactorization<T>::QrFactorization(const Matrix<T>& a)
    : m_(a.rows()), n_(a.cols()), a_(a) {
  PPSTAP_REQUIRE(m_ >= n_, "QR requires rows >= cols");
  using R = real_of_t<T>;
  v0_.resize(static_cast<size_t>(n_));
  beta_.resize(static_cast<size_t>(n_));

  // Input column norms, in double, before the factorization overwrites a_:
  // the reference side of the column-norm ABFT invariant.
  col_norm_.resize(static_cast<size_t>(n_));
  for (index_t j = 0; j < n_; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < m_; ++i)
      s += static_cast<double>(abs_sq(a_(i, j)));
    col_norm_[static_cast<size_t>(j)] = std::sqrt(s);
  }

  std::uint64_t flops = 0;
  for (index_t j = 0; j < n_; ++j) {
    // Build the Householder vector for column j from rows j..m-1.
    R norm_sq{};
    for (index_t i = j; i < m_; ++i) norm_sq += abs_sq(a_(i, j));
    const R norm = std::sqrt(norm_sq);
    const T x0 = a_(j, j);
    const T ph = phase_of(x0);
    const T alpha = -ph * norm;
    const T v0 = x0 - alpha;  // v = x - alpha*e1, vi = a(i, j) for i > j
    const R v_sq = norm_sq - abs_sq(x0) + abs_sq(v0);
    const R beta = v_sq > R{0} ? R{2} / v_sq : R{0};
    v0_[static_cast<size_t>(j)] = v0;
    beta_[static_cast<size_t>(j)] = beta;
    a_(j, j) = alpha;  // diagonal of R; tail of v stays in the column

    // Apply H = I - beta v v^H to the trailing columns in one kernel call:
    // the pivot row j and rows j+1..m-1, whose column j holds v's tail.
    // (lw > 0 implies j + 1 < m, so the tail rows exist.)
    const index_t lw = n_ - j - 1;
    if (lw > 0)
      reflect(v0, &a_(j + 1, j), n_, beta, &a_(j, j + 1), &a_(j + 1, j + 1),
              n_, m_ - j - 1, lw);
    const auto len = static_cast<std::uint64_t>(m_ - j);
    flops += 2 * len;  // norm accumulation
    flops += 2 * fma_flops<T>() * len * static_cast<std::uint64_t>(n_ - j - 1);
  }
  count_flops(flops);
}

namespace detail {

// max|d_i| / min|d_i| over a triangular diagonal; +inf if any entry is
// zero or non-finite.
template <typename T, typename DiagAt>
double diag_condition(index_t n, DiagAt at) {
  double dmax = 0.0;
  double dmin = std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(std::sqrt(abs_sq(at(i))));
    if (!std::isfinite(d) || d == 0.0)
      return std::numeric_limits<double>::infinity();
    dmax = std::max(dmax, d);
    dmin = std::min(dmin, d);
  }
  if (n == 0 || dmin == 0.0) return std::numeric_limits<double>::infinity();
  return dmax / dmin;
}

}  // namespace detail

template <typename T>
double QrFactorization<T>::condition_estimate() const {
  return detail::diag_condition<T>(n_, [this](index_t i) { return a_(i, i); });
}

template <typename T>
double QrFactorization<T>::column_norm_residual() const {
  double worst = 0.0;
  for (index_t j = 0; j < n_; ++j) {
    double s = 0.0;
    for (index_t i = 0; i <= j; ++i)
      s += static_cast<double>(abs_sq(a_(i, j)));
    const double rn = std::sqrt(s);
    const double an = col_norm_[static_cast<size_t>(j)];
    if (!std::isfinite(rn))
      return std::numeric_limits<double>::infinity();
    const double dev = std::abs(rn - an) / std::max(an, 1e-30);
    worst = std::max(worst, dev);
  }
  return worst;
}

template <typename T>
Matrix<T> QrFactorization<T>::r() const {
  Matrix<T> r(n_, n_);
  for (index_t i = 0; i < n_; ++i)
    for (index_t j = i; j < n_; ++j) r(i, j) = a_(i, j);
  return r;
}

template <typename T>
void QrFactorization<T>::apply_qh(Matrix<T>& b) const {
  PPSTAP_REQUIRE(b.rows() == m_, "rhs rows must match factorized matrix");
  const index_t nrhs = b.cols();
  if (nrhs == 0) return;
  std::uint64_t flops = 0;
  for (index_t j = 0; j < n_; ++j) {
    const index_t k = m_ - j - 1;  // reflector j has support on rows j..m-1
    reflect(v0_[static_cast<size_t>(j)], k > 0 ? &a_(j + 1, j) : nullptr, n_,
            beta_[static_cast<size_t>(j)], &b(j, 0),
            k > 0 ? &b(j + 1, 0) : nullptr, nrhs, k, nrhs);
    flops += 2 * fma_flops<T>() * static_cast<std::uint64_t>(k + 1) *
             static_cast<std::uint64_t>(nrhs);
  }
  count_flops(flops);
}

template <typename T>
Matrix<T> QrFactorization<T>::solve(const Matrix<T>& b) const {
  Matrix<T> y = b;
  apply_qh(y);
  Matrix<T> x(n_, y.cols());
  for (index_t i = 0; i < n_; ++i)
    for (index_t c = 0; c < y.cols(); ++c) x(i, c) = y(i, c);
  Matrix<T> r_upper = r();
  back_substitute(r_upper, x);
  return x;
}

template <typename T>
void back_substitute(const Matrix<T>& r, Matrix<T>& b) {
  const index_t n = r.rows();
  PPSTAP_REQUIRE(r.cols() == n, "R must be square");
  PPSTAP_REQUIRE(b.rows() == n, "rhs rows must match R");
  const index_t nrhs = b.cols();
  if (nrhs == 0) return;
  for (index_t i = n - 1; i >= 0; --i) {
    const T diag = r(i, i);
    PPSTAP_REQUIRE(abs_sq(diag) > real_of_t<T>{0},
                   "singular triangular factor in back substitution");
    // Row i accumulates in place over ascending j, unit stride across the
    // right-hand sides; each b(i, c) sees the same operation sequence as a
    // per-column dot product.
    T* bi = &b(i, 0);
    for (index_t j = i + 1; j < n; ++j) {
      const T rij = r(i, j);
      const T* bj = &b(j, 0);
      for (index_t c = 0; c < nrhs; ++c) bi[c] -= mul_finite(rij, bj[c]);
    }
    for (index_t c = 0; c < nrhs; ++c) bi[c] /= diag;
  }
  count_flops(fma_flops<T>() * static_cast<std::uint64_t>(n) *
              static_cast<std::uint64_t>(n) *
              static_cast<std::uint64_t>(nrhs) / 2);
}

template <typename T>
Matrix<T> least_squares(const Matrix<T>& a, const Matrix<T>& b) {
  return QrFactorization<T>(a).solve(b);
}

template <typename T>
Matrix<T> qr_append_rows(const Matrix<T>& r, Matrix<T> x, Matrix<T>& rhs,
                         Matrix<T> xrhs) {
  using Real = real_of_t<T>;
  const index_t n = r.rows();
  PPSTAP_REQUIRE(r.cols() == n, "R must be square in qr_append_rows");
  PPSTAP_REQUIRE(x.cols() == n, "appended rows must have R's column count");
  const index_t k = x.rows();
  const index_t p = rhs.cols();
  PPSTAP_REQUIRE(rhs.rows() == n && xrhs.rows() == k && xrhs.cols() == p,
                 "right-hand sides must be n x p over k x p");

  Matrix<T> out = r;
  std::uint64_t flops = 0;
  for (index_t j = 0; j < n; ++j) {
    // Householder on the sparse column [out(j,j); x(0..k-1, j)]: above-
    // diagonal entries of R are untouched because the reflector has zero
    // support there — this is what makes the update O(k n^2) instead of a
    // full O((n+k) n^2) re-factorization.
    Real norm_sq = abs_sq(out(j, j));
    for (index_t i = 0; i < k; ++i) norm_sq += abs_sq(x(i, j));
    const Real norm = std::sqrt(norm_sq);
    const T x0 = out(j, j);
    const T ph = phase_of(x0);
    const T alpha = -ph * norm;
    const T v0 = x0 - alpha;
    Real v_sq = abs_sq(v0);
    for (index_t i = 0; i < k; ++i) v_sq += abs_sq(x(i, j));
    const Real beta = v_sq > Real{0} ? Real{2} / v_sq : Real{0};
    out(j, j) = alpha;

    // The reflector's tail is column j of X, which no later step of this
    // column touches: apply it to [R_row; X_t], then to [rhs_row; xrhs].
    const T* v = k > 0 ? &x(0, j) : nullptr;
    const index_t lw = n - j - 1;
    if (lw > 0)
      reflect(v0, v, n, beta, &out(j, j + 1), k > 0 ? &x(0, j + 1) : nullptr,
              n, k, lw);
    if (p > 0)
      reflect(v0, v, n, beta, &rhs(j, 0), k > 0 ? &xrhs(0, 0) : nullptr, p,
              k, p);
    flops += 2 * static_cast<std::uint64_t>(k + 1);
    flops += 2 * fma_flops<T>() * static_cast<std::uint64_t>(k + 1) *
             static_cast<std::uint64_t>(lw + p);
  }
  count_flops(flops);
  return out;
}

template <typename T>
Matrix<T> qr_append_rows(const Matrix<T>& r, Matrix<T> x) {
  Matrix<T> rhs(r.rows(), 0);
  const index_t k = x.rows();
  return qr_append_rows(r, std::move(x), rhs, Matrix<T>(k, 0));
}

template <typename T>
double append_column_norm_residual(const Matrix<T>& r_old,
                                   const Matrix<T>& x,
                                   const Matrix<T>& r_new) {
  const index_t n = r_old.rows();
  PPSTAP_REQUIRE(r_new.rows() == n && r_new.cols() == n && r_old.cols() == n,
                 "R factors must be n x n in append_column_norm_residual");
  PPSTAP_REQUIRE(x.cols() == n, "appended rows must have R's column count");
  double worst = 0.0;
  for (index_t j = 0; j < n; ++j) {
    double before = 0.0;
    for (index_t i = 0; i <= j; ++i)
      before += static_cast<double>(abs_sq(r_old(i, j)));
    for (index_t i = 0; i < x.rows(); ++i)
      before += static_cast<double>(abs_sq(x(i, j)));
    double after = 0.0;
    for (index_t i = 0; i <= j; ++i)
      after += static_cast<double>(abs_sq(r_new(i, j)));
    const double bn = std::sqrt(before);
    const double an = std::sqrt(after);
    if (!std::isfinite(an))
      return std::numeric_limits<double>::infinity();
    const double dev = std::abs(an - bn) / std::max(bn, 1e-30);
    worst = std::max(worst, dev);
  }
  return worst;
}

template class QrFactorization<cfloat>;
template class QrFactorization<cdouble>;
template class QrFactorization<float>;
template class QrFactorization<double>;
template void back_substitute<cfloat>(const Matrix<cfloat>&, Matrix<cfloat>&);
template void back_substitute<cdouble>(const Matrix<cdouble>&,
                                       Matrix<cdouble>&);
template void back_substitute<float>(const Matrix<float>&, Matrix<float>&);
template void back_substitute<double>(const Matrix<double>&, Matrix<double>&);
template Matrix<cfloat> least_squares<cfloat>(const Matrix<cfloat>&,
                                              const Matrix<cfloat>&);
template Matrix<cdouble> least_squares<cdouble>(const Matrix<cdouble>&,
                                                const Matrix<cdouble>&);
template Matrix<float> least_squares<float>(const Matrix<float>&,
                                            const Matrix<float>&);
template Matrix<double> least_squares<double>(const Matrix<double>&,
                                              const Matrix<double>&);
template Matrix<cfloat> qr_append_rows<cfloat>(const Matrix<cfloat>&,
                                               Matrix<cfloat>);
template Matrix<cfloat> qr_append_rows<cfloat>(const Matrix<cfloat>&,
                                               Matrix<cfloat>, Matrix<cfloat>&,
                                               Matrix<cfloat>);
template Matrix<cdouble> qr_append_rows<cdouble>(const Matrix<cdouble>&,
                                                 Matrix<cdouble>);
template Matrix<cdouble> qr_append_rows<cdouble>(const Matrix<cdouble>&,
                                                 Matrix<cdouble>,
                                                 Matrix<cdouble>&,
                                                 Matrix<cdouble>);
template Matrix<float> qr_append_rows<float>(const Matrix<float>&,
                                             Matrix<float>);
template Matrix<float> qr_append_rows<float>(const Matrix<float>&,
                                             Matrix<float>, Matrix<float>&,
                                             Matrix<float>);
template Matrix<double> qr_append_rows<double>(const Matrix<double>&,
                                               Matrix<double>);
template Matrix<double> qr_append_rows<double>(const Matrix<double>&,
                                               Matrix<double>, Matrix<double>&,
                                               Matrix<double>);
template double append_column_norm_residual<cfloat>(const Matrix<cfloat>&,
                                                    const Matrix<cfloat>&,
                                                    const Matrix<cfloat>&);
template double append_column_norm_residual<cdouble>(const Matrix<cdouble>&,
                                                     const Matrix<cdouble>&,
                                                     const Matrix<cdouble>&);
template double append_column_norm_residual<float>(const Matrix<float>&,
                                                   const Matrix<float>&,
                                                   const Matrix<float>&);
template double append_column_norm_residual<double>(const Matrix<double>&,
                                                    const Matrix<double>&,
                                                    const Matrix<double>&);

}  // namespace ppstap::linalg
