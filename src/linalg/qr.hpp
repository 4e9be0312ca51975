// Householder QR factorization and least-squares solvers.
//
// The STAP weight computation (paper Appendix A/B) solves constrained least
// squares problems of the form  min ||M w - rhs||  where M stacks clutter
// training snapshots over beam-shape constraint rows. The easy Doppler bins
// use a fresh QR per CPI; the hard bins use the *recursive block update* form
// of QR (qr_append_rows), which re-triangularizes [lambda*R_old; X_new]
// without touching old data — the paper's exponential-forgetting scheme —
// and solve by folding their constraint rows into R with the same update.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace ppstap::linalg {

/// Householder QR of an m x n matrix (m >= n), retaining the reflectors so
/// Q^H can be applied to right-hand sides without forming Q.
template <typename T>
class QrFactorization {
 public:
  /// Factorize a copy of `a`.
  explicit QrFactorization(const Matrix<T>& a);

  index_t rows() const { return m_; }
  index_t cols() const { return n_; }

  /// The n x n upper-triangular factor.
  Matrix<T> r() const;

  /// Cheap condition estimate from the R diagonal: max|r_ii| / min|r_ii|,
  /// a lower bound on the true 2-norm condition number that is exact for
  /// the diagonal-dominated problems the weight path produces. Returns
  /// +inf when the diagonal touches zero or carries a non-finite entry —
  /// a solve would divide by (or propagate) it.
  double condition_estimate() const;

  /// ABFT invariant (PR 5): orthogonal transforms preserve column norms,
  /// so ||R e_j|| must equal ||A e_j|| for every column. Returns the worst
  /// relative deviation across columns; both sides accumulate in double
  /// (the input norms are captured before factorization), so a healthy
  /// float factorization sits orders of magnitude below any sensible
  /// tolerance while a bit flip in A's copy or a broken reflector shows up
  /// directly. O(n^2) against the factorization's O(m n^2).
  double column_norm_residual() const;

  /// B (m x nrhs) := Q^H B, applying the stored reflectors in order.
  void apply_qh(Matrix<T>& b) const;

  /// Least-squares solution X (n x nrhs) of A X = B, B is m x nrhs.
  Matrix<T> solve(const Matrix<T>& b) const;

 private:
  index_t m_ = 0, n_ = 0;
  Matrix<T> a_;  // R in the upper triangle, reflector tails below.
  std::vector<T> v0_;  // leading reflector element per column
  std::vector<real_of_t<T>> beta_;  // 2 / ||v||^2 per column
  std::vector<double> col_norm_;  // ||A e_j|| of the input, in double
};

/// Solve R X = B for upper-triangular R (n x n), B is n x nrhs; in place.
template <typename T>
void back_substitute(const Matrix<T>& r, Matrix<T>& b);

/// Least-squares solution of A X = B via QR (one-shot convenience).
template <typename T>
Matrix<T> least_squares(const Matrix<T>& a, const Matrix<T>& b);

/// Re-triangularize [R; X] where R is n x n upper triangular and X is k x n
/// dense: returns the updated n x n R. This is the block row-append QR
/// update; combined with a scalar forgetting factor applied to R beforehand
/// it implements the paper's recursive weight update for hard Doppler bins.
/// X is consumed (used as workspace).
template <typename T>
Matrix<T> qr_append_rows(const Matrix<T>& r, Matrix<T> x);

/// The same update carrying right-hand sides: `rhs` (n x p) and `xrhs`
/// (k x p) go through the same reflectors, so on return `rhs` holds the top
/// n rows of Q^H [rhs; xrhs] and back_substitute(R_new, rhs) solves the
/// least-squares problem [R; X] w ~ [rhs; xrhs]. `xrhs` is consumed like X.
template <typename T>
Matrix<T> qr_append_rows(const Matrix<T>& r, Matrix<T> x, Matrix<T>& rhs,
                         Matrix<T> xrhs);

/// ABFT invariant for the row-append update (PR 5): the re-triangularized
/// R must preserve the column norms of the stacked [r_old; x] matrix.
/// Returns the worst relative deviation across columns, accumulated in
/// double. Callers keep their own copy of `x` — qr_append_rows consumes
/// its argument as workspace.
template <typename T>
double append_column_norm_residual(const Matrix<T>& r_old,
                                   const Matrix<T>& x,
                                   const Matrix<T>& r_new);

extern template class QrFactorization<cfloat>;
extern template class QrFactorization<cdouble>;
extern template class QrFactorization<float>;
extern template class QrFactorization<double>;
extern template void back_substitute<cfloat>(const Matrix<cfloat>&,
                                             Matrix<cfloat>&);
extern template void back_substitute<cdouble>(const Matrix<cdouble>&,
                                              Matrix<cdouble>&);
extern template void back_substitute<float>(const Matrix<float>&,
                                            Matrix<float>&);
extern template void back_substitute<double>(const Matrix<double>&,
                                             Matrix<double>&);
extern template Matrix<cfloat> least_squares<cfloat>(const Matrix<cfloat>&,
                                                     const Matrix<cfloat>&);
extern template Matrix<cdouble> least_squares<cdouble>(const Matrix<cdouble>&,
                                                       const Matrix<cdouble>&);
extern template Matrix<float> least_squares<float>(const Matrix<float>&,
                                                   const Matrix<float>&);
extern template Matrix<double> least_squares<double>(const Matrix<double>&,
                                                     const Matrix<double>&);
extern template Matrix<cfloat> qr_append_rows<cfloat>(const Matrix<cfloat>&,
                                         Matrix<cfloat>);
extern template Matrix<cfloat> qr_append_rows<cfloat>(const Matrix<cfloat>&,
                                         Matrix<cfloat>, Matrix<cfloat>&,
                                         Matrix<cfloat>);
extern template Matrix<cdouble> qr_append_rows<cdouble>(const Matrix<cdouble>&,
                                         Matrix<cdouble>);
extern template Matrix<cdouble> qr_append_rows<cdouble>(const Matrix<cdouble>&,
                                         Matrix<cdouble>, Matrix<cdouble>&,
                                         Matrix<cdouble>);
extern template Matrix<float> qr_append_rows<float>(const Matrix<float>&,
                                         Matrix<float>);
extern template Matrix<float> qr_append_rows<float>(const Matrix<float>&,
                                         Matrix<float>, Matrix<float>&,
                                         Matrix<float>);
extern template Matrix<double> qr_append_rows<double>(const Matrix<double>&,
                                         Matrix<double>);
extern template Matrix<double> qr_append_rows<double>(const Matrix<double>&,
                                         Matrix<double>, Matrix<double>&,
                                         Matrix<double>);
extern template double append_column_norm_residual<cfloat>(
    const Matrix<cfloat>&, const Matrix<cfloat>&, const Matrix<cfloat>&);
extern template double append_column_norm_residual<cdouble>(
    const Matrix<cdouble>&, const Matrix<cdouble>&, const Matrix<cdouble>&);
extern template double append_column_norm_residual<float>(
    const Matrix<float>&, const Matrix<float>&, const Matrix<float>&);
extern template double append_column_norm_residual<double>(
    const Matrix<double>&, const Matrix<double>&, const Matrix<double>&);

}  // namespace ppstap::linalg
