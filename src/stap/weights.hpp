// Adaptive weight computation (paper §5.2, Appendix A/B).
//
// Both weight tasks solve the mainbeam-constrained least squares problem of
// Appendix A: minimize the clutter response ||X w|| while keeping w close to
// the steering vector via constraint rows (avg * k) * I with right-hand side
// w_s. Because the steering vector appears only on the right-hand side, one
// QR factorization serves all M receive beams.
//
//  * Easy bins: sample support is pooled from the preceding `easy_history`
//    CPIs (fresh QR each CPI — the "regular (non-recursive)" path).
//  * Hard bins: per (bin, range segment), an upper-triangular R is carried
//    across CPIs and updated with the block row-append QR under an
//    exponential forgetting factor — the paper's recursive weight update,
//    which substitutes temporal history for the scarce range support.
//
// Both computers solve their problems as batches, one problem per SIMD lane
// of a kernels::kLanes-wide group (kernels/lanes_ref.hpp, DESIGN §18): hard
// units in units() order, easy bins grouped by pooled row count. A lane's
// result depends only on its own problem, so any partition of the units or
// bins over computers yields the same weights bit for bit.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <vector>

#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "stap/params.hpp"

namespace ppstap::stap {

/// Numerical-health counters for one weight computer: every guard firing
/// is accounted here so a degraded solve is ledgered, never silent.
///
///  * nonfinite_training_blocks — incoming CPI training blocks containing
///    NaN/Inf, screened out before they can enter the pooled history or
///    poison the recursive forgetting-factor R update.
///  * loading_retries — solves whose R-diagonal condition estimate exceeded
///    StapParams::condition_threshold and were retried exactly once with
///    diagonal loading appended at data scale.
///  * quiescent_fallbacks — weight matrices that still came out non-finite
///    (or identically zero) after the retry and were replaced column-wise
///    by the quiescent (normalized steering) beamformer.
///  * qr_residual_retries — factorizations whose ABFT column-norm residual
///    exceeded StapParams::abft_tolerance and were re-run once (weight
///    solves — the easy QR and the hard constraint fold: through the
///    diagonal-loading path; recursive append: recomputed).
///  * qr_residual_rejects — factorizations that failed the residual gate
///    twice: recursive append updates are discarded so the corruption never
///    enters the carried R; weight solves fall back to the quiescent
///    weights (counted in quiescent_fallbacks too).
struct WeightHealth {
  std::uint64_t nonfinite_training_blocks = 0;
  std::uint64_t loading_retries = 0;
  std::uint64_t quiescent_fallbacks = 0;
  std::uint64_t qr_residual_retries = 0;
  std::uint64_t qr_residual_rejects = 0;

  WeightHealth& operator+=(const WeightHealth& o) {
    nonfinite_training_blocks += o.nonfinite_training_blocks;
    loading_retries += o.loading_retries;
    quiescent_fallbacks += o.quiescent_fallbacks;
    qr_residual_retries += o.qr_residual_retries;
    qr_residual_rejects += o.qr_residual_rejects;
    return *this;
  }
  bool clean() const {
    return nonfinite_training_blocks == 0 && loading_retries == 0 &&
           quiescent_fallbacks == 0 && qr_residual_retries == 0 &&
           qr_residual_rejects == 0;
  }
};

/// A set of weight matrices attached to (a subset of) Doppler bins.
/// For easy bins: one J x M matrix per bin. For hard bins: num_segments
/// matrices of 2J x M per bin, flattened as weights[bin_idx * num_segments
/// + segment].
struct WeightSet {
  std::vector<index_t> bins;              ///< global bin ids, ascending
  std::vector<linalg::MatrixCF> weights;  ///< see flattening rule above
};

/// Easy-bin weight computer. Owns the training history for a subset of easy
/// bins (a parallel weight node owns a contiguous slice of easy_bins()).
class EasyWeightComputer {
 public:
  /// `steering` is J x M; `bins` are the owned global easy-bin ids.
  EasyWeightComputer(const StapParams& p, linalg::MatrixCF steering,
                     std::vector<index_t> bins);

  const std::vector<index_t>& bins() const { return bins_; }

  /// Append this CPI's training rows: one (samples x J) matrix per owned
  /// bin, rows ordered by global range cell. History older than
  /// easy_history CPIs is dropped.
  void push_training(std::vector<linalg::MatrixCF> per_bin_rows);

  /// Solve for the weights of every owned bin from the accumulated history.
  /// Until the first push, returns quiescent (normalized steering) weights.
  WeightSet compute() const;

  /// Checkpoint / restore the training history (the computer's only
  /// mutable state) — the functional counterpart of the re-allocation
  /// state migration the machine model prices. The restoring computer must
  /// own the same bins under the same parameters.
  void save(std::ostream& os) const;
  void restore(std::istream& is);

  /// Guard-firing counters (screened blocks, loading retries, quiescent
  /// fallbacks) accumulated over this computer's lifetime.
  const WeightHealth& health() const { return health_; }

 private:
  StapParams p_;
  linalg::MatrixCF steering_;  // J x M
  std::vector<index_t> bins_;
  std::deque<std::vector<linalg::MatrixCF>> history_;  // newest at back
  mutable WeightHealth health_;
};

/// One independent hard weight problem: a (Doppler bin, range segment)
/// pair. The paper's hard weight task has num_hard * num_segments such
/// units (6 N_hard recursive QR updates per CPI) and parallelizes over
/// them — its 112-node case exceeds the 56 hard bins.
struct HardUnit {
  index_t bin = 0;
  index_t segment = 0;
};

/// Hard-bin recursive weight computer for a set of (bin, segment) units.
class HardWeightComputer {
 public:
  HardWeightComputer(const StapParams& p, linalg::MatrixCF steering,
                     std::vector<HardUnit> units);

  const std::vector<HardUnit>& units() const { return units_; }

  /// Recursive update: one (samples x 2J) matrix of new training rows per
  /// owned unit, in units() order. R <- qr_append_rows(forgetting * R, X).
  void update(const std::vector<linalg::MatrixCF>& per_unit_rows);

  /// Solve the constrained problem for every owned unit from the current R
  /// state, in units() order (each 2J x M): the J constraint rows are
  /// folded into a copy of R (qr_append_rows, steering carried as the
  /// right-hand side) and the result back-substituted. Valid immediately
  /// (R is seeded with diagonal loading), improving as updates accumulate.
  std::vector<linalg::MatrixCF> compute() const;

  /// Checkpoint / restore the recursive triangular factors (one 2J x 2J
  /// matrix per unit, in units() order).
  void save(std::ostream& os) const;
  void restore(std::istream& is);

  /// Bin-major unit list covering `bins` completely (all segments), the
  /// flattening WeightSet uses.
  static std::vector<HardUnit> units_for_bins(const StapParams& p,
                                              std::span<const index_t> bins);

  /// Guard-firing counters accumulated over this computer's lifetime.
  const WeightHealth& health() const { return health_; }

 private:
  StapParams p_;
  linalg::MatrixCF steering_;          // J x M
  std::vector<HardUnit> units_;
  // Per group of kLanes units (unit g * kLanes + l in lane l): the 2J x 2J
  // factors, row-major in the lane layout. Lanes past the last unit keep
  // their seed and are never read.
  kernels::LaneBuffer r_;
  mutable WeightHealth health_;
};

/// Normalize every column of `w` to unit 2-norm (the paper normalizes the
/// weight vector because the constraint scale k is operating-point
/// dependent). Columns with zero norm are left unchanged.
void normalize_columns(linalg::MatrixCF& w);

/// The *conventional* least squares beamformer of Appendix A Fig. 12 — the
/// approach the paper's constrained formulation replaces. The steering
/// vector enters as one more data row with unit desired response:
/// min || [X; ws^H] w - [0...0 1] ||. High clutter rejection, but the
/// adapted main beam may be "highly distorted ... with a peak response far
/// removed from the target" — the failure mode the mainbeam constraint
/// fixes (compare in bench/ext_constraint_ablation). Column `m` of the
/// result solves against steering column m; columns are unit-normalized.
linalg::MatrixCF conventional_ls_weights(const linalg::MatrixCF& training,
                                         const linalg::MatrixCF& steering);

}  // namespace ppstap::stap
