#include "stap/weights.hpp"

#include <cmath>
#include <numbers>

#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/flops.hpp"
#include "linalg/qr.hpp"
#include "linalg/serialize.hpp"

namespace ppstap::stap {

namespace {

// Data-scale proxy for the constraint rows: mean magnitude of the retained
// triangular factor. Scaling the constraint with the data keeps the
// beam-shape/clutter-null compromise (Appendix A's k) independent of the
// absolute signal level. The magnitudes are taken in double from |x|^2,
// which cannot overflow for float input; std::abs's hypot is several
// times slower and this scan runs once per hard solve.
float mean_abs_upper(const linalg::MatrixCF& r) {
  double acc = 0.0;
  index_t count = 0;
  for (index_t i = 0; i < r.rows(); ++i)
    for (index_t j = i; j < r.cols(); ++j) {
      acc += std::sqrt(static_cast<double>(r(i, j).real()) * r(i, j).real() +
                       static_cast<double>(r(i, j).imag()) * r(i, j).imag());
      ++count;
    }
  return count > 0 ? static_cast<float>(acc / static_cast<double>(count))
                   : 0.0f;
}

// One triangularization of a weight least-squares problem: the n x n
// factor, the top n rows of Q^H b, and (when the ABFT gate is on) the
// column-norm residual of the transform that produced them.
struct Triangularized {
  linalg::MatrixCF r;
  linalg::MatrixCF qhb;
  double residual = 0.0;
};

// Condition-guarded constrained least squares (the numerical-health guard),
// one policy for both weight paths. `triangularize(load, with_residual)`
// factors the problem, with `load * I_n` rows (zero right-hand side)
// appended when load > 0. The plain factor is solved when its ABFT
// residual passes and its R-diagonal condition estimate is at most
// `threshold`; otherwise the guard retries EXACTLY ONCE with diagonal
// loading at data scale — the loaded problem is well posed even for a
// rank-deficient or all-zero training stack. Every retry is counted in
// `health`, so a degraded solve always leaves a ledger entry: a residual
// above `abft_tol` (a factor corrupted mid-flight) as qr_residual_retries,
// and, if the loaded factor fails it too, qr_residual_rejects.
template <typename Triangularize>
linalg::MatrixCF guarded_least_squares(Triangularize&& triangularize,
                                       double threshold, float load,
                                       WeightHealth& health,
                                       double abft_tol) {
  const bool gated = abft_tol > 0.0;
  Triangularized t = triangularize(0.0f, gated);
  const bool residual_bad = gated && t.residual > abft_tol;
  if (residual_bad) {
    ++health.qr_residual_retries;
  } else if (linalg::triangular_condition_estimate(t.r) <= threshold) {
    linalg::back_substitute(t.r, t.qhb);
    return std::move(t.qhb);
  } else {
    ++health.loading_retries;
  }
  if (load <= 0.0f || !std::isfinite(load)) load = 1.0f;
  t = triangularize(load, gated);
  if (gated && t.residual > abft_tol) {
    // Persistent: no solve of a broken factor (it may not even be
    // invertible); the all-zero result sends every column through
    // patch_bad_columns to the quiescent weights.
    ++health.qr_residual_rejects;
    return linalg::MatrixCF(t.qhb.rows(), t.qhb.cols());
  }
  linalg::back_substitute(t.r, t.qhb);
  return std::move(t.qhb);
}

// Dense path (easy bins): Householder QR of [A; load I] against [B; 0].
Triangularized triangularize_dense(const linalg::MatrixCF& a,
                                   const linalg::MatrixCF& b, float load,
                                   bool with_residual) {
  const index_t n = a.cols();
  const index_t extra = load > 0.0f ? n : 0;
  linalg::MatrixCF a2(a.rows() + extra, n);
  linalg::MatrixCF b2(a.rows() + extra, b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < n; ++j) a2(i, j) = a(i, j);
    for (index_t j = 0; j < b.cols(); ++j) b2(i, j) = b(i, j);
  }
  for (index_t i = 0; i < extra; ++i) a2(a.rows() + i, i) = load;
  linalg::QrFactorization<cfloat> qr(a2);
  qr.apply_qh(b2);
  Triangularized t{qr.r(), linalg::MatrixCF(n, b.cols()),
                   with_residual ? qr.column_norm_residual() : 0.0};
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < b.cols(); ++j) t.qhb(i, j) = b2(i, j);
  return t;
}

// Structured path (hard bins): R is already triangular, so only the
// constraint rows C (and the loading rows) are folded into a copy of it
// with the row-append update, carrying [0; S] through the same reflectors.
// A dense QR of [R; C] would spend most of its work on R's structural
// zeros.
Triangularized triangularize_fold(const linalg::MatrixCF& r,
                                  const linalg::MatrixCF& c,
                                  const linalg::MatrixCF& s, float load,
                                  bool with_residual) {
  const index_t n = r.rows();
  const index_t extra = load > 0.0f ? n : 0;
  linalg::MatrixCF x(c.rows() + extra, n);
  linalg::MatrixCF xs(c.rows() + extra, s.cols());
  for (index_t i = 0; i < c.rows(); ++i) {
    for (index_t j = 0; j < n; ++j) x(i, j) = c(i, j);
    for (index_t j = 0; j < s.cols(); ++j) xs(i, j) = s(i, j);
  }
  for (index_t i = 0; i < extra; ++i) x(c.rows() + i, i) = load;
  Triangularized t;
  t.qhb = linalg::MatrixCF(n, s.cols());
  t.r = linalg::qr_append_rows(r, x, t.qhb, std::move(xs));
  if (with_residual)
    t.residual = linalg::append_column_norm_residual(r, x, t.r);
  return t;
}

// Post-solve screen: replace any non-finite or identically-zero weight
// column with the corresponding quiescent column (normalized), so nothing
// downstream ever beamforms with NaN/Inf. Counted once per patched matrix.
void patch_bad_columns(linalg::MatrixCF& w, const linalg::MatrixCF& quiescent,
                       WeightHealth& health) {
  bool patched = false;
  for (index_t c = 0; c < w.cols(); ++c) {
    bool bad = false;
    double norm_sq = 0.0;
    for (index_t i = 0; i < w.rows(); ++i) {
      const auto a2 = linalg::abs_sq(w(i, c));
      if (!std::isfinite(a2)) bad = true;
      norm_sq += static_cast<double>(a2);
    }
    if (!bad && norm_sq > 0.0) continue;
    for (index_t i = 0; i < w.rows(); ++i) w(i, c) = quiescent(i, c);
    patched = true;
  }
  if (patched) ++health.quiescent_fallbacks;
}

}  // namespace

void normalize_columns(linalg::MatrixCF& w) {
  for (index_t c = 0; c < w.cols(); ++c) {
    double norm_sq = 0.0;
    for (index_t i = 0; i < w.rows(); ++i)
      norm_sq += static_cast<double>(linalg::abs_sq(w(i, c)));
    if (norm_sq <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (index_t i = 0; i < w.rows(); ++i) w(i, c) *= inv;
  }
}

linalg::MatrixCF conventional_ls_weights(const linalg::MatrixCF& training,
                                         const linalg::MatrixCF& steering) {
  const index_t j = steering.rows();
  const index_t m = steering.cols();
  PPSTAP_REQUIRE(training.cols() == j,
                 "training columns must match steering rows");
  const index_t rows = training.rows();

  linalg::MatrixCF w(j, m);
  for (index_t beam = 0; beam < m; ++beam) {
    // A = [conj(X); ws^H], rhs = [0 ... 0 1]^T (Fig. 12). Rows enter
    // conjugated for the same w^H x output convention as the constrained
    // path.
    linalg::MatrixCF a(rows + 1, j);
    for (index_t r = 0; r < rows; ++r)
      for (index_t c = 0; c < j; ++c) a(r, c) = std::conj(training(r, c));
    for (index_t c = 0; c < j; ++c)
      a(rows, c) = std::conj(steering(c, beam));
    linalg::MatrixCF rhs(rows + 1, 1);
    rhs(rows, 0) = cfloat(1.0f, 0.0f);
    auto sol = linalg::least_squares(a, rhs);
    for (index_t c = 0; c < j; ++c) w(c, beam) = sol(c, 0);
  }
  normalize_columns(w);
  return w;
}

// ---------------------------------------------------------------------------
// Easy bins
// ---------------------------------------------------------------------------

EasyWeightComputer::EasyWeightComputer(const StapParams& p,
                                       linalg::MatrixCF steering,
                                       std::vector<index_t> bins)
    : p_(p), steering_(std::move(steering)), bins_(std::move(bins)) {
  p_.validate();
  PPSTAP_REQUIRE(steering_.rows() == p_.num_channels &&
                     steering_.cols() == p_.num_beams,
                 "steering matrix must be J x M");
  for (index_t b : bins_)
    PPSTAP_REQUIRE(!p_.is_hard_bin(b), "easy computer given a hard bin");
}

void EasyWeightComputer::push_training(
    std::vector<linalg::MatrixCF> per_bin_rows) {
  PPSTAP_REQUIRE(per_bin_rows.size() == bins_.size(),
                 "one training matrix per owned bin expected");
  for (auto& m : per_bin_rows) {
    PPSTAP_REQUIRE(m.cols() == p_.num_channels,
                   "easy training rows must have J columns");
    // NaN/Inf screen: a corrupted CPI block would poison the pooled history
    // for easy_history CPIs. Drop it (empty block) and ledger the event.
    if (!linalg::all_finite(m)) {
      m = linalg::MatrixCF(0, p_.num_channels);
      ++health_.nonfinite_training_blocks;
    }
  }
  history_.push_back(std::move(per_bin_rows));
  while (static_cast<index_t>(history_.size()) > p_.easy_history)
    history_.pop_front();
}

WeightSet EasyWeightComputer::compute() const {
  WeightSet out;
  out.bins = bins_;
  out.weights.reserve(bins_.size());

  const index_t j = p_.num_channels;
  const index_t m = p_.num_beams;

  linalg::MatrixCF quiescent = steering_;
  normalize_columns(quiescent);

  for (size_t bi = 0; bi < bins_.size(); ++bi) {
    index_t total_rows = 0;
    for (const auto& cpi : history_)
      total_rows += cpi[bi].rows();

    if (total_rows == 0) {
      // Quiescent: normalized steering (no adaptation yet).
      out.weights.push_back(quiescent);
      continue;
    }

    // Stack the pooled history over the constraint block avg * I_J. Rows
    // enter conjugated: the beamformer applies w^H x, so minimizing the
    // clutter output power means minimizing |x^H w| — the least squares
    // rows are the conjugated snapshots.
    linalg::MatrixCF a(total_rows + j, j);
    index_t row = 0;
    double abs_acc = 0.0;
    for (const auto& cpi : history_) {
      const auto& x = cpi[bi];
      for (index_t r = 0; r < x.rows(); ++r, ++row)
        for (index_t c = 0; c < j; ++c) {
          a(row, c) = std::conj(x(r, c));
          abs_acc += std::abs(x(r, c));
        }
    }
    const float scale = static_cast<float>(
        abs_acc / static_cast<double>(total_rows * j));
    const float avg = static_cast<float>(p_.beam_constraint_wt) * scale;
    for (index_t c = 0; c < j; ++c) a(total_rows + c, c) = avg;

    linalg::MatrixCF b(total_rows + j, m);
    for (index_t c = 0; c < m; ++c)
      for (index_t r = 0; r < j; ++r)
        b(total_rows + r, c) = steering_(r, c);

    linalg::MatrixCF w = guarded_least_squares(
        [&](float load, bool with_residual) {
          return triangularize_dense(a, b, load, with_residual);
        },
        p_.condition_threshold, scale, health_, p_.abft_tolerance);
    patch_bad_columns(w, quiescent, health_);
    normalize_columns(w);
    out.weights.push_back(std::move(w));
  }
  return out;
}

void EasyWeightComputer::save(std::ostream& os) const {
  const std::uint64_t depth = history_.size();
  os.write(reinterpret_cast<const char*>(&depth), sizeof(depth));
  for (const auto& cpi : history_) {
    PPSTAP_CHECK(cpi.size() == bins_.size(), "corrupt history");
    for (const auto& m : cpi) linalg::write_matrix(os, m);
  }
  PPSTAP_REQUIRE(os.good(), "easy weight state write failed");
}

void EasyWeightComputer::restore(std::istream& is) {
  std::uint64_t depth = 0;
  is.read(reinterpret_cast<char*>(&depth), sizeof(depth));
  PPSTAP_REQUIRE(is.good() && depth <= static_cast<std::uint64_t>(
                                           p_.easy_history),
                 "easy weight state header mismatch");
  std::deque<std::vector<linalg::MatrixCF>> history;
  for (std::uint64_t h = 0; h < depth; ++h) {
    std::vector<linalg::MatrixCF> cpi;
    cpi.reserve(bins_.size());
    for (size_t b = 0; b < bins_.size(); ++b) {
      auto m = linalg::read_matrix<cfloat>(is);
      PPSTAP_REQUIRE(m.cols() == p_.num_channels,
                     "easy weight state column mismatch");
      cpi.push_back(std::move(m));
    }
    history.push_back(std::move(cpi));
  }
  history_ = std::move(history);
}

// ---------------------------------------------------------------------------
// Hard bins
// ---------------------------------------------------------------------------

HardWeightComputer::HardWeightComputer(const StapParams& p,
                                       linalg::MatrixCF steering,
                                       std::vector<HardUnit> units)
    : p_(p), steering_(std::move(steering)), units_(std::move(units)) {
  p_.validate();
  PPSTAP_REQUIRE(steering_.rows() == p_.num_channels &&
                     steering_.cols() == p_.num_beams,
                 "steering matrix must be J x M");
  for (const auto& u : units_) {
    PPSTAP_REQUIRE(p_.is_hard_bin(u.bin), "hard computer given an easy bin");
    PPSTAP_REQUIRE(u.segment >= 0 && u.segment < p_.num_segments,
                   "segment index out of range");
  }

  // Seed every R with diagonal loading so the very first solve is well
  // posed; the loading decays geometrically under the forgetting factor.
  const index_t jj = p_.num_staggered_channels();
  const auto seed = static_cast<float>(p_.diagonal_loading);
  r_.assign(units_.size(),
            linalg::MatrixCF::identity(jj, cfloat(seed, 0.0f)));
}

std::vector<HardUnit> HardWeightComputer::units_for_bins(
    const StapParams& p, std::span<const index_t> bins) {
  std::vector<HardUnit> units;
  units.reserve(bins.size() * static_cast<size_t>(p.num_segments));
  for (index_t bin : bins)
    for (index_t s = 0; s < p.num_segments; ++s)
      units.push_back(HardUnit{bin, s});
  return units;
}

void HardWeightComputer::update(
    const std::vector<linalg::MatrixCF>& per_unit_rows) {
  PPSTAP_REQUIRE(per_unit_rows.size() == r_.size(),
                 "one training matrix per unit expected");
  const auto lambda = static_cast<float>(p_.forgetting);
  for (size_t i = 0; i < r_.size(); ++i) {
    PPSTAP_REQUIRE(per_unit_rows[i].cols() == p_.num_staggered_channels(),
                   "hard training rows must have 2J columns");
    // NaN/Inf screen: a corrupted block folded into the recursive R would
    // contaminate every later CPI (the forgetting factor never fully
    // forgets a NaN). Skip this unit's update and ledger the event.
    if (!linalg::all_finite(per_unit_rows[i])) {
      ++health_.nonfinite_training_blocks;
      continue;
    }
    // Rows enter conjugated (the beamformer applies w^H x; see the easy
    // path for the convention note).
    linalg::MatrixCF x = per_unit_rows[i];
    for (index_t a = 0; a < x.rows(); ++a)
      for (index_t b = 0; b < x.cols(); ++b) x(a, b) = std::conj(x(a, b));
    linalg::MatrixCF faded = r_[i];
    for (index_t a = 0; a < faded.rows(); ++a)
      for (index_t b = a; b < faded.cols(); ++b) faded(a, b) *= lambda;
    count_flops(static_cast<std::uint64_t>(faded.rows() * (faded.rows() + 1)));
    if (p_.abft_tolerance <= 0.0) {
      r_[i] = linalg::qr_append_rows(faded, std::move(x));
      continue;
    }
    // ABFT residual gate (PR 5): the append update must preserve the
    // column norms of [faded R; X]. A corrupted update would contaminate
    // every later CPI through the forgetting recursion, so verify,
    // recompute once, and on persistent failure discard the update rather
    // than fold it in.
    linalg::MatrixCF r_new = linalg::qr_append_rows(faded, x);
    if (linalg::append_column_norm_residual(faded, x, r_new) >
        p_.abft_tolerance) {
      ++health_.qr_residual_retries;
      r_new = linalg::qr_append_rows(faded, x);
      if (linalg::append_column_norm_residual(faded, x, r_new) >
          p_.abft_tolerance) {
        ++health_.qr_residual_rejects;
        continue;  // keep the previous R; this unit skips one update
      }
    }
    r_[i] = std::move(r_new);
  }
}

std::vector<linalg::MatrixCF> HardWeightComputer::compute() const {
  std::vector<linalg::MatrixCF> out;
  out.reserve(r_.size());

  const index_t j = p_.num_channels;
  const index_t jj = p_.num_staggered_channels();
  const index_t m = p_.num_beams;
  const index_t n = p_.num_pulses;

  for (size_t i = 0; i < units_.size(); ++i) {
    const index_t bin = units_[i].bin;
    // Relative phase of the second stagger window for a target in this bin:
    // the window is delayed by `stagger` PRIs, i.e. exp(-j 2 pi bin s / N)
    // (Appendix B's frequency constraint factor).
    const double phi = -2.0 * std::numbers::pi * static_cast<double>(bin) *
                       static_cast<double>(p_.stagger) /
                       static_cast<double>(n);
    const cfloat stag_phase(static_cast<float>(std::cos(phi)),
                            static_cast<float>(std::sin(phi)));

    const auto& r = r_[i];
    const float scale = mean_abs_upper(r);
    const float avg = static_cast<float>(p_.beam_constraint_wt) * scale;

    // Constraint rows C = avg [I_J | stag_phase I_J] against S: the pair
    // of staggered subweights, combined with the bin's stagger phase, must
    // reproduce the steering vector. The problem is [R; C] w ~ [0; S].
    linalg::MatrixCF c(j, jj);
    for (index_t row = 0; row < j; ++row) {
      c(row, row) = avg;
      c(row, j + row) = avg * stag_phase;
    }

    // Quiescent fallback for this unit: both staggered subweights carry the
    // steering vector, the second rotated back by the bin's stagger phase so
    // the pair combines coherently under the constraint.
    linalg::MatrixCF quiescent(jj, m);
    for (index_t c = 0; c < m; ++c)
      for (index_t row = 0; row < j; ++row) {
        quiescent(row, c) = steering_(row, c);
        quiescent(j + row, c) = std::conj(stag_phase) * steering_(row, c);
      }
    normalize_columns(quiescent);

    linalg::MatrixCF w = guarded_least_squares(
        [&](float load, bool with_residual) {
          return triangularize_fold(r, c, steering_, load, with_residual);
        },
        p_.condition_threshold, scale, health_, p_.abft_tolerance);
    patch_bad_columns(w, quiescent, health_);
    normalize_columns(w);
    out.push_back(std::move(w));
  }
  return out;
}

void HardWeightComputer::save(std::ostream& os) const {
  const std::uint64_t count = r_.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& r : r_) linalg::write_matrix(os, r);
  PPSTAP_REQUIRE(os.good(), "hard weight state write failed");
}

void HardWeightComputer::restore(std::istream& is) {
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  PPSTAP_REQUIRE(is.good() && count == r_.size(),
                 "hard weight state unit count mismatch");
  std::vector<linalg::MatrixCF> rs;
  rs.reserve(r_.size());
  const index_t jj = p_.num_staggered_channels();
  for (std::uint64_t i = 0; i < count; ++i) {
    auto r = linalg::read_matrix<cfloat>(is);
    PPSTAP_REQUIRE(r.rows() == jj && r.cols() == jj,
                   "hard weight state shape mismatch");
    rs.push_back(std::move(r));
  }
  r_ = std::move(rs);
}

}  // namespace ppstap::stap
