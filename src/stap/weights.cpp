#include "stap/weights.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>

#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/flops.hpp"
#include "linalg/qr.hpp"
#include "linalg/serialize.hpp"
#include "stap/flops.hpp"

namespace ppstap::stap {

namespace {

using kernels::kLaneElem;
using kernels::kLanes;
using kernels::LaneBuffer;

// ---------------------------------------------------------------------------
// Lane-group helpers. A group holds kLanes problems of one shape (see
// kernels/lanes_ref.hpp); element e of lane l is the pair of floats
// e * kLaneElem + l (real) and e * kLaneElem + kLanes + l (imaginary). The
// per-lane reductions below run in plain C++ on every dispatch level, so
// the guards decide identically wherever the kernels agree.
// ---------------------------------------------------------------------------

using LaneDoubles = std::array<double, kLanes>;

inline cfloat lane_get(const float* g, index_t e, index_t l) {
  return {g[e * kLaneElem + l], g[e * kLaneElem + kLanes + l]};
}
inline void lane_set(float* g, index_t e, index_t l, cfloat v) {
  g[e * kLaneElem + l] = v.real();
  g[e * kLaneElem + kLanes + l] = v.imag();
}

// acc[l] += sum over `count` elements (element stride `stride`, from `e0`)
// of |z|^2, in double.
void add_sq_norms(const float* g, index_t e0, index_t count, index_t stride,
                  LaneDoubles& acc) {
  for (index_t i = 0; i < count; ++i) {
    const float* e = g + (e0 + i * stride) * kLaneElem;
    for (index_t l = 0; l < kLanes; ++l) {
      const double re = e[l], im = e[kLanes + l];
      acc[l] += re * re + im * im;
    }
  }
}

// ABFT invariant: orthogonal transforms preserve column norms, so
// column c of the new R must have the norm of column c of the stacked input.
// `before[c]` holds each lane's squared input norm per column; `r` is the
// factor, element (i, c) at i * rs + c * cs. Worst relative deviation per
// lane, +inf when the factor carries a non-finite entry.
LaneDoubles column_norm_residual(const std::vector<LaneDoubles>& before,
                                 const float* r, index_t rs, index_t cs) {
  LaneDoubles worst{};
  const auto n = static_cast<index_t>(before.size());
  for (index_t c = 0; c < n; ++c) {
    LaneDoubles after{};
    add_sq_norms(r, c * cs, c + 1, rs, after);
    for (index_t l = 0; l < kLanes; ++l) {
      const double an = std::sqrt(after[l]);
      const double bn = std::sqrt(before[static_cast<size_t>(c)][l]);
      const double dev = std::isfinite(an)
                             ? std::abs(an - bn) / std::max(bn, 1e-30)
                             : std::numeric_limits<double>::infinity();
      worst[l] = std::max(worst[l], dev);
    }
  }
  return worst;
}

// Cheap condition estimate from the R diagonal, per lane: max|r_ii| /
// min|r_ii|, +inf when the diagonal touches zero or carries a non-finite
// entry (a solve would divide by, or propagate, it). Diagonal element i at
// i * diag_stride.
LaneDoubles condition_estimate(const float* r, index_t diag_stride,
                               index_t n) {
  LaneDoubles cond{};
  for (index_t l = 0; l < kLanes; ++l) {
    double dmax = 0.0;
    double dmin = std::numeric_limits<double>::infinity();
    for (index_t i = 0; i < n; ++i) {
      const cfloat z = lane_get(r, i * diag_stride, l);
      const double d = static_cast<double>(std::sqrt(linalg::abs_sq(z)));
      if (!std::isfinite(d) || d == 0.0) dmin = 0.0;
      dmax = std::max(dmax, d);
      dmin = std::min(dmin, d);
    }
    cond[l] = n > 0 && dmin > 0.0 ? dmax / dmin
                                  : std::numeric_limits<double>::infinity();
  }
  return cond;
}

// Lane l's n x p block of a group (element (i, c) at i * rs + c * cs).
linalg::MatrixCF lane_matrix(const float* g, index_t rows, index_t cols,
                             index_t rs, index_t cs, index_t l) {
  linalg::MatrixCF m(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t c = 0; c < cols; ++c) m(i, c) = lane_get(g, i * rs + c * cs, l);
  return m;
}

// Copy lane l of `count` elements from one group buffer to another.
void copy_lane(const float* from, float* to, index_t count, index_t l) {
  for (index_t e = 0; e < count; ++e) {
    to[e * kLaneElem + l] = from[e * kLaneElem + l];
    to[e * kLaneElem + kLanes + l] = from[e * kLaneElem + kLanes + l];
  }
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

// The numerical-health guard, one policy for both weight paths, per lane:
// a lane whose first factor passes the ABFT residual gate (when on) and
// whose R-diagonal condition estimate is at most the threshold is solved;
// any other lane is retried EXACTLY ONCE with diagonal loading at data
// scale — the loaded problem is well posed even for a rank-deficient or
// all-zero training stack. Every retry is counted: a residual above the
// tolerance (a factor corrupted mid-flight) as qr_residual_retries, a bad
// condition as loading_retries; a loaded factor that fails the residual
// gate too as qr_residual_rejects, and its lane solves to zero (the
// quiescent fallback) rather than back-substituting a broken factor.
struct LaneVerdict {
  std::array<bool, kLanes> solve{}, retry{};
  int solved = 0, retried = 0;
};

LaneVerdict first_verdict(index_t lanes, const LaneDoubles& residual,
                          const LaneDoubles& cond, const StapParams& p,
                          WeightHealth& health) {
  const bool gated = p.abft_tolerance > 0.0;
  LaneVerdict v;
  for (index_t l = 0; l < lanes; ++l) {
    if (gated && residual[l] > p.abft_tolerance) {
      ++health.qr_residual_retries;
    } else if (cond[l] <= p.condition_threshold) {
      v.solve[l] = true;
      ++v.solved;
      continue;
    } else {
      ++health.loading_retries;
    }
    v.retry[l] = true;
    ++v.retried;
  }
  return v;
}

// The retried lanes after their loaded factorization: a lane whose loaded
// factor fails the residual gate too is rejected — its weights stay zero,
// the quiescent fallback, rather than a solve of a broken factor. Returns
// how many retried lanes remain to solve.
int reject_broken_retries(const LaneVerdict& v, index_t lanes,
                          const LaneDoubles& residual, const StapParams& p,
                          index_t rows, index_t cols,
                          std::array<linalg::MatrixCF, kLanes>& w,
                          WeightHealth& health) {
  int solve = 0;
  for (index_t l = 0; l < lanes; ++l) {
    if (!v.retry[l]) continue;
    if (p.abft_tolerance > 0.0 && residual[l] > p.abft_tolerance) {
      ++health.qr_residual_rejects;
      w[l] = linalg::MatrixCF(rows, cols);
    } else {
      ++solve;
    }
  }
  return solve;
}

// The loading scale of a retried lane: its data scale, 1 when that is zero
// or not finite.
float loading_for(float scale) {
  return scale > 0.0f && std::isfinite(scale) ? scale : 1.0f;
}

// Working buffers of the batched solves, one set per thread and reused
// across calls: a weight task solves once per CPI, and allocating these
// cache-line-aligned blocks afresh each time fragments the heap (peak RSS
// grew with the number of CPIs run).
struct Scratch {
  LaneBuffer a, b, c, d;
  std::vector<LaneDoubles> before;
};
Scratch& scratch() {
  thread_local Scratch s;
  return s;
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
  out.weights.resize(bins_.size());

  const index_t j = p_.num_channels;
  const index_t nb = p_.num_beams;

  linalg::MatrixCF quiescent = steering_;
  normalize_columns(quiescent);

  // Lanes of one group share the pooled row count T, so no lane carries
  // padding rows: bins are bucketed by T (ascending bin order within a
  // bucket). T differs between bins only after a screened block.
  std::map<index_t, std::vector<size_t>> by_rows;
  for (size_t bi = 0; bi < bins_.size(); ++bi) {
    index_t total_rows = 0;
    for (const auto& cpi : history_) total_rows += cpi[bi].rows();
    if (total_rows == 0)
      out.weights[bi] = quiescent;  // quiescent: no adaptation yet
    else
      by_rows[total_rows].push_back(bi);
  }

  // Stack the pooled history over the constraint block avg * I_J (and, on
  // the retry, the loading block load * I_J), column-major m x J, against
  // [0; S; 0]. Rows enter conjugated: the beamformer applies w^H x, so
  // minimizing the clutter output power means minimizing |x^H w| — the
  // least squares rows are the conjugated snapshots.
  Scratch& sc = scratch();
  LaneBuffer &a = sc.a, &b = sc.b;
  std::vector<LaneDoubles>& before = sc.before;
  auto fill_data = [&](index_t m, size_t bi, index_t l) {
    index_t row = 0;
    for (const auto& cpi : history_) {
      const auto& x = cpi[bi];
      for (index_t r = 0; r < x.rows(); ++r, ++row)
        for (index_t c = 0; c < j; ++c)
          lane_set(a.data(), c * m + row, l, std::conj(x(r, c)));
    }
  };
  auto fill_constraints = [&](index_t rows, index_t m, index_t l, float avg,
                              float load) {
    for (index_t c = 0; c < j; ++c) {
      lane_set(a.data(), c * m + rows + c, l, cfloat(avg, 0.0f));
      if (load > 0.0f) lane_set(a.data(), c * m + rows + j + c, l, load);
      for (index_t r = 0; r < nb; ++r)
        lane_set(b.data(), r * m + rows + c, l, steering_(c, r));
    }
  };
  auto factor = [&](index_t m, index_t lanes,
                    std::vector<LaneDoubles>& before) {
    if (p_.abft_tolerance > 0.0) {
      before.assign(static_cast<size_t>(j), LaneDoubles{});
      for (index_t c = 0; c < j; ++c)
        add_sq_norms(a.data(), c * m, m, 1, before[static_cast<size_t>(c)]);
    }
    kernels::qr_dense_lanes(a.data(), m, j, b.data(), nb);
    const auto mm = static_cast<std::uint64_t>(m);
    count_flops(static_cast<std::uint64_t>(lanes) *
                (qr_flops(mm, static_cast<std::uint64_t>(j)) +
                 qr_apply_flops(mm, static_cast<std::uint64_t>(j),
                                static_cast<std::uint64_t>(nb))));
  };
  auto solve = [&](index_t m, int lanes) {
    kernels::back_substitute_lanes(a.data(), 1, m, j, b.data(), 1, m, nb);
    count_flops(static_cast<std::uint64_t>(lanes) *
                back_substitute_flops(static_cast<std::uint64_t>(j),
                                      static_cast<std::uint64_t>(nb)));
  };

  for (const auto& [rows, members] : by_rows) {
    for (size_t g0 = 0; g0 < members.size(); g0 += kLanes) {
      const auto lanes = static_cast<index_t>(
          std::min<size_t>(kLanes, members.size() - g0));
      auto bin_of = [&](index_t l) { return members[g0 + static_cast<size_t>(l)]; };
      std::array<float, kLanes> scale{};
      std::array<linalg::MatrixCF, kLanes> w;

      index_t m = rows + j;
      a.assign(static_cast<size_t>(m * j * kLaneElem), 0.0f);
      b.assign(static_cast<size_t>(m * nb * kLaneElem), 0.0f);
      for (index_t l = 0; l < lanes; ++l) fill_data(m, bin_of(l), l);
      // Data scale: mean |x| of the pooled snapshots, in double.
      LaneDoubles abs_acc{};
      for (index_t c = 0; c < j; ++c)
        kernels::lane_abs_sum(a.data() + c * m * kLaneElem, rows,
                              abs_acc.data());
      const float bcw = static_cast<float>(p_.beam_constraint_wt);
      for (index_t l = 0; l < lanes; ++l) {
        scale[l] = static_cast<float>(abs_acc[l] /
                                      static_cast<double>(rows * j));
        fill_constraints(rows, m, l, bcw * scale[l], 0.0f);
      }
      factor(m, lanes, before);
      const LaneDoubles residual =
          p_.abft_tolerance > 0.0 ? column_norm_residual(before, a.data(), 1, m)
                                  : LaneDoubles{};
      const LaneVerdict v = first_verdict(
          lanes, residual, condition_estimate(a.data(), m + 1, j), p_, health_);
      if (v.solved > 0) {
        solve(m, v.solved);
        for (index_t l = 0; l < lanes; ++l)
          if (v.solve[l]) w[l] = lane_matrix(b.data(), j, nb, 1, m, l);
      }
      if (v.retried > 0) {
        m = rows + 2 * j;
        a.assign(static_cast<size_t>(m * j * kLaneElem), 0.0f);
        b.assign(static_cast<size_t>(m * nb * kLaneElem), 0.0f);
        for (index_t l = 0; l < lanes; ++l)
          if (v.retry[l]) {
            fill_data(m, bin_of(l), l);
            fill_constraints(rows, m, l, bcw * scale[l],
                             loading_for(scale[l]));
          }
        factor(m, v.retried, before);
        const LaneDoubles res2 =
            p_.abft_tolerance > 0.0
                ? column_norm_residual(before, a.data(), 1, m)
                : LaneDoubles{};
        const int solved =
            reject_broken_retries(v, lanes, res2, p_, j, nb, w, health_);
        if (solved > 0) {
          solve(m, solved);
          for (index_t l = 0; l < lanes; ++l)
            if (v.retry[l] && w[l].size() == 0)
              w[l] = lane_matrix(b.data(), j, nb, 1, m, l);
        }
      }
      for (index_t l = 0; l < lanes; ++l) {
        patch_bad_columns(w[l], quiescent, health_);
        normalize_columns(w[l]);
        out.weights[bin_of(l)] = std::move(w[l]);
      }
    }
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

  // Seed every R (and every unused lane) with diagonal loading so the very
  // first solve is well posed; the loading decays geometrically under the
  // forgetting factor.
  const index_t jj = p_.num_staggered_channels();
  const auto groups =
      (static_cast<index_t>(units_.size()) + kLanes - 1) / kLanes;
  r_.assign(static_cast<size_t>(groups * jj * jj * kLaneElem), 0.0f);
  const auto seed = static_cast<float>(p_.diagonal_loading);
  for (index_t g = 0; g < groups; ++g)
    for (index_t i = 0; i < jj; ++i)
      for (index_t l = 0; l < kLanes; ++l)
        lane_set(r_.data() + g * jj * jj * kLaneElem, i * jj + i, l,
                 cfloat(seed, 0.0f));
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
  PPSTAP_REQUIRE(per_unit_rows.size() == units_.size(),
                 "one training matrix per unit expected");
  const index_t n = p_.num_staggered_channels();
  for (const auto& x : per_unit_rows)
    PPSTAP_REQUIRE(x.cols() == n, "hard training rows must have 2J columns");
  const auto lambda = static_cast<float>(p_.forgetting);
  const bool gated = p_.abft_tolerance > 0.0;
  const index_t relems = n * n;
  const auto units = static_cast<index_t>(units_.size());

  Scratch& sc = scratch();
  LaneBuffer &work = sc.a, &x = sc.b, &work_in = sc.c, &x_in = sc.d;
  std::vector<LaneDoubles>& before = sc.before;
  for (index_t u0 = 0; u0 < units; u0 += kLanes) {
    const index_t lanes = std::min(kLanes, units - u0);
    const auto& rows_of = [&](index_t l) -> const linalg::MatrixCF& {
      return per_unit_rows[static_cast<size_t>(u0 + l)];
    };
    // NaN/Inf screen: a corrupted block folded into the recursive R would
    // contaminate every later CPI (the forgetting factor never fully
    // forgets a NaN). Its lane skips this update, ledgered. Lanes with
    // fewer rows than the group's widest block append zero rows.
    std::array<bool, kLanes> live{};
    index_t k = 0;
    int nlive = 0;
    for (index_t l = 0; l < lanes; ++l) {
      live[l] = linalg::all_finite(rows_of(l));
      if (!live[l]) {
        ++health_.nonfinite_training_blocks;
        continue;
      }
      k = std::max(k, rows_of(l).rows());
      ++nlive;
    }
    if (nlive == 0) continue;

    // Rows enter conjugated (the beamformer applies w^H x; see the easy
    // path for the convention note), column-major k x n.
    x.assign(static_cast<size_t>(k * n * kLaneElem), 0.0f);
    for (index_t l = 0; l < lanes; ++l) {
      if (!live[l]) continue;
      const auto& rows = rows_of(l);
      for (index_t c = 0; c < n; ++c)
        for (index_t i = 0; i < rows.rows(); ++i)
          lane_set(x.data(), c * k + i, l, std::conj(rows(i, c)));
    }
    // Fade the group's factors and append. A full group of clean lanes
    // updates in place; otherwise (a screened lane, unused lanes, or the
    // ABFT gate, which may reject a lane) a working copy is updated and
    // only the lanes that take the update are copied back, so the others
    // keep their previous R — and unused lanes their seed, never fading
    // toward denormals.
    float* r = r_.data() + u0 / kLanes * relems * kLaneElem;
    const bool in_place = nlive == kLanes && !gated;
    if (!in_place) work.assign(r, r + relems * kLaneElem);
    float* f = in_place ? r : work.data();
    for (index_t i = 0; i < n; ++i)
      for (float* e = f + (i * n + i) * kLaneElem; e < f + (i + 1) * n * kLaneElem;
           ++e)
        *e *= lambda;
    std::uint64_t flops = 0;
    for (index_t l = 0; l < lanes; ++l)
      if (live[l])
        flops += static_cast<std::uint64_t>(n * (n + 1)) +
                 qr_append_flops(static_cast<std::uint64_t>(rows_of(l).rows()),
                                 static_cast<std::uint64_t>(n), 0);
    count_flops(flops);

    if (gated) {
      // ABFT residual gate: the append must preserve the column
      // norms of [faded R; X]. A corrupted update would contaminate every
      // later CPI through the forgetting recursion, so verify, recompute
      // the failing lanes once, and on persistent failure discard their
      // update rather than fold it in.
      before.assign(static_cast<size_t>(n), LaneDoubles{});
      for (index_t c = 0; c < n; ++c) {
        add_sq_norms(f, c, c + 1, n, before[static_cast<size_t>(c)]);
        add_sq_norms(x.data(), c * k, k, 1, before[static_cast<size_t>(c)]);
      }
      work_in = work;
      x_in = x;
    }
    kernels::qr_append_lanes(f, n, x.data(), k, nullptr, nullptr, 0);
    if (gated) {
      const LaneDoubles res = column_norm_residual(before, f, n, 1);
      std::array<bool, kLanes> retry{};
      bool any = false;
      for (index_t l = 0; l < lanes; ++l)
        if (live[l] && res[l] > p_.abft_tolerance) {
          ++health_.qr_residual_retries;
          retry[l] = any = true;
          count_flops(qr_append_flops(
              static_cast<std::uint64_t>(rows_of(l).rows()),
              static_cast<std::uint64_t>(n), 0));
        }
      if (any) {
        kernels::qr_append_lanes(work_in.data(), n, x_in.data(), k, nullptr,
                                 nullptr, 0);
        const LaneDoubles res2 =
            column_norm_residual(before, work_in.data(), n, 1);
        for (index_t l = 0; l < lanes; ++l) {
          if (!retry[l]) continue;
          if (res2[l] > p_.abft_tolerance) {
            ++health_.qr_residual_rejects;
            live[l] = false;  // keep the previous R; skip one update
          } else {
            copy_lane(work_in.data(), f, relems, l);
          }
        }
      }
    }
    if (!in_place)
      for (index_t l = 0; l < lanes; ++l)
        if (live[l]) copy_lane(f, r, relems, l);
  }
}

std::vector<linalg::MatrixCF> HardWeightComputer::compute() const {
  const index_t j = p_.num_channels;
  const index_t n = p_.num_staggered_channels();
  const index_t nb = p_.num_beams;
  const index_t relems = n * n;
  const auto units = static_cast<index_t>(units_.size());
  std::vector<linalg::MatrixCF> out(units_.size());

  Scratch& sc = scratch();
  LaneBuffer &work = sc.a, &x = sc.b, &rhs = sc.c, &xrhs = sc.d;
  std::vector<LaneDoubles>& before = sc.before;
  // Fold k constraint/loading rows (already in x, column-major k x n, with
  // [S; 0] in xrhs) into a copy of the group's R, carrying the M steering
  // columns: [R; X] w ~ [0; xrhs]. A dense QR of [R; C] would spend most of
  // its work on R's structural zeros.
  auto fold = [&](const float* r, index_t k, int lanes) {
    work.assign(r, r + relems * kLaneElem);
    rhs.assign(static_cast<size_t>(n * nb * kLaneElem), 0.0f);
    if (p_.abft_tolerance > 0.0) {
      before.assign(static_cast<size_t>(n), LaneDoubles{});
      for (index_t c = 0; c < n; ++c) {
        add_sq_norms(work.data(), c, c + 1, n, before[static_cast<size_t>(c)]);
        add_sq_norms(x.data(), c * k, k, 1, before[static_cast<size_t>(c)]);
      }
    }
    kernels::qr_append_lanes(work.data(), n, x.data(), k, rhs.data(),
                             xrhs.data(), nb);
    count_flops(static_cast<std::uint64_t>(lanes) *
                qr_append_flops(static_cast<std::uint64_t>(k),
                                static_cast<std::uint64_t>(n),
                                static_cast<std::uint64_t>(nb)));
    return p_.abft_tolerance > 0.0
               ? column_norm_residual(before, work.data(), n, 1)
               : LaneDoubles{};
  };
  auto solve = [&](int lanes) {
    kernels::back_substitute_lanes(work.data(), n, 1, n, rhs.data(), nb, 1,
                                   nb);
    count_flops(static_cast<std::uint64_t>(lanes) *
                back_substitute_flops(static_cast<std::uint64_t>(n),
                                      static_cast<std::uint64_t>(nb)));
  };

  for (index_t u0 = 0; u0 < units; u0 += kLanes) {
    const index_t lanes = std::min(kLanes, units - u0);
    const float* r = r_.data() + u0 / kLanes * relems * kLaneElem;
    std::array<float, kLanes> scale{};
    std::array<cfloat, kLanes> stag_phase{};
    std::array<linalg::MatrixCF, kLanes> w;
    for (index_t l = 0; l < lanes; ++l) {
      // Relative phase of the second stagger window for a target in this
      // bin: the window is delayed by `stagger` PRIs, i.e.
      // exp(-j 2 pi bin s / N) (Appendix B's frequency constraint factor).
      const double phi = -2.0 * std::numbers::pi *
                         static_cast<double>(units_[static_cast<size_t>(u0 + l)].bin) *
                         static_cast<double>(p_.stagger) /
                         static_cast<double>(p_.num_pulses);
      stag_phase[l] = cfloat(static_cast<float>(std::cos(phi)),
                             static_cast<float>(std::sin(phi)));
    }
    // Data-scale proxy for the constraint rows: mean magnitude of the
    // retained triangular factor, in double from |r|^2 (no overflow for
    // float input). Scaling the constraint with the data keeps the
    // beam-shape/clutter-null compromise (Appendix A's k) independent of
    // the absolute signal level.
    LaneDoubles abs_acc{};
    for (index_t i = 0; i < n; ++i)
      kernels::lane_abs_sum(r + (i * n + i) * kLaneElem, n - i,
                            abs_acc.data());
    for (index_t l = 0; l < lanes; ++l)
      scale[l] = static_cast<float>(abs_acc[l] /
                                    static_cast<double>(n * (n + 1) / 2));
    // Constraint rows C = avg [I_J | stag_phase I_J] against S: the pair of
    // staggered subweights, combined with the bin's stagger phase, must
    // reproduce the steering vector; the retry appends load * I_2J.
    auto fill = [&](index_t k, index_t l, bool loaded) {
      const float avg = static_cast<float>(p_.beam_constraint_wt) * scale[l];
      for (index_t row = 0; row < j; ++row) {
        lane_set(x.data(), row * k + row, l, cfloat(avg, 0.0f));
        lane_set(x.data(), (j + row) * k + row, l, avg * stag_phase[l]);
        for (index_t c = 0; c < nb; ++c)
          lane_set(xrhs.data(), c * k + row, l, steering_(row, c));
      }
      if (loaded)
        for (index_t c = 0; c < n; ++c)
          lane_set(x.data(), c * k + j + c, l,
                   cfloat(loading_for(scale[l]), 0.0f));
    };
    auto reset = [&](index_t k) {
      x.assign(static_cast<size_t>(k * n * kLaneElem), 0.0f);
      xrhs.assign(static_cast<size_t>(k * nb * kLaneElem), 0.0f);
    };

    reset(j);
    for (index_t l = 0; l < lanes; ++l) fill(j, l, false);
    const LaneDoubles residual = fold(r, j, static_cast<int>(lanes));
    const LaneVerdict v = first_verdict(
        lanes, residual, condition_estimate(work.data(), n + 1, n), p_,
        health_);
    if (v.solved > 0) {
      solve(v.solved);
      for (index_t l = 0; l < lanes; ++l)
        if (v.solve[l]) w[l] = lane_matrix(rhs.data(), n, nb, nb, 1, l);
    }
    if (v.retried > 0) {
      reset(j + n);
      for (index_t l = 0; l < lanes; ++l)
        if (v.retry[l]) fill(j + n, l, true);
      const LaneDoubles res2 = fold(r, j + n, v.retried);
      const int solved =
          reject_broken_retries(v, lanes, res2, p_, n, nb, w, health_);
      if (solved > 0) {
        solve(solved);
        for (index_t l = 0; l < lanes; ++l)
          if (v.retry[l] && w[l].size() == 0)
            w[l] = lane_matrix(rhs.data(), n, nb, nb, 1, l);
      }
    }
    for (index_t l = 0; l < lanes; ++l) {
      // Quiescent fallback for this unit: both staggered subweights carry
      // the steering vector, the second rotated back by the bin's stagger
      // phase so the pair combines coherently under the constraint.
      linalg::MatrixCF quiescent(n, nb);
      for (index_t c = 0; c < nb; ++c)
        for (index_t row = 0; row < j; ++row) {
          quiescent(row, c) = steering_(row, c);
          quiescent(j + row, c) = std::conj(stag_phase[l]) * steering_(row, c);
        }
      normalize_columns(quiescent);
      patch_bad_columns(w[l], quiescent, health_);
      normalize_columns(w[l]);
      out[static_cast<size_t>(u0 + l)] = std::move(w[l]);
    }
  }
  return out;
}

void HardWeightComputer::save(std::ostream& os) const {
  const std::uint64_t count = units_.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  const index_t n = p_.num_staggered_channels();
  for (index_t u = 0; u < static_cast<index_t>(count); ++u)
    linalg::write_matrix(
        os, lane_matrix(r_.data() + u / kLanes * n * n * kLaneElem, n, n, n, 1,
                        u % kLanes));
  PPSTAP_REQUIRE(os.good(), "hard weight state write failed");
}

void HardWeightComputer::restore(std::istream& is) {
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  PPSTAP_REQUIRE(is.good() && count == units_.size(),
                 "hard weight state unit count mismatch");
  const index_t n = p_.num_staggered_channels();
  LaneBuffer rs = r_;
  for (index_t u = 0; u < static_cast<index_t>(count); ++u) {
    const auto r = linalg::read_matrix<cfloat>(is);
    PPSTAP_REQUIRE(r.rows() == n && r.cols() == n,
                   "hard weight state shape mismatch");
    float* g = rs.data() + u / kLanes * n * n * kLaneElem;
    for (index_t i = 0; i < n; ++i)
      for (index_t c = 0; c < n; ++c) lane_set(g, i * n + c, u % kLanes, r(i, c));
  }
  r_ = std::move(rs);
}

}  // namespace ppstap::stap
