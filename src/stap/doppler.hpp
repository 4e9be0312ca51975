// Doppler filter processing (paper §5.1).
//
// For every range cell and channel, two overlapping windows of
// (N - stagger) pulses separated by `stagger` pulses are windowed,
// zero-padded to N, and FFT'd — the PRI-stagger technique. The output is
// the "staggered CPI": a K x 2J x N cube in which channels [0, J) carry the
// first window's Doppler spectra and channels [J, 2J) the second window's.
//
// The function operates on any range slab (the task is embarrassingly
// parallel along K, Fig. 5), so the sequential pipeline and each parallel
// Doppler node share the same kernel.
#pragma once

#include <memory>

#include "cube/cube.hpp"
#include "stap/params.hpp"

namespace ppstap::stap {

/// Doppler filtering state reusable across CPIs (FFT plan + window).
class DopplerFilter {
 public:
  explicit DopplerFilter(const StapParams& p);

  /// Filter a raw slab (K_local x J x N, pulses unit stride) into a
  /// staggered slab (K_local x 2J x N, Doppler bins unit stride).
  /// `k_offset` is the slab's first global range cell — needed only when
  /// range correction is enabled, whose gain depends on absolute range.
  cube::CpiCube filter(const cube::CpiCube& raw, index_t k_offset = 0) const;

  /// The range-correction amplitude gain applied to global range cell `k`
  /// (1.0 when correction is disabled).
  float range_gain(index_t k) const;

  /// ABFT invariant: two checksums per FFT line. For every
  /// (range cell, channel, stagger window), Parseval's theorem — the
  /// Doppler-domain energy sum |X[n]|^2 must equal
  /// N * sum |window * gain * x[i]|^2 (forward transforms are unscaled) —
  /// and the inverse DFT at sample 0 — sum X[n] must equal
  /// N * window[0] * gain * x[0], relative to the line's largest |X[n]|.
  /// The energy check bounds large errors; the linear one catches a
  /// corrupted element too small to move the line's energy. Both sides
  /// accumulate in double, so `tol` (relative) only has to absorb the
  /// kernel's float rounding. Returns false as soon as any line deviates
  /// or holds a non-finite value.
  bool parseval_check(const cube::CpiCube& raw, const cube::CpiCube& stag,
                      index_t k_offset, double tol) const;

 private:
  StapParams p_;
  std::vector<float> window_;
  struct PlanHolder;  // hides dsp::FftPlan to keep this header light
  std::shared_ptr<const PlanHolder> plan_;
};

}  // namespace ppstap::stap
