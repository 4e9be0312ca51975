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
// Doppler node share the same kernel. A parallel node filters its rows of
// the shared input cube in place — no slab copy — and packs the staggered
// output for the downstream tasks with the range-major gathers below.
#pragma once

#include <memory>
#include <span>
#include <vector>

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

  /// Filter rows [k0, k0 + kl) of a full K x J x N cube, read in place,
  /// into `out` (kl x 2J x N; its storage is reused when the shape already
  /// matches). Bit-identical to filter() of a copied slab with
  /// k_offset = k0.
  void filter_rows(const cube::CpiCube& full, index_t k0, index_t kl,
                   cube::CpiCube& out) const;

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

  /// parseval_check for filter_rows(): `stag` holds rows
  /// [k0, k0 + stag.extent(0)) of the full cube `full`.
  bool parseval_check_rows(const cube::CpiCube& full, index_t k0,
                           const cube::CpiCube& stag, double tol) const;

 private:
  // The shared bodies: local row k of the output reads row `row0 + k` of
  // `raw` and takes the range gain of global cell `k_gain0 + k`.
  void filter_into(const cube::CpiCube& raw, index_t row0, index_t kl,
                   index_t k_gain0, cube::CpiCube& out) const;
  bool check_rows(const cube::CpiCube& raw, index_t row0,
                  const cube::CpiCube& stag, index_t k_gain0,
                  double tol) const;

  StapParams p_;
  std::vector<float> window_;
  struct PlanHolder;  // hides dsp::FftPlan to keep this header light
  std::shared_ptr<const PlanHolder> plan_;
};

/// One row of a Doppler redistribution frame: channels [0, nch) of the
/// staggered slab at local range row `k` and Doppler bin `bin` land at frame
/// offset `row * nch`.
struct PackRow {
  index_t k = 0;
  index_t bin = 0;
  index_t row = 0;
};

/// A weight task's training block: Doppler bin `bin` sampled at the global
/// range cells `cells`, in frame order.
struct TrainingBlock {
  index_t bin = 0;
  std::span<const index_t> cells;
};

/// Rows of a beamforming frame (Fig. 8): (bin, range, channel) order over
/// `bins` and the slab's `kl` range rows. Returned range-major.
std::vector<PackRow> beamform_pack_rows(std::span<const index_t> bins,
                                        index_t kl);

/// Rows of a weight task's training frame: block after block, the block's
/// cells that fall inside the slab [k0, k0 + kl), in cell order. Returned
/// range-major.
std::vector<PackRow> training_pack_rows(std::span<const TrainingBlock> blocks,
                                        index_t k0, index_t kl);

/// Gather `rows` of the staggered slab into `out`, which holds exactly
/// rows.size() * nch elements — a frame's own payload, written in place.
/// The rows are visited in the order given — range-major from the builders
/// above — so each range row's 2J Doppler lines are read while
/// cache-resident instead of the whole slab being swept once per bin.
void pack_rows(const cube::CpiCube& stag, std::span<const PackRow> rows,
               index_t nch, std::span<cfloat> out);

}  // namespace ppstap::stap
