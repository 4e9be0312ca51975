// Parameters of the PRI-staggered post-Doppler STAP algorithm.
//
// Defaults reproduce the paper's experiment configuration (§7): K = 512
// range cells, J = 16 channels, N = 128 pulses, M = 6 receive beams,
// N_easy = 72, N_hard = 56, PRI stagger of 3 pulses, 6 hard range segments,
// Hanning Doppler window, forgetting factor 0.6 (Appendix B).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "dsp/window.hpp"

namespace ppstap::stap {

struct StapParams {
  // --- data cube geometry -------------------------------------------------
  index_t num_range = 512;     ///< K: range cells per CPI
  index_t num_channels = 16;   ///< J: receive channels
  index_t num_pulses = 128;    ///< N: pulses per CPI (= Doppler bins)
  index_t num_beams = 6;       ///< M: receive beams formed per transmit beam

  // --- Doppler filtering ---------------------------------------------------
  index_t stagger = 3;         ///< PRI-stagger separation in pulses
  dsp::WindowKind window = dsp::WindowKind::kHanning;
  /// Range correction (paper §5.1): scale each range cell by
  /// ((range_start_cells + k) / range_start_cells)^(range_correction_exp/2)
  /// in amplitude, compensating the R^-exp propagation power loss so the
  /// CFAR sees range-independent statistics. Off by default (the synthetic
  /// scene generator does not model propagation loss).
  bool range_correction = false;
  double range_start_cells = 64.0;   ///< standoff range of cell 0, in cells
  double range_correction_exp = 4.0; ///< two-way power-law exponent

  // --- easy / hard split ---------------------------------------------------
  /// Hard Doppler bins: the num_hard/2 bins on each side of zero Doppler
  /// (where mainbeam clutter competes). All remaining bins are easy.
  index_t num_hard = 56;

  // --- weight computation --------------------------------------------------
  index_t num_segments = 6;    ///< independent range segments, hard bins
  double beam_constraint_wt = 0.5;  ///< k in Appendix A (mainbeam constraint)
  double forgetting = 0.6;     ///< exponential forgetting, hard recursion
  index_t easy_history = 3;    ///< preceding CPIs pooled for easy training
  index_t easy_samples_per_cpi = 32;  ///< training range cells per CPI (easy)
  index_t hard_samples_per_segment = 30;  ///< cells per segment per update
  double diagonal_loading = 1e-3;  ///< seed for the recursive R (hard bins)
  /// Numerical-health guard: when the R-diagonal condition estimate of a
  /// weight solve exceeds this, the solve is retried once with diagonal
  /// loading appended at data scale (and ledgered); weights that still come
  /// out non-finite fall back to the quiescent (steering) beamformer.
  double condition_threshold = 1e6;
  /// ABFT residual gate on the weight-path QR (PR 5): when > 0, every
  /// factorization's column-norm residual (orthogonal transforms preserve
  /// column norms) is checked against this relative tolerance. A failing
  /// fresh QR is retried once through the diagonal-loading path; a failing
  /// recursive row-append update is recomputed once and, if still off,
  /// rejected so the corruption cannot enter the carried R. 0 disables the
  /// gate (the default — the pipeline sets it when its integrity layer is
  /// enabled).
  double abft_tolerance = 0.0;

  // --- beam set ------------------------------------------------------------
  double beam_center_rad = 0.0;
  double beam_span_rad = 25.0 * 3.14159265358979 / 180.0;
  /// Transmit beam positions cycled across CPIs (paper §3: five 25-degree
  /// transmit beams revisited at 1-2 Hz). CPI i illuminates position
  /// i % num_beam_positions, and adaptive weight training draws only on
  /// past looks at the *same* position — the temporal dependency stretches
  /// to num_beam_positions CPIs. 1 = a single staring beam.
  index_t num_beam_positions = 1;

  // --- intra-task parallelism ----------------------------------------------
  /// Threads per kernel invocation (paper SS8 future work: the Paragon nodes
  /// had three processors on shared memory). Outputs are bitwise identical
  /// and flop totals are aggregated across workers for any value. The
  /// default 1 can be raised per process with PPSTAP_KERNEL_THREADS (see
  /// kernels/dispatch.hpp); an explicit non-default value here wins.
  index_t intra_task_threads = 1;

  // --- CFAR ----------------------------------------------------------------
  index_t cfar_ref = 8;     ///< reference cells on each side of the test cell
  index_t cfar_guard = 2;   ///< guard cells on each side
  double cfar_pfa = 1e-6;   ///< design probability of false alarm

  // --- derived -------------------------------------------------------------
  index_t num_easy() const { return num_pulses - num_hard; }
  index_t num_staggered_channels() const { return 2 * num_channels; }
  index_t window_length() const { return num_pulses - stagger; }

  /// True when Doppler bin `bin` (0-based, DC at 0) is a hard bin: the
  /// num_hard/2 bins nearest zero Doppler on either side (MATLAB reference:
  /// bins 1..numHardDop/2 and num_doppler-numHardDop/2+1..num_doppler).
  bool is_hard_bin(index_t bin) const {
    return bin < num_hard / 2 || bin >= num_pulses - (num_hard - num_hard / 2);
  }

  /// Global bin indices of the easy (resp. hard) bins, ascending.
  std::vector<index_t> easy_bins() const;
  std::vector<index_t> hard_bins() const;

  /// Half-open [begin, end) range-cell bounds of hard segment `s` (even
  /// split of K; the paper used boundaries {0,75,...,512} on K = 512).
  index_t segment_begin(index_t s) const;
  index_t segment_end(index_t s) const;

  /// CA-CFAR threshold multiplier achieving cfar_pfa with `num_ref` cells of
  /// exponentially distributed noise power: W * (PFA^(-1/W) - 1).
  double cfar_scale(index_t num_ref) const;

  /// Throws ppstap::Error if the configuration is inconsistent.
  void validate() const;

  /// A reduced-size configuration for fast tests (K=64, J=4, N=16, ...).
  static StapParams small_test();
};

}  // namespace ppstap::stap
