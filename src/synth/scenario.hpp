// Synthetic radar scenes standing in for live RTMCARM CPI data.
//
// The physics: a side-looking airborne radar sees ground clutter whose
// Doppler frequency is proportional to sin(azimuth) — the classic clutter
// "ridge" in the angle-Doppler plane. STAP's whole purpose is to null that
// ridge while preserving gain on targets displaced from it. We synthesize
// the ridge as a sum of independent clutter patches, add thermal noise and
// point targets, and (optionally) convolve the scene with the transmit
// chirp along range so pulse compression has real work to do. Each patch
// and target is a K-sample range sequence times a fixed (channel, pulse)
// signature, so the circular convolution acts on those C + T sequences
// before the signatures spread them over the cube — the same scene as
// convolving all J·N columns of it, at a fraction of the work.
//
// Patch geometry is fixed across CPIs while patch amplitudes redraw each
// CPI: the clutter *statistics* are stationary (which the paper's
// train-on-previous-CPIs scheme requires) but realizations differ.
//
// Every random draw sits at a closed-form offset of the CPI's SplitMix64
// stream: clutter, then jammers, then noise, one cnormal() = two draws
// each. The noise, most of the draws, goes through kernels::add_cnormal,
// the vectorized fixed-draw sampler; a CPI is one serial pass.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "cube/cube.hpp"

namespace ppstap::synth {

/// A point target at a given range cell, normalized Doppler and azimuth.
struct Target {
  index_t range_cell = 0;
  double doppler_norm = 0.25;  ///< cycles per PRI in [-0.5, 0.5)
  double azimuth_rad = 0.0;
  double snr_db = 20.0;  ///< per-element, per-pulse SNR before any gain
};

/// A broadband noise jammer: spatially coherent (fixed azimuth), white
/// across pulses and range — it fills every Doppler bin at one angle, the
/// classic case where spatial-only nulling suffices (paper §1:
/// "interference").
struct Jammer {
  double azimuth_rad = 0.0;
  double jnr_db = 30.0;  ///< jammer-to-noise ratio per element sample
};

/// Ground clutter ridge model.
struct ClutterModel {
  index_t num_patches = 32;   ///< discrete azimuth patches across the ridge
  double cnr_db = 40.0;       ///< total clutter-to-noise ratio per sample
  double doppler_slope = 1.0; ///< beta: f = 0.5 * beta * sin(azimuth)
  double azimuth_span_rad = 3.14159265358979 * 2.0 / 3.0;  ///< +-60 degrees
};

struct ScenarioParams {
  index_t num_range = 512;     ///< K
  index_t num_channels = 16;   ///< J
  index_t num_pulses = 128;    ///< N
  double noise_power = 1.0;
  ClutterModel clutter;
  std::vector<Target> targets;
  std::vector<Jammer> jammers;
  index_t chirp_length = 32;   ///< transmit pulse extent in range cells;
                               ///< 0 disables waveform spreading
  /// Transmit beam cycling (paper §3: five 25-degree transmit beams,
  /// 20 degrees apart, revisited in turn): if non-empty, CPI i is
  /// illuminated by the beam centered at transmit_azimuths[i % size()]
  /// with a cos^2 mainlobe of transmit_beam_width_rad and a -40 dB
  /// sidelobe floor; clutter patches and targets are attenuated by the
  /// two-way transmit gain toward their azimuth. Empty = omnidirectional.
  std::vector<double> transmit_azimuths;
  double transmit_beam_width_rad = 25.0 * 3.14159265358979 / 180.0;
  std::uint64_t seed = 0x5741505354ULL;  // "STAPW"
};

/// Deterministic CPI stream generator: generate(i) always returns the same
/// cube for the same (params, i), so distributed consumers can re-derive
/// their partition of the input independently.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(ScenarioParams params);

  const ScenarioParams& params() const { return params_; }

  /// The transmit replica used to spread the scene (empty if disabled).
  const std::vector<cfloat>& replica() const { return replica_; }

  /// Generate CPI number `cpi_index` as a K x J x N cube, pulses unit
  /// stride (the corner-turned layout of the paper's interface boards).
  cube::CpiCube generate(index_t cpi_index) const;

  /// generate() into `out`, reusing its storage when the shape already
  /// matches (a front end cycling a few cube buffers allocates nothing per
  /// CPI). Bit-identical to generate(cpi_index).
  void generate(index_t cpi_index, cube::CpiCube& out) const;

  /// Amplitude gain of the transmit beam active on CPI `cpi_index` toward
  /// `azimuth_rad` (1.0 when transmit cycling is disabled).
  double transmit_gain(index_t cpi_index, double azimuth_rad) const;

 private:
  ScenarioParams params_;
  std::vector<cfloat> replica_;
  // Fixed patch geometry: per-patch spatial (J) and temporal (N) responses
  // and amplitude scale.
  std::vector<std::vector<cfloat>> patch_spatial_;
  std::vector<std::vector<cfloat>> patch_temporal_;
  double patch_sigma_ = 0.0;

  std::vector<double> patch_azimuth_;

  // Per-CPI invariants of the other terms, built once.
  std::vector<std::vector<cfloat>> jammer_spatial_;
  std::vector<double> jammer_sigma_;
  std::vector<std::vector<cfloat>> target_spatial_;
  std::vector<std::vector<cfloat>> target_temporal_;
  std::vector<double> target_amplitude_;  ///< before the transmit gain
  /// The range response clutter and targets pass through: the replica, or
  /// a single unit tap without waveform spreading.
  std::vector<cfloat> range_taps_;

  // Each adds its term to the whole cube; `rng` is the CPI's stream,
  // advanced past the term's draws.
  void add_clutter(cube::CpiCube& cpi, Rng& rng, index_t cpi_index) const;
  void add_targets(cube::CpiCube& cpi, index_t cpi_index) const;
  void add_jammers(cube::CpiCube& cpi, Rng& rng) const;
  void add_noise(cube::CpiCube& cpi, Rng& rng) const;
};

}  // namespace ppstap::synth
