// Tests for the beam pattern / SINR analysis utilities: steering-response
// identities, covariance estimation, SINR against known optimal
// beamformers, and the Appendix-A beam-shape claims on trained weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "linalg/qr.hpp"
#include "stap/analysis.hpp"
#include "stap/sequential.hpp"
#include "stap/weights.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap::stap {
namespace {

linalg::MatrixCF column_from(std::span<const cfloat> v) {
  linalg::MatrixCF m(static_cast<index_t>(v.size()), 1);
  for (size_t i = 0; i < v.size(); ++i)
    m(static_cast<index_t>(i), 0) = v[i];
  return m;
}

TEST(AngleResponse, SteeringWeightPeaksAtItsOwnAngle) {
  const index_t j = 12;
  const double look = 0.3;
  auto w = column_from(synth::spatial_steering(j, look));
  std::vector<double> az;
  for (int i = -60; i <= 60; ++i)
    az.push_back(static_cast<double>(i) * std::numbers::pi / 180.0);
  auto resp = angle_response(w, 0, az);
  size_t argmax = 0;
  for (size_t i = 1; i < resp.size(); ++i)
    if (resp[i] > resp[argmax]) argmax = i;
  EXPECT_NEAR(az[argmax], look, 2.0 * std::numbers::pi / 180.0);
  // Peak response of a matched steering weight is J^2.
  EXPECT_NEAR(resp[argmax], static_cast<double>(j * j),
              0.05 * static_cast<double>(j * j));
}

TEST(AngleResponse, InvalidBeamThrows) {
  linalg::MatrixCF w(4, 2);
  std::vector<double> az = {0.0};
  EXPECT_THROW(angle_response(w, 2, az), Error);
}

TEST(AngleDopplerResponse, StaggeredPairPeaksAtConstraintPoint) {
  // A weight pair built directly from steering + stagger phase must peak
  // at its design (azimuth, Doppler).
  StapParams p = StapParams::small_test();
  const index_t j = p.num_channels;
  const double f0 = 0.25;
  const double az0 = 0.2;
  const double phi = -2.0 * std::numbers::pi * f0 *
                     static_cast<double>(p.stagger);
  linalg::MatrixCF w(2 * j, 1);
  const auto a = synth::spatial_steering(j, az0);
  for (index_t c = 0; c < j; ++c) {
    w(c, 0) = a[static_cast<size_t>(c)];
    // Second half carries conj(stagger phase) so responses add coherently.
    w(j + c, 0) = a[static_cast<size_t>(c)] *
                  cfloat(static_cast<float>(std::cos(phi)),
                         static_cast<float>(-std::sin(phi)));
  }
  std::vector<double> azs, fs;
  for (int i = -8; i <= 8; ++i) azs.push_back(0.05 * i);
  for (int i = -8; i <= 8; ++i) fs.push_back(0.0625 * i);
  auto resp = angle_doppler_response(w, 0, p, azs, fs);
  double max_resp = 0.0;
  for (double r : resp) max_resp = std::max(max_resp, r);
  // The two-tap stagger pair is periodic in Doppler (period 1/stagger), so
  // the peak is not unique; assert the design point attains it.
  const auto design = angle_doppler_response(
      w, 0, p, std::vector<double>{az0}, std::vector<double>{f0});
  EXPECT_GT(design[0], 0.98 * max_resp);
  // And a point far from the design ridge is well below the peak.
  const auto off = angle_doppler_response(
      w, 0, p, std::vector<double>{-az0}, std::vector<double>{f0});
  EXPECT_LT(off[0], 0.2 * max_resp);
}

TEST(SampleCovariance, MatchesKnownStructure) {
  // Snapshots x = s * v + n: covariance approaches P v v^H + sigma^2 I.
  const index_t j = 6;
  const double power = 9.0;
  Rng rng(3);
  auto v = synth::spatial_steering(j, 0.4);
  linalg::MatrixCF x(4000, j);
  for (index_t r = 0; r < x.rows(); ++r) {
    const cdouble s = rng.cnormal() * 3.0;
    for (index_t c = 0; c < j; ++c) {
      const cdouble n = rng.cnormal() * 0.1;
      const auto& vc = v[static_cast<size_t>(c)];
      const cdouble val = s * cdouble(vc.real(), vc.imag()) + n;
      x(r, c) = cfloat(static_cast<float>(val.real()),
                       static_cast<float>(val.imag()));
    }
  }
  auto r = sample_covariance(x, 0.0f);
  // Hermitian.
  for (index_t i = 0; i < j; ++i)
    for (index_t c = 0; c < j; ++c)
      EXPECT_NEAR(std::abs(r(i, c) - std::conj(r(c, i))), 0.0, 1e-3);
  // R_{01} ~ power * v0 conj(v1).
  const cfloat expected =
      static_cast<float>(power) * v[0] * std::conj(v[1]);
  EXPECT_NEAR(std::abs(r(0, 1) - expected), 0.0, 0.06 * power);
  // Diagonal ~ power + noise.
  EXPECT_NEAR(r(0, 0).real(), power + 0.01, 0.06 * power);
}

TEST(Sinr, MatchedWeightInWhiteNoiseEqualsArrayGain) {
  const index_t j = 8;
  auto v = synth::spatial_steering(j, 0.0);
  auto w = column_from(v);
  auto rin = linalg::MatrixCF::identity(j, cfloat(1.0f, 0.0f));
  // |w^H v|^2 / (w^H I w) = J^2 / J = J.
  EXPECT_NEAR(sinr(w, 0, rin, v), static_cast<double>(j), 1e-4);
}

TEST(Sinr, OptimalBeamformerBeatsQuiescentAgainstInterference) {
  // Against R = I + P u u^H, the MVDR weight w = R^{-1} v achieves the
  // maximum SINR; check our sinr() ranks it above quiescent and that the
  // improvement_factor agrees with the two sinr() calls.
  const index_t j = 8;
  const double p_int = 100.0;
  auto v = synth::spatial_steering(j, 0.0);
  // 0.2 rad puts the interferer on a sidelobe peak of the quiescent
  // pattern (|v^H u|^2 ~ 4), so adaptation has something to gain.
  auto u = synth::spatial_steering(j, 0.2);
  linalg::MatrixCF rin = linalg::MatrixCF::identity(j, cfloat(1.0f, 0.0f));
  for (index_t a = 0; a < j; ++a)
    for (index_t b = 0; b < j; ++b)
      rin(a, b) += static_cast<float>(p_int) * u[static_cast<size_t>(a)] *
                   std::conj(u[static_cast<size_t>(b)]);

  // w = R^{-1} v via least squares on the Hermitian system.
  linalg::MatrixCF rhs = column_from(v);
  auto w = linalg::least_squares(rin, rhs);

  const double s_opt = sinr(w, 0, rin, v);
  auto wq = column_from(v);
  const double s_q = sinr(wq, 0, rin, v);
  EXPECT_GT(s_opt, 3.0 * s_q);
  EXPECT_NEAR(improvement_factor(w, 0, rin, std::span<const cfloat>(v)),
              s_opt / s_q, 1e-6 * s_opt / s_q);
}

TEST(Sinr, DimensionMismatchThrows) {
  linalg::MatrixCF w(4, 1);
  auto rin = linalg::MatrixCF::identity(3, cfloat(1.0f, 0.0f));
  auto v = synth::spatial_steering(4, 0.0);
  EXPECT_THROW(sinr(w, 0, rin, v), Error);
}

TEST(NullDepth, TrainedWeightsNullTheInterfererPreservingMainbeam) {
  // End-to-end Appendix-A property on real EasyWeightComputer output.
  StapParams p;
  p.num_channels = 16;
  p.num_beams = 1;
  p.beam_span_rad = 0.0;
  const index_t j = p.num_channels;
  const double int_az = 0.45;
  auto steering = synth::steering_matrix(j, 1, 0.0, 0.0);
  auto v_int = synth::spatial_steering(j, int_az);

  Rng rng(17);
  linalg::MatrixCF x(96, j);
  for (index_t r = 0; r < x.rows(); ++r) {
    const cdouble amp = rng.cnormal() * 31.6;
    for (index_t c = 0; c < j; ++c) {
      const cdouble n = rng.cnormal();
      const auto& vc = v_int[static_cast<size_t>(c)];
      const cdouble val = amp * cdouble(vc.real(), vc.imag()) + n;
      x(r, c) = cfloat(static_cast<float>(val.real()),
                       static_cast<float>(val.imag()));
    }
  }
  EasyWeightComputer comp(p, steering, {p.easy_bins()[0]});
  const auto quiescent = comp.compute();
  std::vector<linalg::MatrixCF> push;
  push.push_back(x);
  comp.push_training(std::move(push));
  const auto adapted = comp.compute();

  // Deep null toward the interferer.
  const double q_null = null_depth_db(quiescent.weights[0], 0, int_az, 0.03);
  const double a_null = null_depth_db(adapted.weights[0], 0, int_az, 0.03);
  EXPECT_LT(a_null, q_null - 15.0);

  // Main beam preserved: response at broadside within 3 dB of the
  // quiescent peak (both weight sets are unit-norm).
  std::vector<double> broadside = {0.0};
  const double q0 = angle_response(quiescent.weights[0], 0, broadside)[0];
  const double a0 = angle_response(adapted.weights[0], 0, broadside)[0];
  EXPECT_GT(10.0 * std::log10(a0 / q0), -3.0);

  // Positive SINR improvement against the estimated covariance.
  const auto rin = sample_covariance(x, 1e-3f);
  const auto v_look = synth::spatial_steering(j, 0.0);
  EXPECT_GT(improvement_factor(adapted.weights[0], 0, rin,
                               std::span<const cfloat>(v_look)),
            10.0);  // > 10 dB linear = 10x
}

// The clutter ridge as a number (SNIPPETS.md Snippet 1 is the picture): on
// the live benchmark's wall scene (K = 128, J = 16, N = 128, M = 6, eight
// clutter patches at 40 dB CNR, 32-cell chirp), after four training CPIs,
// every patch must be nulled at its own point of the ridge,
// (azimuth, f = 0.5 sin(azimuth)), by the weights of the Doppler bin it
// falls in — the J-element easy weights or the 2J staggered hard pair —
// and each of those bins must gain over its quiescent weight against its
// own interference-plus-noise covariance. The recorded values are the
// libm Box–Muller sampler's on this scene; across twelve scene seeds its
// shallowest null was -68 dB and its improvement factors varied by at
// most 3 dB (one standard deviation), so a sampler with the same
// statistics stays inside these bounds.
TEST(WallScene, ClutterRidgeIsNulledWithTheImprovementFactorOfTheOldSampler) {
  StapParams p;
  p.num_range = 128;
  p.num_segments = 4;
  p.validate();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 8;
  sp.clutter.cnr_db = 40.0;
  sp.chirp_length = 32;
  const synth::ScenarioGenerator gen(sp);
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  SequentialStap chain(p, steering, gen.replica());
  constexpr index_t kTrain = 4;
  for (index_t i = 0; i < kTrain; ++i) chain.process(gen.generate(i));
  const WeightSet easy = chain.current_easy_weights();
  const WeightSet hard = chain.current_hard_weights();
  chain.process(gen.generate(kTrain));  // fresh snapshots for R_in
  const cube::CpiCube& stag = chain.last_staggered();

  // Recorded from the libm sampler, patch by patch (west to east).
  const double old_if_db[8] = {33.50, 39.62, 41.63, 51.43,
                               28.09, 35.09, 30.71, 36.72};
  std::vector<double> scan;
  for (int i = 0; i <= 240; ++i)
    scan.push_back((-60.0 + 0.5 * i) * std::numbers::pi / 180.0);
  const index_t j = p.num_channels;
  const double half = sp.clutter.azimuth_span_rad / 2.0;
  for (index_t pc = 0; pc < sp.clutter.num_patches; ++pc) {
    const double frac = static_cast<double>(pc) /
                        static_cast<double>(sp.clutter.num_patches - 1);
    const double az = -half + 2.0 * half * frac;
    const double f = 0.5 * sp.clutter.doppler_slope * std::sin(az);
    const index_t bin = (std::lround(f * static_cast<double>(p.num_pulses)) +
                         p.num_pulses) %
                        p.num_pulses;
    const bool is_hard = p.is_hard_bin(bin);
    const WeightSet& set = is_hard ? hard : easy;
    const auto row = static_cast<size_t>(
        std::find(set.bins.begin(), set.bins.end(), bin) - set.bins.begin());
    ASSERT_LT(row, set.bins.size()) << "patch " << pc;
    // Hard weights: the first range segment's pair.
    const linalg::MatrixCF& w =
        set.weights[is_hard ? row * static_cast<size_t>(p.num_segments) : row];

    const std::vector<double> at = {az}, fs = {f};
    const auto pattern = is_hard ? angle_doppler_response(w, 0, p, scan, fs)
                                 : angle_response(w, 0, scan);
    const double ridge = is_hard ? angle_doppler_response(w, 0, p, at, fs)[0]
                                 : angle_response(w, 0, at)[0];
    const double depth_db =
        10.0 * std::log10(ridge / *std::max_element(pattern.begin(),
                                                    pattern.end()));
    EXPECT_LT(depth_db, -60.0) << "patch " << pc << " bin " << bin;

    // Look-direction steering of beam 0 at the bin's Doppler: J elements,
    // or both stagger windows with the stagger phase between them.
    double fb = static_cast<double>(bin) / static_cast<double>(p.num_pulses);
    if (fb >= 0.5) fb -= 1.0;
    const double phi =
        2.0 * std::numbers::pi * fb * static_cast<double>(p.stagger);
    const cfloat stagger(static_cast<float>(std::cos(phi)),
                         static_cast<float>(std::sin(phi)));
    const index_t dof = is_hard ? 2 * j : j;
    std::vector<cfloat> v(static_cast<size_t>(dof));
    linalg::MatrixCF x(p.num_range, dof);
    for (index_t c = 0; c < j; ++c) {
      v[static_cast<size_t>(c)] = steering(c, 0);
      if (is_hard) v[static_cast<size_t>(j + c)] = steering(c, 0) * stagger;
    }
    for (index_t k = 0; k < p.num_range; ++k)
      for (index_t c = 0; c < dof; ++c) x(k, c) = stag.at(k, c, bin);
    const double if_db = 10.0 * std::log10(improvement_factor(
                                    w, 0, sample_covariance(x, 1e-3f), v));
    EXPECT_GT(if_db, 20.0) << "patch " << pc << " bin " << bin;
    EXPECT_NEAR(if_db, old_if_db[pc], 6.0) << "patch " << pc << " bin " << bin;
  }
}

TEST(NullDepth, WindowWithoutScanPointsThrows) {
  linalg::MatrixCF w(4, 1);
  w(0, 0) = cfloat(1, 0);
  EXPECT_THROW(null_depth_db(w, 0, 10.0, 0.001), Error);  // outside scan
}

}  // namespace
}  // namespace ppstap::stap
