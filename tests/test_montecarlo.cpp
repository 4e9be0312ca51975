// Tests for the Monte-Carlo detection study: curve sanity (monotonicity,
// asymptotes), false-alarm control, and configuration validation.
#include <gtest/gtest.h>

#include <cmath>

#include "stap/montecarlo.hpp"

namespace ppstap::stap {
namespace {

DetectionStudyConfig small_config() {
  DetectionStudyConfig cfg;
  cfg.params = StapParams::small_test();
  cfg.params.num_range = 48;
  cfg.params.num_channels = 6;
  cfg.params.num_pulses = 16;
  cfg.params.num_beams = 1;
  cfg.params.num_hard = 6;
  cfg.params.stagger = 2;
  cfg.params.num_segments = 2;
  cfg.params.easy_samples_per_cpi = 12;
  cfg.params.hard_samples_per_segment = 12;
  cfg.params.beam_span_rad = 0.0;
  cfg.params.cfar_pfa = 1e-4;
  cfg.params.validate();
  cfg.scene.num_range = cfg.params.num_range;
  cfg.scene.num_channels = cfg.params.num_channels;
  cfg.scene.num_pulses = cfg.params.num_pulses;
  cfg.scene.clutter.num_patches = 6;
  cfg.scene.clutter.cnr_db = 35.0;
  cfg.scene.chirp_length = 6;
  cfg.target_range = 30;
  cfg.target_bin = 5;  // easy region
  cfg.trials = 8;
  cfg.train_cpis = 2;
  return cfg;
}

TEST(DetectionCurve, StrongTargetsAlwaysDetected) {
  auto cfg = small_config();
  const double snrs[] = {15.0};
  const auto curve = detection_curve(cfg, snrs);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].pd, 1.0);
  EXPECT_GT(curve[0].mean_margin, 1.0);
}

TEST(DetectionCurve, BuriedTargetsAreNot) {
  auto cfg = small_config();
  const double snrs[] = {-25.0};
  const auto curve = detection_curve(cfg, snrs);
  EXPECT_LT(curve[0].pd, 0.3);
}

TEST(DetectionCurve, MonotoneInSnr) {
  auto cfg = small_config();
  cfg.trials = 10;
  const double snrs[] = {-20.0, 0.0, 15.0};
  const auto curve = detection_curve(cfg, snrs);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_LE(curve[0].pd, curve[1].pd + 0.15);
  EXPECT_LE(curve[1].pd, curve[2].pd + 0.15);
  EXPECT_LT(curve[0].pd, curve[2].pd);
}

TEST(FalseAlarms, AtOrNearDesignPfa) {
  auto cfg = small_config();
  cfg.trials = 6;
  const double pfa = measured_false_alarm_rate(cfg);
  // Should not exceed the design PFA by an order of magnitude (clutter
  // residue) nor be negative; zero is acceptable at these sample sizes.
  EXPECT_GE(pfa, 0.0);
  EXPECT_LT(pfa, 10.0 * cfg.params.cfar_pfa + 1e-3);
}

// The noise sampler changes every scene, so the detection statistics take
// over from bit checksums: Pd at fixed SNRs in an easy and a hard bin, and
// the realized false-alarm rate, over 200 independent scenes each, must lie
// within the 99.9% confidence interval of the difference from the values
// the libm Box–Muller sampler gave on the same configuration (two
// binomial, resp. Poisson, estimates of equal size).
TEST(SamplerOracle, PdAndPfaMatchTheOldSamplerWithinTheirConfidenceIntervals) {
  constexpr double kZ = 3.29;  // two-sided 99.9%
  constexpr index_t kTrials = 200;
  struct Recorded {
    index_t bin;
    double snr_db;
    double pd;
  };
  const Recorded old_pd[] = {{5, 0.0, 0.4650},  {5, 2.0, 0.7600},
                             {0, 0.0, 0.2950},  {0, 2.0, 0.4100}};
  for (const Recorded& r : old_pd) {
    auto cfg = small_config();
    cfg.trials = kTrials;
    cfg.target_bin = r.bin;
    const double snrs[] = {r.snr_db};
    const double pd = detection_curve(cfg, snrs)[0].pd;
    const double pooled = 0.5 * (pd + r.pd);
    const double half_width =
        kZ * std::sqrt(2.0 * pooled * (1.0 - pooled) / kTrials);
    EXPECT_LE(std::abs(pd - r.pd), half_width)
        << "bin " << r.bin << (cfg.params.is_hard_bin(r.bin) ? " (hard)" : "")
        << " at " << r.snr_db << " dB: Pd " << pd << ", old " << r.pd;
  }
  auto cfg = small_config();
  cfg.trials = kTrials;
  const double cells = static_cast<double>(kTrials * cfg.params.num_pulses *
                                           cfg.params.num_beams *
                                           cfg.params.num_range);
  const double alarms = measured_false_alarm_rate(cfg) * cells;
  const double old_alarms = 7.0;  // of 153600 cells: 4.56e-5
  EXPECT_LE(std::abs(alarms - old_alarms), kZ * std::sqrt(alarms + old_alarms))
      << alarms << " false alarms, old " << old_alarms;
  EXPECT_LE(alarms / cells, cfg.params.cfar_pfa);
}

TEST(Config, RejectsBadTargets) {
  auto cfg = small_config();
  cfg.target_range = cfg.params.num_range;
  const double snrs[] = {0.0};
  EXPECT_THROW(detection_curve(cfg, snrs), Error);
  cfg = small_config();
  cfg.target_bin = cfg.params.num_pulses;
  EXPECT_THROW(detection_curve(cfg, snrs), Error);
  cfg = small_config();
  cfg.scene.num_range += 1;
  EXPECT_THROW(measured_false_alarm_rate(cfg), Error);
  cfg = small_config();
  cfg.trials = 0;
  EXPECT_THROW(measured_false_alarm_rate(cfg), Error);
}

}  // namespace
}  // namespace ppstap::stap
