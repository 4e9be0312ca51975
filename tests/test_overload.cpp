// Tests for the adaptive overload-control subsystem: the admission/ladder
// controller, OverloadConfig validation, the numerical-
// health guards on the weight path, and the end-to-end pipeline behavior
// under offered load beyond capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/overload.hpp"
#include "core/pipeline.hpp"
#include "dsp/waveform.hpp"
#include "stap/weights.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap {
namespace {

using core::DegradationLevel;
using core::EventKind;
using core::EventLog;
using core::OverloadConfig;
using core::OverloadController;

// ---------------------------------------------------------------------------
// Degradation levels
// ---------------------------------------------------------------------------

TEST(Degradation, ActiveBeamsShrinkMonotonically) {
  const index_t m = 24;
  EXPECT_EQ(core::active_beams_for(DegradationLevel::kFull, m), 24);
  EXPECT_EQ(core::active_beams_for(DegradationLevel::kReducedBeams, m), 12);
  EXPECT_EQ(core::active_beams_for(DegradationLevel::kFrozenHard, m), 6);
  EXPECT_EQ(core::active_beams_for(DegradationLevel::kStaleWeights, m), 6);
  // Never below one beam, even for tiny M.
  EXPECT_EQ(core::active_beams_for(DegradationLevel::kStaleWeights, 1), 1);
  EXPECT_EQ(core::active_beams_for(DegradationLevel::kReducedBeams, 1), 1);
}

TEST(Degradation, LevelNamesAreStable) {
  EXPECT_STREQ(core::degradation_level_name(DegradationLevel::kFull),
               "full");
  EXPECT_STREQ(core::degradation_level_name(DegradationLevel::kShedInput),
               "shed-input");
}

// ---------------------------------------------------------------------------
// Controller: proportional ladder, hysteresis, bounded admission
// ---------------------------------------------------------------------------

TEST(Controller, LadderWalksProportionallyAndRejectsAtTheBound) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_low = 2;
  cfg.queue_high = 6;
  cfg.dwell = 2;
  EventLog log;
  OverloadController ctrl(cfg, /*num_cpis=*/20, log);

  // Nothing completes: the backlog after admitting CPI i is i+1, so the
  // proportional target climbs one band at a time and the hard bound
  // rejects the CPI that would make the backlog exceed queue_high.
  const int expected_levels[] = {0, 0, 0, 1, 2, 3};
  for (index_t i = 0; i < 6; ++i) {
    const auto adm = ctrl.admit(i);
    EXPECT_TRUE(adm.admit) << i;
    EXPECT_EQ(static_cast<int>(adm.level),
              expected_levels[static_cast<size_t>(i)]) << i;
  }
  const auto rejected = ctrl.admit(6);
  EXPECT_FALSE(rejected.admit);
  EXPECT_EQ(rejected.level, DegradationLevel::kShedInput);

  // Drain the backlog, then keep it drained (complete each CPI as it is
  // admitted): de-escalation needs `dwell` consecutive admissions that
  // wanted a lower rung — one rung per dwell period, no cliff.
  for (index_t i = 0; i < 6; ++i) ctrl.on_complete(i, 0.01, false);
  const int down_levels[] = {3, 2, 2, 1, 1, 0};
  for (index_t i = 0; i < 6; ++i) {
    const auto adm = ctrl.admit(7 + i);
    EXPECT_TRUE(adm.admit) << i;
    EXPECT_EQ(static_cast<int>(adm.level),
              down_levels[static_cast<size_t>(i)]) << i;
    ctrl.on_complete(7 + i, 0.01, false);
  }

  const auto events = log.snapshot();
  EXPECT_EQ(core::summarize(events).overload.rejected_cpis,
            std::vector<index_t>{6});
  EXPECT_EQ(events.level(6), 4);
  EXPECT_EQ(events.max_level(), 4);
  EXPECT_EQ(events.count(EventKind::kLevelChange), 6u);  // 3 up, 3 down
}

TEST(Controller, DecisionIsMemoizedPerCpi) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_low = 1;
  cfg.queue_high = 2;
  EventLog log;
  OverloadController ctrl(cfg, 8, log);
  ctrl.admit(0);
  ctrl.admit(1);
  const auto first = ctrl.admit(2);  // backlog 2 -> rejected
  EXPECT_FALSE(first.admit);
  // A later Doppler rank asking about the same CPI gets the identical
  // decision, and the ladder state is not stepped twice.
  const auto again = ctrl.admit(2);
  EXPECT_EQ(first.admit, again.admit);
  EXPECT_EQ(first.level, again.level);
  EXPECT_EQ(ctrl.level_for(2), DegradationLevel::kShedInput);
  EXPECT_EQ(ctrl.level_for(0), DegradationLevel::kFull);
  // Undecided CPIs read as full fidelity.
  EXPECT_EQ(ctrl.level_for(7), DegradationLevel::kFull);
}

TEST(Controller, ThrottleModeBlocksUntilTheBacklogDrains) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.ladder = false;
  cfg.queue_low = 1;
  cfg.queue_high = 1;
  cfg.reject_when_full = false;
  EventLog log;
  OverloadController ctrl(cfg, 4, log);
  ASSERT_TRUE(ctrl.admit(0).admit);

  std::atomic<bool> admitted{false};
  std::thread t([&] {
    const auto adm = ctrl.admit(1);  // blocks: backlog == queue_high
    EXPECT_TRUE(adm.admit);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());  // still throttled
  ctrl.on_complete(0, 0.01, false);
  t.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(log.snapshot().count(EventKind::kThrottle), 1u);
  EXPECT_TRUE(core::summarize(log.snapshot()).overload.rejected_cpis.empty());
}

// ---------------------------------------------------------------------------
// Admission window: unpaced throttle mode caps in-flight CPIs at
// clamp(ceil(L / P), 2, queue_high) from eq. (1) stage times and eq. (2)
// latencies
// ---------------------------------------------------------------------------

OverloadConfig closed_loop(index_t queue_high) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.ladder = false;
  cfg.queue_low = cfg.queue_high = queue_high;
  cfg.reject_when_full = false;
  return cfg;
}

// CPIs [first, last) one at a time through admission, three synthetic
// stage samples (the largest is `period`) and a completion at `latency`.
void feed(OverloadController& ctrl, index_t first, index_t last,
          double period, double latency) {
  for (index_t i = first; i < last; ++i) {
    ASSERT_TRUE(ctrl.admit(i).admit) << i;
    ctrl.note_stage_busy(i, 0.5 * period);
    ctrl.note_stage_busy(i, period);
    ctrl.note_stage_busy(i, 0.25 * period);
    ctrl.on_complete(i, latency, false);
  }
}

TEST(AdmissionWindow, BoundIsLittlesLawOverStageTimesAndLatency) {
  EventLog log;
  OverloadController ctrl(closed_loop(8), 64, log);
  feed(ctrl, 0, 20, 0.010, 0.035);
  const auto w = ctrl.window();
  EXPECT_DOUBLE_EQ(w.period, 0.010);
  EXPECT_DOUBLE_EQ(w.latency, 0.035);
  EXPECT_EQ(w.bound, 4);  // ceil(3.5)
  // L is the windowed minimum: one faster CPI lowers it, ceil(2.2) = 3.
  feed(ctrl, 20, 21, 0.010, 0.022);
  EXPECT_EQ(ctrl.window().bound, 3);
  // P is a median: a few slow stage samples do not move it.
  feed(ctrl, 21, 24, 0.200, 0.040);
  EXPECT_DOUBLE_EQ(ctrl.window().period, 0.010);
  // Clamped to [2, queue_high].
  feed(ctrl, 24, 25, 0.010, 0.004);
  EXPECT_EQ(ctrl.window().bound, 2);
  EventLog log2;
  OverloadController slow(closed_loop(8), 64, log2);
  feed(slow, 0, 20, 0.001, 0.5);
  EXPECT_EQ(slow.window().bound, 8);
}

// Before the estimates have samples the window sits at its floor, not at
// queue_high: the first CPIs of a run would otherwise be admitted as one
// burst and queue behind each other.
TEST(AdmissionWindow, StartsAtItsFloorBeforeItHasSamples) {
  EventLog log;
  OverloadController ctrl(closed_loop(4), 8, log);
  EXPECT_EQ(ctrl.window().bound, 2);
  EXPECT_EQ(ctrl.window().period, 0.0);
  for (index_t i = 0; i < 2; ++i) ASSERT_TRUE(ctrl.admit(i).admit);
  std::atomic<bool> admitted{false};
  std::thread t([&] {
    EXPECT_TRUE(ctrl.admit(2).admit);  // blocks: two in flight
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  // A latency sample alone is not an estimate: still the floor.
  ctrl.on_complete(0, 0.01, false);
  t.join();
  EXPECT_EQ(ctrl.window().bound, 2);
  const auto throttles = log.snapshot().of(EventKind::kThrottle);
  ASSERT_EQ(throttles.size(), 1u);
  EXPECT_STREQ(throttles[0].cause, "window");
  // Never above queue_high.
  EventLog log1;
  EXPECT_EQ(OverloadController(closed_loop(1), 8, log1).window().bound, 1);
}

TEST(AdmissionWindow, BindingCapThrottlesWithoutMovingItsPeriod) {
  EventLog log;
  OverloadController ctrl(closed_loop(8), 64, log);
  feed(ctrl, 0, 20, 0.010, 0.018);
  const auto before = ctrl.window();
  ASSERT_EQ(before.bound, 2);
  ASSERT_TRUE(ctrl.admit(20).admit);
  ASSERT_TRUE(ctrl.admit(21).admit);
  std::atomic<bool> admitted{false};
  std::thread t([&] {
    EXPECT_TRUE(ctrl.admit(22).admit);  // blocks: two in flight
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  // The capped CPIs still take 10 ms of service each, however long the
  // sink takes to finish them: the estimate does not chase the cap.
  ctrl.note_stage_busy(20, 0.010);
  ctrl.note_stage_busy(21, 0.010);
  ctrl.on_complete(20, 0.060, false);
  t.join();
  EXPECT_TRUE(admitted.load());
  const auto after = ctrl.window();
  EXPECT_DOUBLE_EQ(after.period, before.period);
  EXPECT_EQ(after.bound, 2);
  const auto throttles = log.snapshot().of(EventKind::kThrottle);
  ASSERT_EQ(throttles.size(), 1u);
  EXPECT_STREQ(throttles[0].cause, "window");
  EXPECT_EQ(throttles[0].cpi, 22);
}

TEST(AdmissionWindow, OffInRejectModeAndUnderPacedArrivals) {
  for (const bool paced : {false, true}) {
    OverloadConfig cfg = closed_loop(8);
    if (paced)
      cfg.arrival_period_seconds = 1e-4;
    else
      cfg.reject_when_full = true;
    EventLog log;
    OverloadController ctrl(cfg, 64, log);
    feed(ctrl, 0, 20, 0.010, 0.018);
    // Fatal: a window in force here would park the admissions below.
    ASSERT_EQ(ctrl.window().bound, 8) << "paced " << paced;
    EXPECT_EQ(ctrl.window().period, 0.0) << "paced " << paced;
    // Eight in flight: no throttle, no rejection.
    for (index_t i = 20; i < 28; ++i)
      EXPECT_TRUE(ctrl.admit(i).admit) << "paced " << paced << " cpi " << i;
    EXPECT_EQ(log.snapshot().count(EventKind::kThrottle), 0u);
    EXPECT_TRUE(core::summarize(log.snapshot()).overload.rejected_cpis.empty());
  }
}

// Downstream receive budgets start at a CPI's admission stamp, which
// wait_decided hands out: it blocks while the CPI is held at admission and
// returns -1 once the controller closes with the CPI undecided.
TEST(Controller, WaitDecidedBlocksUntilAdmissionThenReturnsItsStamp) {
  EventLog log;
  OverloadController ctrl(closed_loop(1), 4, log);
  const double t0 = ctrl.admit(0).at;
  EXPECT_EQ(ctrl.wait_decided(0), t0);
  std::atomic<double> stamp{0.0};
  std::thread waiter([&] { stamp.store(ctrl.wait_decided(1)); });
  std::thread producer([&] { (void)ctrl.admit(1); });  // throttled on CPI 0
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(stamp.load(), 0.0);  // both still held
  ctrl.on_complete(0, 0.01, false);
  producer.join();
  waiter.join();
  EXPECT_GT(stamp.load(), t0);
  EXPECT_EQ(stamp.load(), ctrl.admit(1).at);
  std::thread closed([&] { EXPECT_EQ(ctrl.wait_decided(3), -1.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctrl.close();
  closed.join();
}

TEST(Controller, SustainedSloViolationEscalatesWithoutBacklog) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_low = 100;  // depth never triggers
  cfg.queue_high = 200;
  cfg.slo_latency_seconds = 0.01;
  cfg.dwell = 1;
  EventLog log;
  OverloadController ctrl(cfg, 16, log);
  // Every completion blows the SLO; each admission climbs one rung until
  // the shed rung rejects outright.
  int first_reject = -1;
  for (index_t i = 0; i < 8; ++i) {
    const auto adm = ctrl.admit(i);
    ctrl.on_complete(i, 1.0, !adm.admit);
    if (!adm.admit && first_reject < 0) first_reject = static_cast<int>(i);
  }
  EXPECT_EQ(first_reject, 4);  // kFull -> 1 -> 2 -> 3 -> kShedInput
  EXPECT_EQ(log.snapshot().max_level(), 4);
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

TEST(OverloadConfigTest, InconsistentConfigurationFailsValidation) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_low = 8;
  cfg.queue_high = 4;  // high < low
  EXPECT_THROW(cfg.validate(), Error);
  cfg.queue_high = 16;
  cfg.dwell = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.dwell = 4;
  EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------------
// Numerical-health guards on the weight path
// ---------------------------------------------------------------------------

linalg::MatrixCF test_steering(const stap::StapParams& p) {
  return synth::steering_matrix(p.num_channels, p.num_beams,
                                p.beam_center_rad, p.beam_span_rad);
}

bool all_unit_finite_columns(const linalg::MatrixCF& w) {
  for (index_t c = 0; c < w.cols(); ++c) {
    double n = 0.0;
    for (index_t r = 0; r < w.rows(); ++r) {
      if (!std::isfinite(w(r, c).real()) || !std::isfinite(w(r, c).imag()))
        return false;
      n += std::norm(w(r, c));
    }
    if (std::abs(n - 1.0) > 1e-4) return false;
  }
  return true;
}

TEST(NumericalGuards, RankDeficientEasyTrainingRetriesOncePerBin) {
  stap::StapParams p = stap::StapParams::small_test();
  // A vanishing constraint weight removes the regularization the
  // constraint rows normally provide, so a rank-one training stack is
  // genuinely ill-conditioned.
  p.beam_constraint_wt = 1e-12;
  const std::vector<index_t> bins = {p.easy_bins()[0], p.easy_bins()[1]};
  stap::EasyWeightComputer comp(p, test_steering(p), bins);

  // Rank-one: every snapshot is the same vector.
  std::vector<linalg::MatrixCF> training;
  for (size_t b = 0; b < bins.size(); ++b) {
    linalg::MatrixCF x(24, p.num_channels);
    for (index_t r = 0; r < 24; ++r)
      for (index_t c = 0; c < p.num_channels; ++c)
        x(r, c) = cfloat(1.0f, 0.5f);
    training.push_back(std::move(x));
  }
  comp.push_training(std::move(training));

  const auto w = comp.compute();
  // Exactly one diagonal-loading retry per affected bin, ledgered.
  EXPECT_EQ(comp.health().loading_retries, bins.size());
  EXPECT_EQ(comp.health().nonfinite_training_blocks, 0u);
  // The loaded solve is well posed: finite, unit-norm weights — nothing
  // downstream ever beamforms with NaN/Inf.
  ASSERT_EQ(w.weights.size(), bins.size());
  for (const auto& wm : w.weights) EXPECT_TRUE(all_unit_finite_columns(wm));
}

TEST(NumericalGuards, AllZeroTrainingFallsBackToQuiescent) {
  stap::StapParams p = stap::StapParams::small_test();
  const std::vector<index_t> bins = {p.easy_bins()[0]};
  stap::EasyWeightComputer comp(p, test_steering(p), bins);
  std::vector<linalg::MatrixCF> training;
  training.emplace_back(16, p.num_channels);  // all zeros
  comp.push_training(std::move(training));

  const auto w = comp.compute();
  EXPECT_EQ(comp.health().loading_retries, 1u);
  EXPECT_EQ(comp.health().quiescent_fallbacks, 1u);
  // The fallback is the quiescent (normalized steering) beamformer.
  linalg::MatrixCF quiescent = test_steering(p);
  stap::normalize_columns(quiescent);
  ASSERT_EQ(w.weights.size(), 1u);
  for (index_t r = 0; r < quiescent.rows(); ++r)
    for (index_t c = 0; c < quiescent.cols(); ++c)
      EXPECT_NEAR(std::abs(w.weights[0](r, c) - quiescent(r, c)), 0.0f,
                  1e-6f);
}

TEST(NumericalGuards, NanTrainingBlockIsScreenedBeforePooling) {
  stap::StapParams p = stap::StapParams::small_test();
  const std::vector<index_t> bins = {p.easy_bins()[0]};
  stap::EasyWeightComputer comp(p, test_steering(p), bins);
  std::vector<linalg::MatrixCF> training;
  linalg::MatrixCF x(8, p.num_channels);
  for (index_t r = 0; r < 8; ++r)
    for (index_t c = 0; c < p.num_channels; ++c) x(r, c) = cfloat(1, 1);
  x(3, 1) = cfloat(std::numeric_limits<float>::quiet_NaN(), 0.0f);
  training.push_back(std::move(x));
  comp.push_training(std::move(training));

  EXPECT_EQ(comp.health().nonfinite_training_blocks, 1u);
  // The poisoned block was dropped: no pooled rows, quiescent weights.
  const auto w = comp.compute();
  ASSERT_EQ(w.weights.size(), 1u);
  EXPECT_TRUE(all_unit_finite_columns(w.weights[0]));
}

TEST(NumericalGuards, HardRecursionScreensAndRetries) {
  stap::StapParams p = stap::StapParams::small_test();
  // Any realistic R exceeds a threshold this tight: the guard must fire
  // on every unit and still produce finite weights.
  p.condition_threshold = 1.5;
  const auto bins = p.hard_bins();
  const std::vector<index_t> first_bin = {bins[0]};
  auto units = stap::HardWeightComputer::units_for_bins(
      p, std::span<const index_t>(first_bin));
  stap::HardWeightComputer comp(p, test_steering(p), units);

  const auto make_rows = [&](bool poison) {
    std::vector<linalg::MatrixCF> rows;
    for (size_t u = 0; u < units.size(); ++u) {
      linalg::MatrixCF x(6, 2 * p.num_channels);
      for (index_t r = 0; r < 6; ++r)
        for (index_t c = 0; c < 2 * p.num_channels; ++c)
          x(r, c) = cfloat(0.1f * static_cast<float>(r + c), 0.2f);
      if (poison && u == 0)
        x(0, 0) = cfloat(std::numeric_limits<float>::infinity(), 0.0f);
      rows.push_back(std::move(x));
    }
    return rows;
  };

  // The Inf block is screened before it can poison unit 0's recursive R;
  // the other units' updates proceed normally.
  comp.update(make_rows(true));
  EXPECT_EQ(comp.health().nonfinite_training_blocks, 1u);
  // A clean update reaches every unit, so every per-unit solve now sees a
  // data-bearing R and the too-tight threshold forces one retry each.
  comp.update(make_rows(false));

  const auto w = comp.compute();
  EXPECT_EQ(comp.health().loading_retries, units.size());
  ASSERT_EQ(w.size(), units.size());
  for (const auto& wm : w) EXPECT_TRUE(all_unit_finite_columns(wm));
}

// ---------------------------------------------------------------------------
// End-to-end: the pipeline under overload
// ---------------------------------------------------------------------------

TEST(OverloadPipeline, LadderDegradesInsteadOfCollapsing) {
  stap::StapParams p;
  p.num_range = 96;
  p.num_channels = 4;
  p.num_pulses = 16;
  p.num_beams = 8;
  p.num_hard = 4;
  p.stagger = 2;
  p.num_segments = 2;
  p.easy_samples_per_cpi = 8;
  p.hard_samples_per_segment = 8;
  p.cfar_ref = 4;
  p.cfar_guard = 1;
  p.validate();

  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 4;
  sp.chirp_length = 0;  // keep the source far cheaper than the pipeline
  sp.targets.push_back(synth::Target{40, 5.0 / 16.0, 0.0, 12.0});
  synth::ScenarioGenerator gen(sp);

  core::NodeAssignment a{{1, 1, 1, 1, 1, 1, 1}};
  core::ParallelStapPipeline pipe(
      p, a, test_steering(p),
      dsp::lfm_chirp(6));

  core::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_low = 1;
  cfg.queue_high = 4;
  cfg.dwell = 2;
  // Offered far beyond capacity: arrivals every 0.5 ms force the ladder up
  // and the admission bound into action.
  cfg.arrival_period_seconds = 5e-4;
  pipe.set_overload(cfg);

  const index_t n_cpis = 30;
  const auto r = pipe.run(gen, n_cpis, 3, 2);

  EXPECT_GE(r.events.max_level(), 1);
  EXPECT_GT(r.events.count(EventKind::kDegraded), 0u);

  // Every admission rejection is accounted as a shed CPI with no output,
  // and its recorded cause is the admission decision.
  for (const index_t cpi : r.overload.rejected_cpis) {
    EXPECT_TRUE(r.detections[static_cast<size_t>(cpi)].empty()) << cpi;
    bool in_ledger = false;
    for (const index_t s : r.faults.shed_cpis) in_ledger |= (s == cpi);
    EXPECT_TRUE(in_ledger) << cpi;
    ASSERT_NE(r.events.shed_cause(cpi), nullptr) << cpi;
    EXPECT_STREQ(r.events.shed_cause(cpi)->cause, "admission") << cpi;
  }
  // Every shed CPI has exactly one recorded cause.
  for (const index_t cpi : r.faults.shed_cpis)
    EXPECT_NE(r.events.shed_cause(cpi), nullptr) << cpi;

  // Degraded CPIs only ever report detections inside the active beams.
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    const auto level = static_cast<DegradationLevel>(r.events.level(cpi));
    const index_t active = core::active_beams_for(level, p.num_beams);
    for (const auto& d : r.detections[static_cast<size_t>(cpi)])
      EXPECT_LT(d.beam, active) << "cpi " << cpi;
  }

  // The stream kept moving and the ledger is coherent.
  EXPECT_GT(r.throughput, 0.0);
  for (const double lat : r.per_cpi_latency) EXPECT_TRUE(std::isfinite(lat));
}

TEST(OverloadPipeline, DisabledControllerLeavesLedgerClean) {
  stap::StapParams p = stap::StapParams::small_test();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 2;
  synth::ScenarioGenerator gen(sp);
  core::NodeAssignment a{{1, 1, 1, 1, 1, 1, 1}};
  core::ParallelStapPipeline pipe(p, a, test_steering(p),
                                  std::vector<cfloat>{});
  core::OverloadConfig off;
  pipe.set_overload(off);
  const auto r = pipe.run(gen, 8, 2, 1);
  EXPECT_TRUE(r.overload.rejected_cpis.empty());
  EXPECT_EQ(r.events.max_level(), 0);
  for (index_t cpi = 0; cpi < 8; ++cpi) EXPECT_EQ(r.events.level(cpi), 0);
  for (const EventKind k :
       {EventKind::kDegraded, EventKind::kLevelChange, EventKind::kThrottle,
        EventKind::kCapacityLoss, EventKind::kNonfiniteTraining,
        EventKind::kLoadingRetry, EventKind::kQuiescentFallback,
        EventKind::kQrResidualRetry, EventKind::kQrResidualReject})
    EXPECT_EQ(r.events.count(k), 0u) << core::info(k).counter;
}

}  // namespace
}  // namespace ppstap
