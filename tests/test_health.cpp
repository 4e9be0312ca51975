// Gray-failure detection and quarantine tests: the HealthMonitor state
// machine in isolation (z-score detection, dwell, hysteresis, flap budget,
// do-no-harm gate) and the end-to-end pipeline path — a persistently slow
// rank is quarantined onto the spare with no CPI lost, a clean run raises
// no events, and detect-only mode records verdicts without evicting.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "comm/fault.hpp"
#include "core/assignment.hpp"
#include "core/health.hpp"
#include "core/pipeline.hpp"
#include "stap/sequential.hpp"
#include "synth/steering.hpp"

namespace ppstap::core {
namespace {

using comm::FaultPlan;
using stap::StapParams;
using stap::Task;
using synth::ScenarioGenerator;
using synth::ScenarioParams;
using synth::Target;

HealthConfig test_config() {
  HealthConfig cfg;
  cfg.enabled = true;
  cfg.zscore = 3.0;
  cfg.dwell = 2;
  cfg.min_samples = 2;
  cfg.alpha = 0.5;
  return cfg;
}

// One task group of four ranks; rank `straggler` runs `factor` x slower.
void feed(HealthMonitor& m, int cycles, int straggler = -1,
          double factor = 1.0) {
  for (int i = 0; i < cycles; ++i)
    for (int r = 0; r < 4; ++r) {
      const double service = 0.010 * (r == straggler ? factor : 1.0);
      m.observe(r, /*task=*/0, /*cpi=*/i, service, /*queue_s=*/0.001);
    }
}

std::vector<HealthGroup> one_group() {
  return {HealthGroup{/*task=*/0, {0, 1, 2, 3}}};
}

TEST(HealthMonitor, DisabledMonitorIsInert) {
  HealthConfig cfg;  // enabled = false
  EventLog log;
  HealthMonitor m(cfg, 4, log);
  feed(m, 10, /*straggler=*/2, /*factor=*/50.0);
  m.scan(10, one_group(), /*spare_available=*/true, /*shrink_available=*/true);
  m.record_ranks();
  EXPECT_TRUE(log.snapshot().records.empty());
  EXPECT_FALSE(m.quarantine_requested(2));
}

TEST(HealthMonitor, UniformGroupRaisesNothing) {
  EventLog log;
  HealthMonitor m(test_config(), 4, log);
  for (int i = 0; i < 20; ++i) {
    feed(m, 1);
    m.scan(i, one_group(), true, true);
  }
  m.record_ranks();
  const Events led = log.snapshot();
  EXPECT_TRUE(led.verdicts().empty());
  const auto ranks = led.of(EventKind::kRankHealth);
  ASSERT_EQ(ranks.size(), 4u);
  for (const auto& r : ranks) {
    EXPECT_EQ(r.count, 20u);
    EXPECT_NEAR(r.seconds, 0.010, 1e-9);
  }
}

TEST(HealthMonitor, StragglerQuarantinedAfterDwell) {
  EventLog log;
  HealthMonitor m(test_config(), 4, log);
  feed(m, 3, /*straggler=*/2, /*factor=*/8.0);
  // First straggler scan: suspect (strike 1 of dwell 2), no eviction yet.
  m.scan(0, one_group(), true, true);
  EXPECT_FALSE(m.quarantine_requested(2));
  // Second consecutive strike confirms and evicts.
  m.scan(1, one_group(), true, true);
  EXPECT_TRUE(m.quarantine_requested(2));
  EXPECT_FALSE(m.quarantine_requested(0));

  const Events led = log.snapshot();
  EXPECT_EQ(led.count(EventKind::kSuspect), 1u);
  EXPECT_EQ(led.count(EventKind::kQuarantine), 1u);
  ASSERT_GE(led.verdicts().size(), 2u);
  EXPECT_EQ(led.verdicts().front().kind, EventKind::kSuspect);
  EXPECT_EQ(led.verdicts().front().rank, 2);
  EXPECT_EQ(led.verdicts().back().kind, EventKind::kQuarantine);
  EXPECT_EQ(led.verdicts().back().rank, 2);
  EXPECT_GT(led.verdicts().back().seconds, 3.0);
  EXPECT_TRUE(m.was_quarantined(2));
  // Once quarantined the rank is no longer scored: further scans are quiet.
  m.scan(2, one_group(), true, true);
  EXPECT_EQ(log.snapshot().count(EventKind::kQuarantine), 1u);
}

TEST(HealthMonitor, TransientSpikeClearsWithHysteresis) {
  EventLog log;
  HealthMonitor m(test_config(), 4, log);
  // One straggling window strikes once...
  feed(m, 3, /*straggler=*/1, /*factor=*/8.0);
  m.scan(0, one_group(), true, true);
  EXPECT_EQ(log.snapshot().count(EventKind::kSuspect), 1u);
  // ...then the rank recovers: the EWMA decays back toward the peers, the
  // score falls below half the threshold, and the strike clears instead of
  // accumulating into an eviction.
  feed(m, 10);
  m.scan(1, one_group(), true, true);
  const Events led = log.snapshot();
  EXPECT_EQ(led.count(EventKind::kQuarantine), 0u);
  EXPECT_FALSE(m.quarantine_requested(1));
  ASSERT_FALSE(led.verdicts().empty());
  EXPECT_EQ(led.verdicts().back().kind, EventKind::kClear);
}

TEST(HealthMonitor, FlapBudgetSuppressesRepeatEviction) {
  HealthConfig cfg = test_config();
  EventLog log;
  HealthMonitor m(cfg, 4, log);
  feed(m, 3, /*straggler=*/3, /*factor=*/8.0);
  m.scan(0, one_group(), true, true);
  m.scan(1, one_group(), true, true);
  ASSERT_TRUE(m.quarantine_requested(3));
  // A spare took over: healthy stats, budget spent.
  m.on_revived(3);
  EXPECT_FALSE(m.quarantine_requested(3));
  EXPECT_TRUE(m.revived(3));
  // The replacement misbehaves too (or the slowness followed the role):
  // the flap budget suppresses a second eviction.
  feed(m, 3, /*straggler=*/3, /*factor=*/8.0);
  m.scan(2, one_group(), true, true);
  m.scan(3, one_group(), true, true);
  EXPECT_FALSE(m.quarantine_requested(3));
  const Events led = log.snapshot();
  EXPECT_EQ(led.count(EventKind::kQuarantine), 1u);
  EXPECT_GE(led.count(EventKind::kFlapSuppressed), 1u);
  EXPECT_EQ(led.verdicts().back().kind, EventKind::kFlapSuppressed);
}

TEST(HealthMonitor, EvictionVetoedWithoutHealingPath) {
  EventLog log;
  HealthMonitor m(test_config(), 4, log);
  feed(m, 3, /*straggler=*/0, /*factor=*/8.0);
  m.scan(0, one_group(), /*spare_available=*/false,
         /*shrink_available=*/false);
  m.scan(1, one_group(), false, false);
  // Confirmed straggler, but nobody could inherit the work: vetoed.
  EXPECT_FALSE(m.quarantine_requested(0));
  const Events led = log.snapshot();
  EXPECT_EQ(led.count(EventKind::kQuarantine), 0u);
  EXPECT_GE(led.count(EventKind::kVetoed), 1u);
  EXPECT_EQ(led.verdicts().back().kind, EventKind::kVetoed);
}

TEST(HealthMonitor, EvictionVetoedWhenAnotherGroupGatesThroughput) {
  // The straggler's group is NOT the pipeline bottleneck: a second group
  // is slower than the straggler group would be even after healing, so the
  // eq.-1 prediction shows no gain and the do-no-harm gate refuses.
  EventLog log;
  HealthMonitor m(test_config(), 6, log);
  for (int i = 0; i < 3; ++i) {
    for (int r = 0; r < 4; ++r)
      m.observe(r, 0, i, r == 2 ? 0.080 : 0.010, 0.0);
    // Group 1 paces the pipeline at 0.2 s regardless.
    for (int r = 4; r < 6; ++r) m.observe(r, 1, i, 0.200, 0.0);
  }
  const std::vector<HealthGroup> groups = {HealthGroup{0, {0, 1, 2, 3}},
                                           HealthGroup{1, {4, 5}}};
  m.scan(0, groups, true, true);
  m.scan(1, groups, true, true);
  EXPECT_FALSE(m.quarantine_requested(2));
  const Events led = log.snapshot();
  EXPECT_EQ(led.count(EventKind::kQuarantine), 0u);
  EXPECT_GE(led.count(EventKind::kVetoed), 1u);
}

TEST(HealthMonitor, DetectOnlyModeNeverEvicts) {
  HealthConfig cfg = test_config();
  cfg.quarantine = false;
  EventLog log;
  HealthMonitor m(cfg, 4, log);
  feed(m, 6, /*straggler=*/1, /*factor=*/10.0);
  for (int i = 0; i < 6; ++i) m.scan(i, one_group(), true, true);
  EXPECT_FALSE(m.quarantine_requested(1));
  const Events led = log.snapshot();
  EXPECT_GE(led.count(EventKind::kSuspect), 1u);
  EXPECT_EQ(led.count(EventKind::kQuarantine), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end pipeline tests
// ---------------------------------------------------------------------------

struct Fixture {
  StapParams p;
  ScenarioParams sp;

  static Fixture make() {
    Fixture f;
    f.p = StapParams::small_test();
    f.p.num_range = 48;
    f.p.num_channels = 4;
    f.p.num_pulses = 16;
    f.p.num_beams = 2;
    f.p.num_hard = 6;
    f.p.stagger = 2;
    f.p.num_segments = 2;
    f.p.easy_samples_per_cpi = 12;
    f.p.hard_samples_per_segment = 10;
    f.p.cfar_ref = 4;
    f.p.cfar_guard = 1;
    f.p.validate();

    f.sp.num_range = f.p.num_range;
    f.sp.num_channels = f.p.num_channels;
    f.sp.num_pulses = f.p.num_pulses;
    f.sp.clutter.num_patches = 6;
    f.sp.clutter.cnr_db = 35.0;
    f.sp.chirp_length = 6;
    f.sp.targets.push_back(Target{21, 8.0 / 16.0, 0.05, 15.0});
    return f;
  }

  linalg::MatrixCF steering() const {
    return synth::steering_matrix(p.num_channels, p.num_beams,
                                  p.beam_center_rad, p.beam_span_rad);
  }
};

std::vector<std::vector<stap::Detection>> sequential_reference(
    const Fixture& f, index_t n_cpis) {
  ScenarioGenerator gen(f.sp);
  stap::SequentialStap seq(f.p, f.steering(), gen.replica());
  std::vector<std::vector<stap::Detection>> ref;
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    auto dets = seq.process(gen.generate(cpi)).detections;
    std::sort(dets.begin(), dets.end(), [](const auto& x, const auto& y) {
      return std::tie(x.doppler_bin, x.beam, x.range) <
             std::tie(y.doppler_bin, y.beam, y.range);
    });
    ref.push_back(std::move(dets));
  }
  return ref;
}

// Detector regime for the end-to-end runs on this microsecond-scale test
// fixture: score only mature floor windows (min_samples 4) and put the
// absolute floor well above the fixture's healthy compute cost (~40 us)
// yet well below an injected straggler's stretched floor, so clean runs
// are deterministically quiet even on an oversubscribed host.
HealthConfig e2e_config() {
  HealthConfig cfg = test_config();
  cfg.min_samples = 4;
  cfg.min_service = 2e-4;
  return cfg;
}

TEST(HealthPipeline, CleanRunRaisesNoEvents) {
  auto f = Fixture::make();
  ScenarioGenerator gen(f.sp);
  NodeAssignment a{{2, 1, 1, 1, 1, 1, 1}};
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  par.set_health(e2e_config());
  auto res = par.run(gen, 8, /*warmup=*/1, /*cooldown=*/1);
  // The false-quarantine gate: no rank confirmed, let alone evicted. A
  // transient suspect/clear pair is tolerated — on a grossly oversubscribed
  // host a preemption storm can inflate one full floor window — but
  // dwell + hysteresis must stop anything stronger, and on an idle host
  // the run is event-free outright.
  EXPECT_EQ(res.events.count(EventKind::kQuarantine), 0u);
  for (const auto& e : res.events.verdicts())
    EXPECT_TRUE(e.kind == EventKind::kSuspect || e.kind == EventKind::kClear)
        << "rank " << e.rank << " escalated to " << info(e.kind).counter;
  EXPECT_TRUE(res.events.heals().empty());
  EXPECT_TRUE(res.faults.clean());
}

TEST(HealthPipeline, PersistentStragglerQuarantinedOntoSpare) {
  auto f = Fixture::make();
  const index_t n_cpis = 16;
  // Two Doppler ranks; global rank 1 (Doppler local 1, NOT the elastic
  // coordinator) runs 12x slow from CPI 0 on.
  NodeAssignment a{{2, 1, 1, 1, 1, 1, 1}};
  const int victim = 1;

  FaultPlan plan;
  plan.add(FaultPlan::slow_rank(victim, 12.0));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  FaultToleranceConfig ft;
  ft.spares = 1;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  par.set_health(e2e_config());
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // The monitor confirmed and evicted exactly the straggler...
  EXPECT_EQ(res.events.count(EventKind::kQuarantine), 1u);
  ASSERT_FALSE(res.events.verdicts().empty());
  bool saw_quarantine = false;
  for (const auto& e : res.events.verdicts())
    if (e.kind == EventKind::kQuarantine) {
      saw_quarantine = true;
      EXPECT_EQ(e.rank, victim);
    }
  EXPECT_TRUE(saw_quarantine);

  // ...the spare inherited the role (a heal with cause "quarantine" and a
  // measured MTTR), and the stream lost nothing: every CPI completed with
  // detections, none shed.
  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 1u);
  EXPECT_EQ(heals[0].kind, EventKind::kHealSpare);
  EXPECT_STREQ(heals[0].cause, "quarantine");
  EXPECT_EQ(heals[0].rank, victim);
  EXPECT_GT(heals[0].seconds, 0.0);
  EXPECT_TRUE(res.faults.shed_cpis.empty());
  EXPECT_GT(res.events.count(EventKind::kStageSlowdown), 0u);
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  const auto ref = sequential_reference(f, n_cpis);
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    const auto i = static_cast<size_t>(cpi);
    EXPECT_GT(res.completion_times[i], 0.0) << "cpi " << cpi;
    EXPECT_EQ(res.detections[i].size(), ref[i].size()) << "cpi " << cpi;
  }
}

TEST(HealthPipeline, QuarantineDisabledStillDetects) {
  auto f = Fixture::make();
  NodeAssignment a{{2, 1, 1, 1, 1, 1, 1}};
  FaultPlan plan;
  plan.add(FaultPlan::slow_rank(/*rank=*/1, 12.0));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  par.set_fault_plan(&plan);
  HealthConfig hc = e2e_config();
  hc.quarantine = false;  // detect-and-ledger only
  par.set_health(hc);
  auto res = par.run(gen, 14, /*warmup=*/1, /*cooldown=*/1);

  EXPECT_GE(res.events.count(EventKind::kSuspect), 1u);
  EXPECT_EQ(res.events.count(EventKind::kQuarantine), 0u);
  EXPECT_TRUE(res.events.heals().empty());  // nobody died
  bool victim_suspected = false;
  for (const auto& e : res.events.of(EventKind::kSuspect))
    if (e.rank == 1) victim_suspected = true;
  EXPECT_TRUE(victim_suspected);
  // The straggler's service floor visibly dominates its peer's: the 12x
  // stretch is multiplicative, so it survives the window minimum, while
  // the peer's floor sits at its true compute cost.
  double victim_floor = 0.0, peer_floor = 0.0;
  for (const auto& r : res.events.of(EventKind::kRankHealth)) {
    if (r.rank == 1) victim_floor = r.seconds;
    if (r.rank == 0) peer_floor = r.seconds;
  }
  EXPECT_GT(victim_floor, 2.0 * peer_floor);
}

}  // namespace
}  // namespace ppstap::core
