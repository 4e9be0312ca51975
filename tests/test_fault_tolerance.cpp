// End-to-end fault-tolerance tests for the pipelined STAP runtime: a
// killed weight rank fails over to the spare with bit-exact detections, an
// injected in-flight delay sheds exactly the CPI it stalls, and a
// corrupted frame is repaired by retransmission — all with deterministic,
// seeded fault plans (see comm/fault.hpp for the replay guarantee).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "comm/fault.hpp"
#include "dsp/waveform.hpp"
#include "common/timer.hpp"
#include "core/assignment.hpp"
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

// Pipeline tag layout (pipeline.cpp): tag = cpi * kTagStride + edge.
constexpr int kTagStride = 16;
constexpr int kEdgeDopToEasyWt = 0;
constexpr int kEdgeDopToHardWt = 1;
constexpr int kEdgeDopToEasyBf = 2;
constexpr int kEdgeEasyBfToPc = 6;

int tag_for(index_t cpi, int edge) {
  return static_cast<int>(cpi) * kTagStride + edge;
}

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

void expect_cpi_matches(const std::vector<stap::Detection>& got,
                        const std::vector<stap::Detection>& ref,
                        index_t cpi) {
  ASSERT_EQ(got.size(), ref.size()) << "cpi=" << cpi;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doppler_bin, ref[i].doppler_bin) << "cpi=" << cpi;
    EXPECT_EQ(got[i].beam, ref[i].beam) << "cpi=" << cpi;
    EXPECT_EQ(got[i].range, ref[i].range) << "cpi=" << cpi;
    EXPECT_NEAR(got[i].power, ref[i].power,
                2e-2f * std::abs(ref[i].power) + 1e-5f)
        << "cpi=" << cpi;
  }
}

// Every shed CPI has exactly one recorded cause: its earliest origin, with
// a cause from the fixed set.
void expect_shed_causes(const PipelineResult& res) {
  for (const index_t cpi : res.faults.shed_cpis) {
    const Event* e = res.events.shed_cause(cpi);
    ASSERT_NE(e, nullptr) << "cpi=" << cpi;
    const std::string cause = e->cause;
    EXPECT_TRUE(cause == "admission" || cause == "timeout" ||
                cause == "dead_peer" || cause == "corrupt" ||
                cause == "abft" || cause == "sweep")
        << "cpi=" << cpi << " cause=" << cause;
  }
}

TEST(FaultTolerance, FaultFreeRunHasCleanLedger) {
  auto f = Fixture::make();
  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, NodeAssignment{}, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  auto res = par.run(gen, 4, /*warmup=*/1, /*cooldown=*/1);
  EXPECT_TRUE(res.faults.clean());
  EXPECT_TRUE(res.events.records.empty());
}

// The acceptance scenario: kill the hard-weight rank mid-stream. The spare
// must restore the checkpointed adaptive state, take over the intact
// mailbox, and resume at exactly the CPI the dead rank would have
// processed next — detections match the sequential reference exactly and
// the ledger records exactly one failover with a measured stall.
TEST(FaultTolerance, HardWeightKillFailsOverWithExactDetections) {
  auto f = Fixture::make();
  const index_t n_cpis = 6;
  const index_t kill_cpi = 2;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;  // all ones: hard weight task is global rank 2
  const int victim = a.first_rank(Task::kHardWeight);

  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(victim,
                                   tag_for(kill_cpi, kEdgeDopToHardWt)));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  FaultToleranceConfig ft;
  ft.spares = 1;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // Every CPI completed and matches the fault-free sequential reference.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);

  EXPECT_TRUE(res.faults.shed_cpis.empty());
  EXPECT_EQ(res.events.count(EventKind::kKill), 1u);
  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 1u);
  const auto& ev = heals[0];
  EXPECT_EQ(ev.kind, EventKind::kHealSpare);
  EXPECT_STREQ(ev.cause, "death");
  EXPECT_EQ(ev.rank, victim);
  EXPECT_EQ(ev.task, static_cast<int>(Task::kHardWeight));
  EXPECT_EQ(ev.cpi, kill_cpi);
  EXPECT_GT(ev.seconds, 0.0);
}

TEST(FaultTolerance, EasyWeightKillFailsOverWithExactDetections) {
  auto f = Fixture::make();
  const index_t n_cpis = 6;
  const index_t kill_cpi = 3;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;
  const int victim = a.first_rank(Task::kEasyWeight);

  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(victim,
                                   tag_for(kill_cpi, kEdgeDopToEasyWt)));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  FaultToleranceConfig ft;
  ft.spares = 1;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 1u);
  EXPECT_EQ(heals[0].kind, EventKind::kHealSpare);
  EXPECT_EQ(heals[0].rank, victim);
  EXPECT_EQ(heals[0].task, static_cast<int>(Task::kEasyWeight));
  EXPECT_EQ(heals[0].cpi, kill_cpi);
}

// Deadline shedding under an injected in-flight delay: the stalled CPI is
// shed (empty detections, recorded in the ledger), every other CPI matches
// the sequential reference, and throughput stays within 20% of the
// fault-free baseline measured under the same build and load.
TEST(FaultTolerance, DeadlineSheddingUnderInjectedDelay) {
  auto f = Fixture::make();
  const index_t n_cpis = 50;
  const index_t shed_cpi = n_cpis / 2;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;
  ScenarioGenerator gen(f.sp);
  const std::vector<cfloat> replica{gen.replica().begin(),
                                    gen.replica().end()};

  // Calibrate the deadline from a fault-free baseline under the *same*
  // build and machine load (keeps the test robust under sanitizers): the
  // per-CPI budget is several pipeline periods, and the injected delay is
  // several budgets, so the stalled CPI must miss and no healthy CPI can.
  ParallelStapPipeline base(f.p, a, f.steering(), replica);
  const double w0 = WallTimer::now();
  auto res0 = base.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);
  const double baseline_wall = WallTimer::now() - w0;
  ASSERT_TRUE(res0.faults.clean());
  const double period = baseline_wall / static_cast<double>(n_cpis);
  const double deadline = std::max(5.0 * period, 0.05);

  FaultPlan plan;
  plan.add(FaultPlan::delay_message(
      a.first_rank(Task::kDopplerFilter),
      a.first_rank(Task::kEasyBeamform),
      tag_for(shed_cpi, kEdgeDopToEasyBf), 3.0 * deadline));

  ParallelStapPipeline par(f.p, a, f.steering(), replica);
  FaultToleranceConfig ft;
  ft.shedding = true;
  ft.cpi_deadline_seconds = deadline;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // Exactly the stalled CPI was shed, and it is fully accounted: no
  // detections, present in the ledger, delay counted.
  ASSERT_EQ(res.faults.shed_cpis, std::vector<index_t>{shed_cpi});
  EXPECT_TRUE(res.detections[static_cast<size_t>(shed_cpi)].empty());
  EXPECT_GE(res.events.count(EventKind::kFrameDelayed), 1u);
  EXPECT_EQ(res.events.count(EventKind::kHealSpare), 0u);
  // The shed originated in a receive that timed out: the easy beamformer
  // waiting on the delayed frame, or a stage behind it whose own deadline
  // ran out first.
  expect_shed_causes(res);
  const Event* cause = res.events.shed_cause(shed_cpi);
  ASSERT_NE(cause, nullptr);
  EXPECT_STREQ(cause->cause, "timeout");

  // Every non-shed CPI still matches the sequential reference exactly.
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    if (cpi == shed_cpi) continue;
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
  }

  // Shedding bounded the damage: the stalled edge costs at most the
  // injected delay plus one detection deadline of wall time, amortized
  // over the stream. The bound is stated in those absolute terms — a
  // fixed throughput fraction would silently tighten whenever the
  // kernels get faster, because the stall is wall time, not work.
  ASSERT_GT(res0.throughput, 0.0);
  ASSERT_GT(res.throughput, 0.0);
  const double stall_share = baseline_wall / (baseline_wall + 4.0 * deadline);
  EXPECT_GT(res.throughput, 0.8 * stall_share * res0.throughput);
}

// A corrupted inter-task frame is repaired transparently by the
// retransmission path: results are exact and the ledger shows the repair.
TEST(FaultTolerance, CorruptedFrameIsRetransmittedExactly) {
  auto f = Fixture::make();
  const index_t n_cpis = 5;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;
  FaultPlan plan;
  plan.add(FaultPlan::corrupt_message(
      a.first_rank(Task::kDopplerFilter), a.first_rank(Task::kEasyBeamform),
      tag_for(2, kEdgeDopToEasyBf)));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
  EXPECT_EQ(res.events.count(EventKind::kFrameCorrupted), 1u);
  EXPECT_GE(res.faults.retransmissions, 1u);
  EXPECT_TRUE(res.faults.shed_cpis.empty());
}

// Combined fault: the overload ladder held at stale-weight reuse while the
// hard-weight rank is killed mid-stream. The spare must restore the
// checkpointed recursive state and resume, the throttled admission keeps
// the stream lossless, and no CPI ever sees non-finite output.
TEST(FaultTolerance, StaleWeightReuseSurvivesSpareFailover) {
  auto f = Fixture::make();
  // The backlog only builds when the stages *behind* admission are the
  // bottleneck: widen the beam set (beamform + pulse compression scale
  // with M) and make CPI generation cheap, with the matched filter still
  // supplied to the pipeline.
  f.p.num_beams = 16;
  f.p.num_range = 96;
  f.p.validate();
  f.sp.num_range = f.p.num_range;
  f.sp.chirp_length = 0;
  const index_t n_cpis = 10;
  const index_t kill_cpi = 5;

  NodeAssignment a;
  const int victim = a.first_rank(Task::kHardWeight);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(victim,
                                   tag_for(kill_cpi, kEdgeDopToHardWt)));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(), dsp::lfm_chirp(8));
  FaultToleranceConfig ft;
  ft.spares = 1;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);

  // A one-deep throttled queue pins the backlog at queue_high for every
  // admission after the pipeline fills, so the proportional ladder climbs
  // to the stale-weight rung and stays there (dwell blocks de-escalation).
  // Throttle mode means overload never drops a CPI — the two mechanisms
  // must compose losslessly.
  OverloadConfig ov;
  ov.enabled = true;
  ov.queue_low = 1;
  ov.queue_high = 2;
  ov.dwell = 100;
  ov.reject_when_full = false;
  par.set_overload(ov);

  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // The failover happened and was recorded.
  EXPECT_EQ(res.events.count(EventKind::kKill), 1u);
  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 1u);
  EXPECT_EQ(heals[0].kind, EventKind::kHealSpare);
  EXPECT_EQ(heals[0].rank, victim);
  EXPECT_EQ(heals[0].task, static_cast<int>(Task::kHardWeight));
  EXPECT_EQ(heals[0].cpi, kill_cpi);

  // The ladder reached stale-weight reuse; throttling (not rejection)
  // absorbed the pressure, so nothing was shed.
  EXPECT_EQ(res.events.max_level(), 3);
  EXPECT_TRUE(res.overload.rejected_cpis.empty());
  EXPECT_GE(res.events.count(EventKind::kThrottle), 1u);
  EXPECT_TRUE(res.faults.shed_cpis.empty());

  // Degraded output is still *valid* output: every CPI produced a (possibly
  // reduced) detection list with finite powers — stale weights and the
  // restored checkpoint never propagate NaN/Inf downstream.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  for (const auto& cpi_dets : res.detections)
    for (const auto& d : cpi_dets) {
      EXPECT_TRUE(std::isfinite(d.power));
      EXPECT_TRUE(std::isfinite(d.threshold));
    }
  for (const EventKind k :
       {EventKind::kNonfiniteTraining, EventKind::kLoadingRetry,
        EventKind::kQuiescentFallback, EventKind::kQrResidualRetry,
        EventKind::kQrResidualReject})
    EXPECT_EQ(res.events.count(k), 0u) << info(k).counter;
}

// PR 7 (satellite): the single spare covers exactly one weight-rank
// failure. A *second* weight-rank death after the spare is consumed used
// to stall receivers forever (the dead rank stayed marked recoverable, so
// peers waited for a takeover that could never come). Now the takeover
// downgrades every remaining weight rank to unrecoverable: the second
// death surfaces promptly, the CPIs that needed the dead rank's weights
// are shed, and the event log records the uncovered failure.
TEST(FaultTolerance, SecondWeightDeathIsUncoveredNotWedged) {
  auto f = Fixture::make();
  const index_t n_cpis = 10;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;
  const int first_victim = a.first_rank(Task::kHardWeight);
  const int second_victim = a.first_rank(Task::kEasyWeight);

  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(first_victim,
                                   tag_for(2, kEdgeDopToHardWt)));
  plan.add(FaultPlan::kill_on_recv(second_victim,
                                   tag_for(5, kEdgeDopToEasyWt)));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  FaultToleranceConfig ft;
  ft.spares = 1;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // One covered failure, one uncovered: the single spare absorbed exactly
  // one of the two weight-rank deaths and the other found the pool empty.
  // Which rank dies first is a scheduling race (each kill triggers on its
  // victim's own recv), so the assertion is on the partition, not the
  // order: the covered and uncovered ranks must together be exactly the
  // two victims.
  EXPECT_EQ(res.events.count(EventKind::kKill), 2u);
  const auto spares = res.events.of(EventKind::kHealSpare);
  const auto lost = res.events.of(EventKind::kHealUncovered);
  ASSERT_EQ(spares.size(), 1u);
  ASSERT_EQ(lost.size(), 1u);
  const int covered = spares[0].rank;
  const int uncovered = lost[0].rank;
  EXPECT_NE(covered, uncovered);
  EXPECT_TRUE(covered == first_victim || covered == second_victim);
  EXPECT_TRUE(uncovered == first_victim || uncovered == second_victim);
  expect_shed_causes(res);

  // Drained, not wedged: the stream produced a verdict for every CPI.
  // CPIs that needed the dead rank's send-ahead weights either ride the
  // stale-weight fallback or land in the shed ledger; which of the two
  // depends on how far ahead the weight stream had run when the kill
  // landed, so no particular shed set (or a nonempty one) is asserted.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  std::vector<bool> shed(static_cast<size_t>(n_cpis), false);
  for (index_t s : res.faults.shed_cpis) shed[static_cast<size_t>(s)] = true;
  for (index_t cpi = 0; cpi < 5 && cpi < n_cpis; ++cpi) {
    if (shed[static_cast<size_t>(cpi)]) continue;
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
  }
}

// Combined fault: a frame whose every retransmitted copy is corrupted
// again. The receiver burns the whole retransmission budget, gives up on
// exactly that CPI (shed, not crash), and the rest of the stream is exact.
TEST(FaultTolerance, PersistentCorruptionExhaustsRetransmissionAndSheds) {
  auto f = Fixture::make();
  const index_t n_cpis = 5;
  const index_t bad_cpi = 2;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;
  FaultPlan plan;
  plan.add(FaultPlan::corrupt_message(
      a.first_rank(Task::kDopplerFilter), a.first_rank(Task::kEasyBeamform),
      tag_for(bad_cpi, kEdgeDopToEasyBf), /*max_applications=*/-1));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  FaultToleranceConfig ft;
  // Shedding gives receives a deadline, which is what turns an exhausted
  // retransmission budget into a shed CPI instead of a hard failure. The
  // budget itself is generous: no healthy CPI can miss it.
  ft.shedding = true;
  ft.cpi_deadline_seconds = 10.0;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // The poisoned CPI was shed after the full retransmission budget
  // (1 original + 5 refetches, every copy corrupted again).
  ASSERT_EQ(res.faults.shed_cpis, std::vector<index_t>{bad_cpi});
  EXPECT_TRUE(res.detections[static_cast<size_t>(bad_cpi)].empty());
  EXPECT_GE(res.faults.retransmissions, 5u);
  EXPECT_GE(res.events.count(EventKind::kFrameCorrupted), 5u);
  EXPECT_EQ(res.events.count(EventKind::kHealSpare), 0u);
  expect_shed_causes(res);
  ASSERT_NE(res.events.shed_cause(bad_cpi), nullptr);
  EXPECT_STREQ(res.events.shed_cause(bad_cpi)->cause, "corrupt");

  // Every other CPI is untouched — still exact against the sequential
  // reference.
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    if (cpi == bad_cpi) continue;
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
  }
}

// PR 8 (tentpole): correlated failure of *both* weight ranks in the same
// CPI. With a two-member spare pool each corpse is claimed by its own
// spare, both roles restore from their per-CPI checkpoints, and the whole
// stream stays bit-exact — two concurrent recoveries compose.
TEST(FaultTolerance, CorrelatedWeightKillsBothHealWithPool) {
  auto f = Fixture::make();
  const index_t n_cpis = 8;
  const index_t kill_cpi = 3;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;
  const int easy_victim = a.first_rank(Task::kEasyWeight);
  const int hard_victim = a.first_rank(Task::kHardWeight);

  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(easy_victim,
                                   tag_for(kill_cpi, kEdgeDopToEasyWt)));
  plan.add(FaultPlan::kill_on_recv(hard_victim,
                                   tag_for(kill_cpi, kEdgeDopToHardWt)));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  FaultToleranceConfig ft;
  ft.spares = 2;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // Both deaths were covered — nothing shed, nothing uncovered.
  EXPECT_EQ(res.events.count(EventKind::kKill), 2u);
  EXPECT_TRUE(res.faults.shed_cpis.empty());

  // One spare takeover per corpse, each with a positive MTTR, and no
  // shrink or uncovered records.
  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 2u);
  std::vector<int> healed;
  for (const auto& ev : heals) {
    EXPECT_EQ(ev.kind, EventKind::kHealSpare);
    healed.push_back(ev.rank);
    EXPECT_EQ(ev.cpi, kill_cpi);
    EXPECT_GT(ev.seconds, 0.0);
  }
  std::sort(healed.begin(), healed.end());
  EXPECT_EQ(healed, (std::vector<int>{easy_victim, hard_victim}));

  // Checkpoint restore on both branches keeps the stream bit-exact.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
}

// PR 8 (tentpole): with no spare pool at all, a permanently dead pulse-
// compression rank heals by shrinking the group to the survivor through
// the elastic quiesce/re-plan/commit protocol. The stream drains (the
// in-flight CPIs that needed the corpse are shed and recorded), the
// event log records the shrink with its MTTR, and every CPI after
// the commit is exact on the reduced topology.
TEST(FaultTolerance, PermanentPcDeathShrinksToSurvivor) {
  auto f = Fixture::make();
  const index_t n_cpis = 14;
  const index_t kill_cpi = 3;
  const auto ref = sequential_reference(f, n_cpis);

  NodeAssignment a;
  a.nodes = {1, 1, 1, 1, 1, 2, 1};  // two PC ranks: shrinkable group
  const int victim = a.first_rank(Task::kPulseCompression);

  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(victim,
                                   tag_for(kill_cpi, kEdgeEasyBfToPc)));

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  FaultToleranceConfig ft;
  ft.heal_shrink = true;
  // Shedding (with a budget no healthy CPI can miss — these CPIs compute
  // in milliseconds) is what lets the CPIs stranded by the death drain as
  // ledgered sheds instead of errors; with heal_shrink armed the budget
  // also bounds how long a dead-peer edge is held open awaiting the
  // re-route, so it directly paces the recovery window.
  ft.shedding = true;
  ft.cpi_deadline_seconds = 1.5;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);

  // Stranded ranks creep one CPI per deadline until the barrier; give the
  // vote collection enough budget to wait for the slowest of them.
  ElasticConfig el;
  el.stall_budget_seconds = 15.0;
  par.set_elastic(el);

  // Bounded-queue throttling (ladder off: no degradation, output stays
  // exact) keeps the source within a few CPIs of the sink, so the death
  // is detected while the shrink barrier still fits inside the stream —
  // a free-running source could drain the whole stream into mailboxes
  // before the coordinator ever sees the corpse.
  OverloadConfig ov;
  ov.enabled = true;
  ov.ladder = false;
  ov.queue_low = 2;
  ov.queue_high = 3;
  ov.reject_when_full = false;
  par.set_overload(ov);

  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // The death healed by shrink: ledgered with a positive MTTR (death to
  // epoch commit), not as an uncovered failure, and the reduced capacity
  // was reported.
  EXPECT_EQ(res.events.count(EventKind::kKill), 1u);
  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 1u);
  const auto& ev = heals[0];
  EXPECT_EQ(ev.kind, EventKind::kHealShrink);
  EXPECT_EQ(ev.rank, victim);
  EXPECT_EQ(ev.task, static_cast<int>(Task::kPulseCompression));
  EXPECT_GT(ev.seconds, 0.0);
  EXPECT_GT(ev.cpi, kill_cpi);
  EXPECT_EQ(res.events.count(EventKind::kCapacityLoss), 1u);
  EXPECT_TRUE(res.overload.rejected_cpis.empty());
  expect_shed_causes(res);

  // Drained, not wedged: every CPI either completed or is in the shed
  // ledger; the killed CPI itself is necessarily among the sheds, and the
  // commit left at least one post-shrink CPI to prove the reduced
  // topology works.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  std::vector<bool> shed(static_cast<size_t>(n_cpis), false);
  for (index_t sidx : res.faults.shed_cpis)
    shed[static_cast<size_t>(sidx)] = true;
  EXPECT_TRUE(shed[static_cast<size_t>(kill_cpi)]);
  EXPECT_LT(ev.cpi, n_cpis - 1);
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    if (shed[static_cast<size_t>(cpi)]) {
      EXPECT_TRUE(res.detections[static_cast<size_t>(cpi)].empty());
      continue;
    }
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
  }
}

}  // namespace
}  // namespace ppstap::core
