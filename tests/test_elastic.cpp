// Live elastic rank migration tests: topology algebra, the transactional
// two-phase commit on a live stream (bit-exact detections across a
// committed migration), and rollback-not-wedge under faults injected
// inside the migration window (dropped votes, a killed migrating rank, a
// killed coordinator), plus the overload-assist rung.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "comm/fault.hpp"
#include "common/check.hpp"
#include "dsp/waveform.hpp"
#include "core/assignment.hpp"
#include "core/elastic.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "stap/sequential.hpp"
#include "synth/steering.hpp"

namespace ppstap::core {
namespace {

using comm::FaultPlan;
using comm::FaultPoint;
using comm::FaultRule;
using comm::FaultType;
using stap::StapParams;
using stap::Task;
using synth::ScenarioGenerator;
using synth::ScenarioParams;
using synth::Target;

// Protocol tag layout (elastic.cpp): tag = barrier_cpi * 16 + slot, with
// slot 10 = VOTE and 11 = VERDICT. The (tag % period == phase) rule form
// targets the protocol messages of *any* barrier CPI, which is how the
// chaos rules below land inside the migration window without knowing the
// barrier the engine will pick.
constexpr int kTagStride = 16;
constexpr int kVoteSlot = 10;

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

/// Doppler and pulse compression get two ranks each so either can donate.
NodeAssignment elastic_assignment() {
  NodeAssignment a;
  a[Task::kDopplerFilter] = 2;
  a[Task::kPulseCompression] = 2;
  return a;
}

ElasticConfig forced_pc_to_doppler(index_t at_cpi) {
  ElasticConfig el;
  el.forced.push_back(ForcedMigration{at_cpi, Task::kPulseCompression,
                                      Task::kDopplerFilter});
  return el;
}

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

/// Bitwise comparison of two parallel runs on the same stream: a committed
/// migration only re-fans the per-rank partitions of per-cell-independent
/// stages, so it must not perturb a single output bit.
void expect_streams_identical(const PipelineResult& got,
                              const PipelineResult& want) {
  ASSERT_EQ(got.detections.size(), want.detections.size());
  for (size_t cpi = 0; cpi < got.detections.size(); ++cpi) {
    const auto& g = got.detections[cpi];
    const auto& w = want.detections[cpi];
    ASSERT_EQ(g.size(), w.size()) << "cpi=" << cpi;
    for (size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].doppler_bin, w[i].doppler_bin) << "cpi=" << cpi;
      EXPECT_EQ(g[i].beam, w[i].beam) << "cpi=" << cpi;
      EXPECT_EQ(g[i].range, w[i].range) << "cpi=" << cpi;
      EXPECT_EQ(g[i].power, w[i].power) << "cpi=" << cpi;
      EXPECT_EQ(g[i].threshold, w[i].threshold) << "cpi=" << cpi;
    }
  }
}

TEST(ElasticTopology, InitialLayoutAssignsContiguousRanks) {
  auto f = Fixture::make();
  const NodeAssignment a = elastic_assignment();
  const Topology t = Topology::initial(f.p, a);
  EXPECT_EQ(t.total(), a.total());
  int expected = 0;
  for (int task = 0; task < stap::kNumTasks; ++task) {
    const Task tt = static_cast<Task>(task);
    ASSERT_EQ(t.count(tt), a.nodes[static_cast<size_t>(task)]);
    for (int l = 0; l < t.count(tt); ++l) {
      EXPECT_EQ(t.rank_at(tt, l), expected);
      const Topology::Role role = t.role_of(expected);
      EXPECT_EQ(role.task, tt);
      EXPECT_EQ(role.local, l);
      ++expected;
    }
  }
  EXPECT_EQ(t.part_k.parts(), 2);
  EXPECT_EQ(t.part_pc.parts(), 2);
}

TEST(ElasticTopology, MigratedMovesDonorsLastRankOnly) {
  auto f = Fixture::make();
  const Topology t0 = Topology::initial(f.p, elastic_assignment());
  const Topology t1 =
      t0.migrated(f.p, Task::kPulseCompression, Task::kDopplerFilter);

  const int mover = t0.rank_at(Task::kPulseCompression, 1);
  EXPECT_EQ(t1.count(Task::kPulseCompression), 1);
  EXPECT_EQ(t1.count(Task::kDopplerFilter), 3);
  EXPECT_EQ(t1.rank_at(Task::kDopplerFilter, 2), mover);
  // Every non-migrating rank keeps its (task, local) slot.
  for (int task = 0; task < stap::kNumTasks; ++task) {
    const Task tt = static_cast<Task>(task);
    for (int l = 0; l < t1.count(tt); ++l) {
      if (tt == Task::kDopplerFilter && l == 2) continue;
      EXPECT_EQ(t1.rank_at(tt, l), t0.rank_at(tt, l));
    }
  }
  // Partitions are rebuilt for the new fan-out; checksums disagree, which
  // is what the vote compares.
  EXPECT_EQ(t1.part_k.parts(), 3);
  EXPECT_EQ(t1.part_pc.parts(), 1);
  EXPECT_NE(t0.checksum(), t1.checksum());

  // Weight groups never migrate, and a donor must keep one rank.
  EXPECT_THROW(
      (void)t0.migrated(f.p, Task::kEasyWeight, Task::kDopplerFilter),
      Error);
  EXPECT_THROW((void)t1.migrated(f.p, Task::kPulseCompression, Task::kCfar),
               Error);
  EXPECT_THROW((void)t0.migrated(f.p, Task::kCfar, Task::kCfar), Error);
}

TEST(ElasticConfigTest, ValidateRejectsInconsistentKnobs) {
  ElasticConfig el;
  el.validate();  // defaults are consistent
  el.horizon_cpis = 0;
  EXPECT_THROW(el.validate(), Error);
  el = ElasticConfig{};
  el.stall_budget_seconds = 0.0;
  EXPECT_THROW(el.validate(), Error);
  el = ElasticConfig{};
  el.forced.push_back(
      ForcedMigration{-1, Task::kPulseCompression, Task::kDopplerFilter});
  EXPECT_THROW(el.validate(), Error);
  el = ElasticConfig{};
  el.forced.push_back(ForcedMigration{2, Task::kCfar, Task::kCfar});
  EXPECT_THROW(el.validate(), Error);
  el = ElasticConfig{};
  el.forced.push_back(
      ForcedMigration{2, Task::kHardWeight, Task::kDopplerFilter});
  EXPECT_THROW(el.validate(), Error);
}

// The acceptance scenario: a clean forced migration (pulse compression
// donates its second rank to Doppler filtering) commits at a barrier ahead
// of every rank's progress, the migrating rank switches roles mid-stream,
// and the detections are bitwise identical to a run that never migrated —
// and match the sequential reference.
TEST(ElasticMigration, ForcedMigrationCommitsBitExact) {
  auto f = Fixture::make();
  const index_t n_cpis = 20;
  const auto ref = sequential_reference(f, n_cpis);
  const NodeAssignment a = elastic_assignment();

  ScenarioGenerator gen_base(f.sp);
  ParallelStapPipeline base(f.p, a, f.steering(),
                            {gen_base.replica().begin(),
                             gen_base.replica().end()});
  auto res_base = base.run(gen_base, n_cpis, /*warmup=*/1, /*cooldown=*/1);
  ASSERT_TRUE(res_base.events.migrations().empty());

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  par.set_elastic(forced_pc_to_doppler(/*at_cpi=*/4));
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  const auto attempts = res.events.migrations();
  ASSERT_EQ(attempts.size(), 1u);
  const Event& e = attempts[0];
  EXPECT_EQ(e.kind, EventKind::kMigrationCommit);
  EXPECT_STREQ(e.cause, "forced");
  EXPECT_STREQ(e.note, "");
  EXPECT_EQ(e.task, static_cast<int>(Task::kPulseCompression));
  EXPECT_EQ(e.peer, static_cast<int>(Task::kDopplerFilter));
  EXPECT_EQ(e.rank, a.first_rank(Task::kPulseCompression) + 1);
  EXPECT_GE(e.cpi, 4);
  EXPECT_LE(e.cpi, n_cpis - 2);
  EXPECT_GE(barrier_stall_seconds(res, e.cpi), 0.0);

  // Zero lost or duplicated CPIs, and the sink timestamped every one.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  ASSERT_EQ(res.completion_times.size(), static_cast<size_t>(n_cpis));
  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    EXPECT_GT(res.completion_times[static_cast<size_t>(cpi)], 0.0)
        << "cpi=" << cpi;
  EXPECT_TRUE(res.faults.clean());

  expect_streams_identical(res, res_base);
  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
}

// A dropped VOTE starves the coordinator past the stall budget: the
// attempt rolls back, nothing was changed (the epoch is published only on
// commit), and the whole stream remains exact under the old topology.
TEST(ElasticMigration, DroppedVoteRollsBackAndStreamStaysExact) {
  auto f = Fixture::make();
  const index_t n_cpis = 16;
  const auto ref = sequential_reference(f, n_cpis);
  const NodeAssignment a = elastic_assignment();
  const int migrating = a.first_rank(Task::kPulseCompression) + 1;

  FaultPlan plan;
  FaultRule drop_vote;
  drop_vote.type = FaultType::kDrop;
  drop_vote.point = FaultPoint::kSend;
  drop_vote.src = migrating;
  drop_vote.dest = a.first_rank(Task::kDopplerFilter);
  drop_vote.tag_period = kTagStride;
  drop_vote.tag_phase = kVoteSlot;
  plan.add(drop_vote);

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  ElasticConfig el = forced_pc_to_doppler(/*at_cpi=*/4);
  el.stall_budget_seconds = 0.5;  // the rollback path pays this in full
  par.set_elastic(el);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  const auto attempts = res.events.migrations();
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0].kind, EventKind::kMigrationRollback);
  EXPECT_STREQ(attempts[0].note, "vote_timeout");
  EXPECT_GE(res.events.count(EventKind::kFrameDropped), 1u);
  EXPECT_TRUE(res.faults.shed_cpis.empty());

  // Rollback restored nothing because nothing changed: the stream is
  // complete and exact under the pre-migration topology.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                       ref[static_cast<size_t>(cpi)], cpi);
}

// The migrating rank itself dies inside the migration window (killed on
// the VOTE send). The coordinator must roll back — committing would
// publish a topology with a dead member — and the stream must keep
// draining: CPIs the dead pulse-compression rank owned are shed, never
// lost silently, and everything before the kill stays exact.
TEST(ElasticMigration, KilledMigratingRankRollsBackNotWedge) {
  auto f = Fixture::make();
  const index_t n_cpis = 16;
  const auto ref = sequential_reference(f, n_cpis);
  const NodeAssignment a = elastic_assignment();
  const int migrating = a.first_rank(Task::kPulseCompression) + 1;

  FaultPlan plan;
  FaultRule kill_vote;
  kill_vote.type = FaultType::kKill;
  kill_vote.point = FaultPoint::kSend;
  kill_vote.src = migrating;
  kill_vote.tag_period = kTagStride;
  kill_vote.tag_phase = kVoteSlot;
  plan.add(kill_vote);

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  ElasticConfig el = forced_pc_to_doppler(/*at_cpi=*/4);
  el.stall_budget_seconds = 1.0;
  par.set_elastic(el);
  FaultToleranceConfig ft;
  ft.shedding = true;
  ft.cpi_deadline_seconds = 10.0;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  EXPECT_EQ(res.events.count(EventKind::kKill), 1u);
  const auto attempts = res.events.migrations();
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0].kind, EventKind::kMigrationRollback);
  const std::string reason = attempts[0].note;
  EXPECT_TRUE(reason == "migrating_rank_dead" ||
              reason == "vote_peer_dead" || reason == "vote_timeout")
      << reason;

  // The stream drained: every CPI either produced detections or is in the
  // shed ledger (the dead rank's doppler-bin slice is unrecoverable).
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  EXPECT_FALSE(res.faults.shed_cpis.empty());
  std::vector<bool> shed(static_cast<size_t>(n_cpis), false);
  for (index_t s : res.faults.shed_cpis) shed[static_cast<size_t>(s)] = true;
  const index_t barrier = attempts[0].cpi;
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    if (shed[static_cast<size_t>(cpi)]) continue;
    // Non-shed CPIs after a rollback are still exact; the kill can only
    // have removed output, never corrupted it.
    if (cpi < barrier)
      expect_cpi_matches(res.detections[static_cast<size_t>(cpi)],
                         ref[static_cast<size_t>(cpi)], cpi);
  }
}

// The coordinator dies while collecting votes. The outcome CAS lets any
// participant resolve the attempt (rollback on coordinator death), so the
// stream must not wedge even though the lead Doppler rank is gone.
TEST(ElasticMigration, KilledCoordinatorRollsBackNotWedge) {
  auto f = Fixture::make();
  const index_t n_cpis = 16;
  const NodeAssignment a = elastic_assignment();

  FaultPlan plan;
  FaultRule kill_coord;
  kill_coord.type = FaultType::kKill;
  kill_coord.point = FaultPoint::kRecv;
  kill_coord.dest = a.first_rank(Task::kDopplerFilter);
  kill_coord.tag_period = kTagStride;
  kill_coord.tag_phase = kVoteSlot;
  plan.add(kill_coord);

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  ElasticConfig el = forced_pc_to_doppler(/*at_cpi=*/4);
  el.stall_budget_seconds = 0.5;
  par.set_elastic(el);
  FaultToleranceConfig ft;
  ft.shedding = true;
  ft.cpi_deadline_seconds = 10.0;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  auto& rolled_back =
      obs::Registry::global().counter("elastic.migrations_rolled_back");
  const std::uint64_t rolled_back0 = rolled_back.value();
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  EXPECT_EQ(res.events.count(EventKind::kKill), 1u);
  const auto attempts = res.events.migrations();
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0].kind, EventKind::kMigrationRollback);
  // The counter derives from the same record, so an attempt still pending
  // when the stream drained counts as rolled back there too.
  EXPECT_EQ(rolled_back.value() - rolled_back0,
            res.events.count(EventKind::kMigrationRollback));
  // Whoever won the CAS attributed the rollback; all of these name the
  // same failure (the coordinator never answered).
  const std::string reason = attempts[0].note;
  EXPECT_TRUE(reason == "coordinator_dead" || reason == "verdict_timeout" ||
              reason == "unresolved_at_exit")
      << reason;
  // Rollback-not-wedge: the run returned with every CPI accounted for.
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  EXPECT_FALSE(res.faults.shed_cpis.empty());
}

// The overload ladder's elastic-assist rung: under sustained backlog the
// controller asks the engine for capacity before degrading past reduced
// beams, and the engine answers with an "overload"-triggered migration
// toward the gating group.
TEST(ElasticMigration, OverloadAssistMigratesBeforeDegrading) {
  auto f = Fixture::make();
  // Load shaping (same trick as the overload tests): wide beam set makes
  // the post-admission stages the bottleneck, so the backlog pins at
  // queue_high and the ladder wants to climb past reduced beams.
  f.p.num_beams = 16;
  f.p.num_range = 96;
  f.p.validate();
  f.sp.num_range = f.p.num_range;
  f.sp.chirp_length = 0;
  const index_t n_cpis = 12;
  const NodeAssignment a = elastic_assignment();

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(), dsp::lfm_chirp(8));
  ElasticConfig el;
  el.enabled = true;  // installs the engine + assist hook; policy loop has
                      // no trace feed in tests, so only the assist fires
  par.set_elastic(el);
  OverloadConfig ov;
  ov.enabled = true;
  ov.queue_low = 1;
  ov.queue_high = 2;
  ov.dwell = 100;
  ov.reject_when_full = false;
  par.set_overload(ov);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // The assist was consulted and proposed a migration; on this clean run
  // it must have resolved (either way — commit needs the barrier to land
  // inside the stream).
  const auto attempts = res.events.migrations();
  ASSERT_GE(attempts.size(), 1u);
  EXPECT_STREQ(attempts[0].cause, "overload");
  EXPECT_GE(res.events.count(EventKind::kElasticAssist), 1u);
  // Lossless composition: throttle mode + migration never drops a CPI.
  EXPECT_TRUE(res.overload.rejected_cpis.empty());
  EXPECT_TRUE(res.faults.shed_cpis.empty());
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
  for (const auto& cpi_dets : res.detections)
    for (const auto& d : cpi_dets) {
      EXPECT_TRUE(std::isfinite(d.power));
      EXPECT_TRUE(std::isfinite(d.threshold));
    }
}

// Two forced migrations in sequence (forced attempts bypass the
// max_migrations cap — tests need determinism): both commit, through two
// separate barriers, and the stream stays lossless.
TEST(ElasticMigration, TwoForcedMigrationsBothCommit) {
  auto f = Fixture::make();
  const index_t n_cpis = 20;
  NodeAssignment a = elastic_assignment();
  a[Task::kCfar] = 2;  // a second donor pool

  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  ElasticConfig el;
  el.max_migrations = 1;
  el.forced.push_back(ForcedMigration{2, Task::kPulseCompression,
                                      Task::kDopplerFilter});
  el.forced.push_back(
      ForcedMigration{8, Task::kCfar, Task::kDopplerFilter});
  par.set_elastic(el);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // Forced migrations bypass the cap by design (tests need determinism),
  // so both commit — but never more than the forced list's length.
  EXPECT_EQ(res.events.migrations().size(), 2u);
  EXPECT_EQ(res.events.count(EventKind::kMigrationCommit), 2u);
  EXPECT_TRUE(res.faults.clean());
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
}

}  // namespace
}  // namespace ppstap::core
