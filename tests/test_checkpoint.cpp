// Tests for adaptive-state checkpointing: matrix serialization, weight
// computer save/restore, and full-chain handoff (a restored chain must
// continue the CPI stream with identical detections — the functional
// counterpart of the simulator's re-allocation migration).
#include <gtest/gtest.h>

#include <sstream>

#include "comm/fault.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "linalg/serialize.hpp"
#include "stap/sequential.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap {
namespace {

linalg::MatrixCF random_cf(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  linalg::MatrixCF m(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) {
      auto z = rng.cnormal();
      m(i, j) = cfloat(static_cast<float>(z.real()),
                       static_cast<float>(z.imag()));
    }
  return m;
}

TEST(MatrixSerialize, RoundTripExact) {
  auto m = random_cf(7, 3, 1);
  std::stringstream ss;
  linalg::write_matrix(ss, m);
  auto back = linalg::read_matrix<cfloat>(ss);
  ASSERT_TRUE(back.same_shape(m));
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j) EXPECT_EQ(back(i, j), m(i, j));
}

TEST(MatrixSerialize, TypeAndCorruptionChecks) {
  auto m = random_cf(2, 2, 2);
  std::stringstream ss;
  linalg::write_matrix(ss, m);
  EXPECT_THROW(linalg::read_matrix<cdouble>(ss), Error);
  std::stringstream junk("garbage");
  EXPECT_THROW(linalg::read_matrix<cfloat>(junk), Error);
}

struct ChainFixture {
  stap::StapParams p;
  synth::ScenarioParams sp;

  static ChainFixture make() {
    ChainFixture f;
    f.p = stap::StapParams::small_test();
    f.p.num_range = 48;
    f.p.num_channels = 4;
    f.p.num_pulses = 16;
    f.p.num_beams = 2;
    f.p.num_hard = 6;
    f.p.stagger = 2;
    f.p.num_segments = 2;
    f.p.easy_samples_per_cpi = 12;
    f.p.hard_samples_per_segment = 10;
    f.p.num_beam_positions = 2;
    f.p.validate();
    f.sp.num_range = f.p.num_range;
    f.sp.num_channels = f.p.num_channels;
    f.sp.num_pulses = f.p.num_pulses;
    f.sp.clutter.num_patches = 6;
    f.sp.clutter.cnr_db = 35.0;
    f.sp.chirp_length = 6;
    f.sp.transmit_azimuths = {-0.3, 0.3};
    f.sp.targets.push_back(synth::Target{21, 8.0 / 16.0, 0.3, 18.0});
    return f;
  }

  std::vector<linalg::MatrixCF> steering() const {
    std::vector<linalg::MatrixCF> s;
    for (double az : sp.transmit_azimuths)
      s.push_back(synth::steering_matrix(p.num_channels, p.num_beams, az,
                                         p.beam_span_rad));
    return s;
  }
};

TEST(Checkpoint, RestoredChainContinuesIdentically) {
  auto f = ChainFixture::make();
  synth::ScenarioGenerator gen(f.sp);

  // Reference: one chain runs 8 CPIs straight through.
  stap::SequentialStap reference(f.p, f.steering(), gen.replica());
  std::vector<std::vector<stap::Detection>> ref;
  for (index_t cpi = 0; cpi < 8; ++cpi)
    ref.push_back(reference.process(gen.generate(cpi)).detections);

  // Handoff: chain A runs 4 CPIs, checkpoints; chain B restores and runs
  // the remaining 4.
  stap::SequentialStap a(f.p, f.steering(), gen.replica());
  for (index_t cpi = 0; cpi < 4; ++cpi) a.process(gen.generate(cpi));
  std::stringstream state;
  a.save_state(state);

  stap::SequentialStap b(f.p, f.steering(), gen.replica());
  b.load_state(state);
  EXPECT_EQ(b.cpis_processed(), 4);
  for (index_t cpi = 4; cpi < 8; ++cpi) {
    const auto got = b.process(gen.generate(cpi)).detections;
    const auto& want = ref[static_cast<size_t>(cpi)];
    ASSERT_EQ(got.size(), want.size()) << "cpi=" << cpi;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doppler_bin, want[i].doppler_bin);
      EXPECT_EQ(got[i].range, want[i].range);
      EXPECT_EQ(got[i].power, want[i].power);  // bitwise state handoff
    }
  }
}

TEST(Checkpoint, FreshChainWithoutHistoryDiffers) {
  // Sanity that the checkpoint carries real information: a fresh chain at
  // CPI 4 (quiescent weights) produces different output than the restored
  // one on the same CPI.
  auto f = ChainFixture::make();
  synth::ScenarioGenerator gen(f.sp);
  stap::SequentialStap trained(f.p, f.steering(), gen.replica());
  for (index_t cpi = 0; cpi < 4; ++cpi) trained.process(gen.generate(cpi));
  std::stringstream state;
  trained.save_state(state);
  stap::SequentialStap restored(f.p, f.steering(), gen.replica());
  restored.load_state(state);
  stap::SequentialStap fresh(f.p, f.steering(), gen.replica());

  // Score CPI 5 — position 1, where the target beam is illuminated and
  // the restored chain has trained weights. Advance both chains through
  // CPI 4 first so their counters agree.
  restored.process(gen.generate(4));
  fresh.process(gen.generate(4));
  const auto cpi5 = gen.generate(5);
  auto residue = [&](stap::SequentialStap& chain) {
    chain.process(cpi5);
    double acc = 0.0;
    const auto& power = chain.last_power();
    for (index_t b : f.p.easy_bins())
      for (index_t m = 0; m < f.p.num_beams; ++m)
        for (index_t k = 0; k < f.p.num_range; ++k) acc += power.at(b, m, k);
    return acc;
  };
  const double restored_residue = residue(restored);
  const double fresh_residue = residue(fresh);
  // The restored chain's adapted weights suppress the clutter residue that
  // the fresh (quiescent) chain passes through.
  EXPECT_LT(restored_residue, 0.5 * fresh_residue);
}

TEST(Checkpoint, MismatchedConfigurationRejected) {
  auto f = ChainFixture::make();
  synth::ScenarioGenerator gen(f.sp);
  stap::SequentialStap a(f.p, f.steering(), gen.replica());
  a.process(gen.generate(0));
  std::stringstream state;
  a.save_state(state);

  auto other = f;
  other.p.num_beam_positions = 1;
  other.sp.transmit_azimuths = {0.0};
  stap::SequentialStap b(other.p,
                         synth::steering_matrix(other.p.num_channels,
                                                other.p.num_beams, 0.0,
                                                other.p.beam_span_rad),
                         gen.replica());
  EXPECT_THROW(b.load_state(state), Error);

  std::stringstream junk("not a checkpoint");
  stap::SequentialStap c(f.p, f.steering(), gen.replica());
  EXPECT_THROW(c.load_state(junk), Error);
}

// PR 5: integrity digests must stay continuous across a spare-rank
// failover. The spare restores the checkpointed adaptive state mid-stream;
// every frame it then produces must still verify end to end — zero digest
// mismatches, none attributed to the recovered task, and a clean ledger.
TEST(Checkpoint, DigestContinuityAcrossSpareFailover) {
  auto f = ChainFixture::make();
  synth::ScenarioGenerator gen(f.sp);
  const index_t n_cpis = 6;
  const index_t kill_cpi = 2;

  core::NodeAssignment a;  // all ones: one rank per task plus the spare
  const int victim = a.first_rank(stap::Task::kHardWeight);
  comm::FaultPlan plan;
  // Pipeline tag layout (pipeline.cpp): tag = cpi * 16 + edge, and the
  // Doppler -> hard-weight training edge is 1.
  plan.add(comm::FaultPlan::kill_on_recv(
      victim, static_cast<int>(kill_cpi) * 16 + 1));

  core::ParallelStapPipeline par(
      f.p, a, f.steering(), {gen.replica().begin(), gen.replica().end()});
  core::FaultToleranceConfig ft;
  ft.spares = 1;
  par.set_fault_tolerance(ft);
  par.set_fault_plan(&plan);
  core::IntegrityConfig ic;
  ic.enabled = true;
  par.set_integrity(ic);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 1u);
  EXPECT_EQ(heals[0].kind, core::EventKind::kHealSpare);
  EXPECT_EQ(heals[0].rank, victim);
  EXPECT_TRUE(res.faults.shed_cpis.empty());
  EXPECT_EQ(res.events.count(core::EventKind::kDigestMismatch), 0u);
  EXPECT_TRUE(res.integrity.clean());
  EXPECT_GT(res.events.count(core::EventKind::kCheckPassed), 0u);
}

// PR 7: digests must stay continuous across a live elastic migration. The
// migrating rank checkpoints its partition state at the barrier, switches
// task groups, and produces frames under the new topology; every frame
// before, across, and after the epoch boundary must still verify end to
// end — zero digest mismatches and a clean integrity ledger.
TEST(Checkpoint, DigestContinuityAcrossLiveMigration) {
  auto f = ChainFixture::make();
  synth::ScenarioGenerator gen(f.sp);
  const index_t n_cpis = 14;

  core::NodeAssignment a;
  a[stap::Task::kDopplerFilter] = 2;
  a[stap::Task::kPulseCompression] = 2;

  core::ParallelStapPipeline par(
      f.p, a, f.steering(), {gen.replica().begin(), gen.replica().end()});
  core::ElasticConfig el;
  el.forced.push_back(core::ForcedMigration{
      3, stap::Task::kPulseCompression, stap::Task::kDopplerFilter});
  par.set_elastic(el);
  core::IntegrityConfig ic;
  ic.enabled = true;
  par.set_integrity(ic);
  auto res = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  ASSERT_EQ(res.events.migrations().size(), 1u);
  EXPECT_EQ(res.events.count(core::EventKind::kMigrationCommit), 1u);
  EXPECT_TRUE(res.faults.clean());
  EXPECT_EQ(res.events.count(core::EventKind::kDigestMismatch), 0u);
  EXPECT_TRUE(res.integrity.clean());
  EXPECT_GT(res.events.count(core::EventKind::kCheckPassed), 0u);
  ASSERT_EQ(res.detections.size(), static_cast<size_t>(n_cpis));
}

}  // namespace
}  // namespace ppstap
