// End-to-end tests for the ABFT integrity layer (PR 5): each kernel
// invariant passes on clean output at Table-1 sizes and trips on an
// injected bit flip, and the pipeline's detect -> recompute-once ->
// escalate policy repairs transient corruption bit-exactly while
// converting persistent corruption into exactly one ledgered shed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "comm/fault.hpp"
#include "common/rng.hpp"
#include "core/integrity.hpp"
#include "core/pipeline.hpp"
#include "linalg/qr.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compression.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap {
namespace {

using comm::FaultPlan;
using core::EventKind;
using core::IntegrityConfig;
using core::flip_float_bit;
using stap::StapParams;
using stap::Task;

constexpr double kTol = 1e-4;

cube::CpiCube random_cube(index_t a, index_t b, index_t c,
                          std::uint64_t seed) {
  Rng rng(seed);
  cube::CpiCube cu(a, b, c);
  for (index_t i = 0; i < cu.size(); ++i) {
    const auto z = rng.cnormal();
    cu.data()[i] = cfloat(static_cast<float>(z.real()),
                          static_cast<float>(z.imag()));
  }
  return cu;
}

std::span<float> float_view(cube::CpiCube& cu) {
  return {reinterpret_cast<float*>(cu.data()),
          static_cast<size_t>(cu.size()) * 2};
}

// ---------------------------------------------------------------------------
// Unit: the seeded injector
// ---------------------------------------------------------------------------

TEST(FlipFloatBit, DeterministicAndSelfInverse) {
  std::vector<float> a(64, 1.0f), b(64, 1.0f);
  flip_float_bit(a, 30, 7);
  flip_float_bit(b, 30, 7);
  EXPECT_EQ(a, b);  // same salt, same victim
  int changed = 0;
  for (size_t i = 0; i < a.size(); ++i) changed += a[i] != 1.0f;
  EXPECT_EQ(changed, 1);  // exactly one element touched
  flip_float_bit(a, 30, 7);
  for (float v : a) EXPECT_EQ(v, 1.0f);  // xor flip is self-inverse
  std::span<float> empty;
  flip_float_bit(empty, 30, 7);  // no-op, must not crash
}

// ---------------------------------------------------------------------------
// Unit: kernel invariants at Table-1 sizes (paper defaults: K = 512,
// J = 16, N = 128, M = 6)
// ---------------------------------------------------------------------------

TEST(KernelInvariants, DopplerParsevalCleanAndFlipped) {
  StapParams p;  // Table-1 defaults
  p.validate();
  stap::DopplerFilter filter(p);
  const auto raw =
      random_cube(64, p.num_channels, p.num_pulses, /*seed=*/1);
  auto stag = filter.filter(raw, /*k_offset=*/0);
  EXPECT_TRUE(filter.parseval_check(raw, stag, 0, kTol));
  flip_float_bit(float_view(stag), 30, /*salt=*/11);
  EXPECT_FALSE(filter.parseval_check(raw, stag, 0, kTol));

  // Flip sweep over a 40 dB-CNR scene at the small scene's N = 32 and the
  // paper's N = 128. Bit 30 of an element with |v| >= 2 is already set, so
  // the flip zeroes it; on a clutter-dominated line that removes only a
  // few parts per million of the line's energy, which hides under the
  // Parseval tolerance. Every flip must still be caught.
  for (const index_t n : {32, 128}) {
    StapParams q;
    q.num_range = 128;
    q.num_segments = 4;
    if (n == 32) {
      q.num_channels = 8;
      q.num_pulses = 32;
      q.num_beams = 2;
      q.num_hard = 12;
      q.stagger = 2;
      q.num_segments = 3;
      q.easy_samples_per_cpi = 24;
      q.hard_samples_per_segment = 16;
    }
    q.validate();
    synth::ScenarioParams sp;
    sp.num_range = q.num_range;
    sp.num_channels = q.num_channels;
    sp.num_pulses = q.num_pulses;
    sp.clutter.cnr_db = 40.0;
    const auto scene = synth::ScenarioGenerator(sp).generate(0);
    stap::DopplerFilter f(q);
    auto clean = f.filter(scene, 0);
    ASSERT_TRUE(f.parseval_check(scene, clean, 0, kTol)) << "N=" << n;
    const auto clean_v = float_view(clean);
    int zeroed = 0;
    for (std::uint64_t salt = 0; salt < 64; ++salt) {
      auto hit = clean;
      const auto hit_v = float_view(hit);
      flip_float_bit(hit_v, 30, salt);
      for (size_t i = 0; i < hit_v.size(); ++i)
        if (hit_v[i] != clean_v[i] && std::abs(clean_v[i]) >= 2.0f) ++zeroed;
      EXPECT_FALSE(f.parseval_check(scene, hit, 0, kTol))
          << "N=" << n << " salt=" << salt;
    }
    EXPECT_GT(zeroed, 0) << "N=" << n;
  }
}

TEST(KernelInvariants, EasyBeamformChecksumCleanAndFlipped) {
  StapParams p;
  p.validate();
  const index_t bins = 8;
  const auto data = random_cube(bins, p.num_range, p.num_channels, 2);
  stap::WeightSet w;
  for (index_t b = 0; b < bins; ++b) {
    w.bins.push_back(b);
    linalg::MatrixCF wm(p.num_channels, p.num_beams);
    Rng rng(100 + static_cast<std::uint64_t>(b));
    for (index_t i = 0; i < wm.size(); ++i) {
      const auto z = rng.cnormal();
      wm.data()[i] = cfloat(static_cast<float>(z.real()),
                            static_cast<float>(z.imag()));
    }
    w.weights.push_back(std::move(wm));
  }
  auto out = stap::easy_beamform(data, w, p);
  EXPECT_TRUE(stap::easy_beamform_check(data, w, p, out, -1, kTol));
  flip_float_bit(float_view(out), 30, /*salt=*/3);
  EXPECT_FALSE(stap::easy_beamform_check(data, w, p, out, -1, kTol));
}

TEST(KernelInvariants, HardBeamformChecksumCleanAndFlipped) {
  StapParams p;
  p.validate();
  const index_t bins = 4;
  const index_t jj = p.num_staggered_channels();
  const auto data = random_cube(bins, p.num_range, jj, 4);
  stap::WeightSet w;
  for (index_t b = 0; b < bins; ++b) w.bins.push_back(b);
  for (index_t i = 0; i < bins * p.num_segments; ++i) {
    linalg::MatrixCF wm(jj, p.num_beams);
    Rng rng(200 + static_cast<std::uint64_t>(i));
    for (index_t e = 0; e < wm.size(); ++e) {
      const auto z = rng.cnormal();
      wm.data()[e] = cfloat(static_cast<float>(z.real()),
                            static_cast<float>(z.imag()));
    }
    w.weights.push_back(std::move(wm));
  }
  auto out = stap::hard_beamform(data, w, p);
  EXPECT_TRUE(stap::hard_beamform_check(data, w, p, out, -1, kTol));
  flip_float_bit(float_view(out), 30, /*salt=*/5);
  EXPECT_FALSE(stap::hard_beamform_check(data, w, p, out, -1, kTol));
}

TEST(KernelInvariants, PulseCompressionEnergyCleanAndFlipped) {
  StapParams p;
  p.validate();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  synth::ScenarioGenerator gen(sp);
  stap::PulseCompressor pc(p, gen.replica());
  const auto bf = random_cube(6, p.num_beams, p.num_range, 6);
  std::vector<double> row_energy;
  auto power = pc.compress(bf, -1, &row_energy);
  EXPECT_TRUE(stap::pc_energy_check(power, row_energy, -1, kTol));
  flip_float_bit({power.data(), static_cast<size_t>(power.size())}, 30,
                 /*salt=*/9);
  EXPECT_FALSE(stap::pc_energy_check(power, row_energy, -1, kTol));
}

TEST(KernelInvariants, CfarVerifyCleanAndFlipped) {
  StapParams p;
  p.validate();
  const index_t bins_n = 4;
  Rng rng(7);
  cube::RealCube power(bins_n, p.num_beams, p.num_range);
  for (index_t i = 0; i < power.size(); ++i)
    power.data()[i] =
        static_cast<float>(1.0 + std::abs(rng.cnormal().real()));
  // A few hot cells so the detector reports something to corrupt.
  for (index_t b = 0; b < bins_n; ++b)
    power.at(b, 0, 100 + 7 * b) = 1e4f;
  std::vector<index_t> bins;
  for (index_t b = 0; b < bins_n; ++b) bins.push_back(b);
  auto dets = stap::cfar_detect(power, bins, p);
  ASSERT_FALSE(dets.empty());
  EXPECT_TRUE(stap::verify_detections(dets, power, bins, p));
  auto corrupt = dets;
  flip_float_bit({&corrupt[0].power, 1}, 30, 0);
  EXPECT_FALSE(stap::verify_detections(corrupt, power, bins, p));
  // Ordering is part of the contract too.
  if (dets.size() >= 2) {
    auto swapped = dets;
    std::swap(swapped.front(), swapped.back());
    EXPECT_FALSE(stap::verify_detections(swapped, power, bins, p));
  }
}

TEST(KernelInvariants, QrColumnNormResidualSmallOnCleanFactorization) {
  Rng rng(13);
  linalg::MatrixCF a(96, 12);
  for (index_t i = 0; i < a.size(); ++i) {
    const auto z = rng.cnormal();
    a.data()[i] = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
  }
  linalg::QrFactorization<cfloat> qr(a);
  EXPECT_LT(qr.column_norm_residual(), kTol);
  // The row-append (recursive) form preserves column norms as well.
  auto r_old = qr.r();
  linalg::MatrixCF x(8, 12);
  for (index_t i = 0; i < x.size(); ++i) {
    const auto z = rng.cnormal();
    x.data()[i] = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
  }
  auto x_copy = x;
  auto r_new = linalg::qr_append_rows(r_old, std::move(x));
  EXPECT_LT(linalg::append_column_norm_residual(r_old, x_copy, r_new),
            kTol);
}

// ---------------------------------------------------------------------------
// Pipeline: detect -> recompute-once -> escalate
// ---------------------------------------------------------------------------

// Low dynamic range scene (CNR 10 dB): the energy invariants compare
// against whole-line energy, so every representable exponent flip lands
// above the relative tolerance and detection is deterministic, not
// scene-dependent. The strong target keeps the CFAR report list non-empty
// on every CPI so report-buffer flips always have a victim.
struct Fixture {
  StapParams p;
  synth::ScenarioParams sp;

  static Fixture make() {
    Fixture f;
    f.p = StapParams::small_test();
    f.p.num_range = 128;
    f.p.num_channels = 8;
    f.p.num_pulses = 32;
    f.p.num_beams = 2;
    f.p.num_hard = 12;
    f.p.stagger = 2;
    f.p.num_segments = 3;
    f.p.easy_samples_per_cpi = 24;
    f.p.hard_samples_per_segment = 16;
    f.p.cfar_ref = 6;
    f.p.cfar_guard = 2;
    // Permissive CFAR: noise-driven reports on essentially every CPI give
    // the report-buffer flip a guaranteed victim; false alarms are just as
    // good as targets for exercising detection-list integrity.
    f.p.cfar_pfa = 1e-3;
    f.p.validate();
    f.sp.num_range = f.p.num_range;
    f.sp.num_channels = f.p.num_channels;
    f.sp.num_pulses = f.p.num_pulses;
    f.sp.clutter.num_patches = 8;
    f.sp.clutter.cnr_db = 10.0;
    f.sp.chirp_length = 16;
    f.sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 40.0});
    return f;
  }

  linalg::MatrixCF steering() const {
    return synth::steering_matrix(p.num_channels, p.num_beams,
                                  p.beam_center_rad, p.beam_span_rad);
  }
};

core::PipelineResult run_pipeline(const Fixture& f, index_t n_cpis,
                                  bool abft, FaultPlan* plan) {
  synth::ScenarioGenerator gen(f.sp);
  core::ParallelStapPipeline par(
      f.p, core::NodeAssignment{}, f.steering(),
      {gen.replica().begin(), gen.replica().end()});
  IntegrityConfig ic;
  ic.enabled = abft;
  par.set_integrity(ic);
  if (plan != nullptr) par.set_fault_plan(plan);
  return par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);
}

bool same_detections(const std::vector<std::vector<stap::Detection>>& a,
                     const std::vector<std::vector<stap::Detection>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const auto& x = a[i][j];
      const auto& y = b[i][j];
      if (x.doppler_bin != y.doppler_bin || x.beam != y.beam ||
          x.range != y.range || x.power != y.power ||
          x.threshold != y.threshold)
        return false;
    }
  }
  return true;
}

TEST(IntegrityPipeline, CleanRunLedgerCleanAndBitIdenticalToAbftOff) {
  auto f = Fixture::make();
  const auto off = run_pipeline(f, 6, /*abft=*/false, nullptr);
  const auto on = run_pipeline(f, 6, /*abft=*/true, nullptr);
  EXPECT_TRUE(on.integrity.clean());
  EXPECT_GT(on.events.count(EventKind::kCheckPassed), 0u);
  EXPECT_EQ(on.integrity.repairs, 0u);
  EXPECT_EQ(on.integrity.escalations, 0u);
  EXPECT_EQ(on.events.count(EventKind::kDigestMismatch), 0u);
  // The invariants and digests are observers: output is bit-identical.
  EXPECT_TRUE(same_detections(on.detections, off.detections));
  // ABFT-off runs record no checks at all.
  EXPECT_TRUE(off.integrity.clean());
  EXPECT_EQ(off.events.count(EventKind::kCheckPassed), 0u);
}

TEST(IntegrityPipeline, EveryStageFlipDetectedAndRepairedBitExact) {
  auto f = Fixture::make();
  const index_t n_cpis = 8;
  const auto ref = run_pipeline(f, n_cpis, /*abft=*/true, nullptr);
  ASSERT_TRUE(ref.integrity.clean());
  // The CFAR flip needs a report to corrupt on the target CPI, so aim at
  // a mid-stream CPI that actually produced detections.
  index_t flip_cpi = -1;
  for (index_t cpi = 2; cpi < n_cpis - 1; ++cpi)
    if (!ref.detections[static_cast<size_t>(cpi)].empty()) {
      flip_cpi = cpi;
      break;
    }
  ASSERT_GE(flip_cpi, 0) << "scene produced no detections to corrupt";

  for (int task = 0; task < stap::kNumTasks; ++task) {
    FaultPlan plan(/*seed=*/77);
    plan.add_compute(FaultPlan::flip_stage(task, flip_cpi));
    const auto res = run_pipeline(f, n_cpis, /*abft=*/true, &plan);
    EXPECT_GE(plan.stats().flips, 1u) << "task=" << task;
    // Every injected flip was caught (the detection-rate identity) and
    // repaired by the single bounded recompute.
    EXPECT_EQ(res.integrity.checks_failed, plan.stats().flips)
        << "task=" << task;
    EXPECT_EQ(res.integrity.repairs, res.integrity.checks_failed)
        << "task=" << task;
    EXPECT_EQ(res.integrity.escalations, 0u) << "task=" << task;
    const auto outcomes =
        res.events.of({EventKind::kAbftRepair, EventKind::kAbftEscalate});
    ASSERT_EQ(outcomes.size(),
              static_cast<size_t>(res.integrity.checks_failed));
    for (const auto& e : outcomes) {
      EXPECT_EQ(e.task, task);
      EXPECT_EQ(e.cpi, flip_cpi);
      EXPECT_EQ(e.kind, EventKind::kAbftRepair);
    }
    EXPECT_TRUE(res.faults.shed_cpis.empty()) << "task=" << task;
    // Repair means bit-exact, not approximately right.
    EXPECT_TRUE(same_detections(res.detections, ref.detections))
        << "task=" << task;
  }
}

TEST(IntegrityPipeline, PersistentCorruptionEscalatesToOneRecordedShed) {
  auto f = Fixture::make();
  const index_t n_cpis = 6;
  const index_t bad_cpi = 3;
  const auto ref = run_pipeline(f, n_cpis, /*abft=*/true, nullptr);

  FaultPlan plan(/*seed=*/78);
  plan.add_compute(FaultPlan::flip_stage(
      static_cast<int>(Task::kDopplerFilter), bad_cpi, /*bit=*/30,
      /*max_applications=*/2));  // corrupt the recompute too
  const auto res = run_pipeline(f, n_cpis, /*abft=*/true, &plan);

  EXPECT_EQ(res.integrity.escalations, 1u);
  EXPECT_EQ(res.integrity.checks_failed, 2u);  // the first run and the redo
  EXPECT_EQ(res.integrity.repairs, 0u);
  const auto escalated = res.events.of(EventKind::kAbftEscalate);
  ASSERT_EQ(escalated.size(), 1u);
  EXPECT_EQ(escalated[0].cpi, bad_cpi);
  EXPECT_EQ(escalated[0].task, static_cast<int>(Task::kDopplerFilter));
  // The corrupt CPI was refused, not published: exactly one shed. CPIs
  // before it are bit-exact; CPIs after it legitimately diverge from the
  // fault-free reference because the shed CPI's training snapshots are
  // missing from the adaptive weight history.
  ASSERT_EQ(res.faults.shed_cpis, std::vector<index_t>{bad_cpi});
  // Its one recorded cause is the escalation, at the stage that refused it.
  const core::Event* cause = res.events.shed_cause(bad_cpi);
  ASSERT_NE(cause, nullptr);
  EXPECT_STREQ(cause->cause, "abft");
  EXPECT_EQ(cause->task, static_cast<int>(Task::kDopplerFilter));
  EXPECT_TRUE(res.detections[static_cast<size_t>(bad_cpi)].empty());
  for (index_t cpi = 0; cpi < bad_cpi; ++cpi)
    EXPECT_TRUE(same_detections(
        {res.detections[static_cast<size_t>(cpi)]},
        {ref.detections[static_cast<size_t>(cpi)]}))
        << "cpi=" << cpi;
}

}  // namespace
}  // namespace ppstap
