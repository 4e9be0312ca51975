// Tests for the STAP algorithm kernels and the sequential reference chain:
// parameter derivations, training selection, Doppler filtering (PRI
// stagger), adaptive weights (clutter nulling, mainbeam preservation),
// beamforming, pulse compression, CFAR statistics, and end-to-end target
// detection in clutter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <cstring>
#include <numbers>
#include <sstream>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "cube/partition.hpp"
#include "dsp/waveform.hpp"
#include "kernels/dispatch.hpp"
#include "linalg/qr.hpp"
#include "linalg/serialize.hpp"
#include "stap/analysis.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/doppler.hpp"
#include "stap/flops.hpp"
#include "stap/params.hpp"
#include "stap/pulse_compression.hpp"
#include "stap/sequential.hpp"
#include "stap/training.hpp"
#include "stap/weights.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap::stap {
namespace {

using synth::ScenarioGenerator;
using synth::ScenarioParams;
using synth::Target;

// ---------------------------------------------------------------------------
// Parameters
// ---------------------------------------------------------------------------

TEST(Params, DefaultMatchesPaperConfiguration) {
  StapParams p;
  p.validate();
  EXPECT_EQ(p.num_range, 512);
  EXPECT_EQ(p.num_channels, 16);
  EXPECT_EQ(p.num_pulses, 128);
  EXPECT_EQ(p.num_beams, 6);
  EXPECT_EQ(p.num_hard, 56);
  EXPECT_EQ(p.num_easy(), 72);
  EXPECT_EQ(p.window_length(), 125);
}

TEST(Params, EasyHardSplitIsAPartition) {
  StapParams p;
  auto easy = p.easy_bins();
  auto hard = p.hard_bins();
  EXPECT_EQ(static_cast<index_t>(easy.size()), p.num_easy());
  EXPECT_EQ(static_cast<index_t>(hard.size()), p.num_hard);
  std::vector<bool> seen(static_cast<size_t>(p.num_pulses), false);
  for (auto b : easy) seen[static_cast<size_t>(b)] = true;
  for (auto b : hard) {
    EXPECT_FALSE(seen[static_cast<size_t>(b)]);
    seen[static_cast<size_t>(b)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Params, HardBinsAreNearZeroDoppler) {
  StapParams p;
  // Bins 0..27 and 100..127 are hard (mainbeam clutter is centered at DC).
  EXPECT_TRUE(p.is_hard_bin(0));
  EXPECT_TRUE(p.is_hard_bin(27));
  EXPECT_FALSE(p.is_hard_bin(28));
  EXPECT_FALSE(p.is_hard_bin(99));
  EXPECT_TRUE(p.is_hard_bin(100));
  EXPECT_TRUE(p.is_hard_bin(127));
}

TEST(Params, SegmentsTileTheRangeExtent) {
  StapParams p;
  index_t covered = 0;
  for (index_t s = 0; s < p.num_segments; ++s) {
    EXPECT_EQ(p.segment_begin(s), covered);
    covered = p.segment_end(s);
  }
  EXPECT_EQ(covered, p.num_range);
}

TEST(Params, CfarScaleReproducesExponentialPfa) {
  StapParams p;
  p.cfar_pfa = 1e-4;
  // For exponential power with W reference cells, PFA = (1 + a/W)^-W.
  for (index_t w : {4, 8, 16}) {
    const double a = p.cfar_scale(w);
    const double pfa = std::pow(1.0 + a / static_cast<double>(w),
                                -static_cast<double>(w));
    EXPECT_NEAR(pfa, 1e-4, 1e-7);
  }
}

TEST(Params, ValidateRejectsBadConfigurations) {
  StapParams p = StapParams::small_test();
  p.num_hard = p.num_pulses;  // no easy bins left
  EXPECT_THROW(p.validate(), Error);
  p = StapParams::small_test();
  p.stagger = p.num_pulses;
  EXPECT_THROW(p.validate(), Error);
  p = StapParams::small_test();
  p.forgetting = 0.0;
  EXPECT_THROW(p.validate(), Error);
  p = StapParams::small_test();
  p.hard_samples_per_segment = p.num_range;  // exceeds a segment
  EXPECT_THROW(p.validate(), Error);
}

// ---------------------------------------------------------------------------
// Training selection
// ---------------------------------------------------------------------------

TEST(Training, EasyCellsSortedAndInRange) {
  StapParams p;
  auto cells = easy_training_cells(p);
  EXPECT_EQ(static_cast<index_t>(cells.size()), p.easy_samples_per_cpi);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_GE(cells[i], 0);
    EXPECT_LT(cells[i], p.num_range);
    if (i > 0) {
      EXPECT_GT(cells[i], cells[i - 1]);
    }
  }
}

TEST(Training, HardCellsStayInsideTheirSegment) {
  StapParams p;
  for (index_t s = 0; s < p.num_segments; ++s) {
    auto cells = hard_training_cells(p, s);
    EXPECT_EQ(static_cast<index_t>(cells.size()),
              p.hard_samples_per_segment);
    for (auto c : cells) {
      EXPECT_GE(c, p.segment_begin(s));
      EXPECT_LT(c, p.segment_end(s));
    }
  }
}

TEST(Training, GatherReadsTheRightCubeEntries) {
  StapParams p = StapParams::small_test();
  cube::CpiCube stag(p.num_range, p.num_staggered_channels(), p.num_pulses);
  for (index_t k = 0; k < p.num_range; ++k)
    for (index_t j = 0; j < p.num_staggered_channels(); ++j)
      for (index_t n = 0; n < p.num_pulses; ++n)
        stag.at(k, j, n) =
            cfloat(static_cast<float>(k), static_cast<float>(j * 100 + n));
  auto cells = easy_training_cells(p);
  const index_t bin = 5;
  auto m = gather_training(stag, cells, bin, /*staggered_pair=*/false, p);
  EXPECT_EQ(m.rows(), static_cast<index_t>(cells.size()));
  EXPECT_EQ(m.cols(), p.num_channels);
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t j = 0; j < p.num_channels; ++j)
      EXPECT_EQ(m(r, j), stag.at(cells[static_cast<size_t>(r)], j, bin));
}

TEST(Training, SlabGatherEqualsGlobalGather) {
  // Gathering from two half-slabs (what the parallel Doppler ranks do)
  // produces the same training matrix as a single global gather.
  StapParams p = StapParams::small_test();
  cube::CpiCube stag(p.num_range, p.num_staggered_channels(), p.num_pulses);
  for (index_t i = 0; i < stag.size(); ++i)
    stag.data()[i] = cfloat(static_cast<float>(i % 97),
                            static_cast<float>(i % 89));
  auto cells = hard_training_cells(p, 1);
  const index_t bin = 1;
  auto whole = gather_training(stag, cells, bin, true, p);

  const index_t half = p.num_range / 2;
  cube::CpiCube lo_slab(half, p.num_staggered_channels(), p.num_pulses);
  cube::CpiCube hi_slab(p.num_range - half, p.num_staggered_channels(),
                        p.num_pulses);
  for (index_t k = 0; k < p.num_range; ++k)
    for (index_t j = 0; j < p.num_staggered_channels(); ++j)
      for (index_t n = 0; n < p.num_pulses; ++n) {
        if (k < half)
          lo_slab.at(k, j, n) = stag.at(k, j, n);
        else
          hi_slab.at(k - half, j, n) = stag.at(k, j, n);
      }
  linalg::MatrixCF pieced(static_cast<index_t>(cells.size()),
                          p.num_staggered_channels());
  // Count rows contributed by the low slab to find the high slab's offset.
  index_t lo_rows = 0;
  for (auto c : cells)
    if (c < half) ++lo_rows;
  gather_training_rows(lo_slab, 0, cells, bin, true, p, pieced, 0);
  gather_training_rows(hi_slab, half, cells, bin, true, p, pieced, lo_rows);
  EXPECT_LT(linalg::frobenius_distance(whole, pieced), 1e-12f);
}

// ---------------------------------------------------------------------------
// Doppler filtering
// ---------------------------------------------------------------------------

TEST(Doppler, OutputShapeIsStaggered) {
  StapParams p = StapParams::small_test();
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  DopplerFilter f(p);
  auto out = f.filter(cpi);
  EXPECT_EQ(out.extent(0), p.num_range);
  EXPECT_EQ(out.extent(1), 2 * p.num_channels);
  EXPECT_EQ(out.extent(2), p.num_pulses);
}

TEST(Doppler, ToneLandsInItsBin) {
  StapParams p = StapParams::small_test();
  p.window = dsp::WindowKind::kRectangular;  // sharpest bins for the test
  const index_t bin = 5;
  const double f = static_cast<double>(bin) / static_cast<double>(p.num_pulses);
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  auto tone = synth::temporal_steering(p.num_pulses, f);
  for (index_t n = 0; n < p.num_pulses; ++n)
    cpi.at(3, 1, n) = tone[static_cast<size_t>(n)];

  auto out = DopplerFilter(p).filter(cpi);
  double best = 0;
  index_t best_bin = -1;
  for (index_t b = 0; b < p.num_pulses; ++b) {
    const double mag = std::abs(out.at(3, 1, b));
    if (mag > best) {
      best = mag;
      best_bin = b;
    }
  }
  EXPECT_EQ(best_bin, bin);
  // Other range cells / channels stay empty.
  EXPECT_NEAR(std::abs(out.at(4, 1, bin)), 0.0, 1e-5);
  EXPECT_NEAR(std::abs(out.at(3, 2, bin)), 0.0, 1e-5);
}

TEST(Doppler, StaggerPhaseRelation) {
  // For a pure tone at frequency f, the second stagger window's spectrum is
  // the first one's times exp(j 2 pi f s) — the phase the hard weight
  // constraint compensates.
  StapParams p = StapParams::small_test();
  const index_t bin = 4;
  const double f = static_cast<double>(bin) / static_cast<double>(p.num_pulses);
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  auto tone = synth::temporal_steering(p.num_pulses, f);
  for (index_t n = 0; n < p.num_pulses; ++n)
    cpi.at(0, 0, n) = tone[static_cast<size_t>(n)];

  auto out = DopplerFilter(p).filter(cpi);
  const cfloat x1 = out.at(0, 0, bin);
  const cfloat x2 = out.at(0, p.num_channels, bin);
  ASSERT_GT(std::abs(x1), 1e-3);
  const cfloat ratio = x2 / x1;
  const double expected =
      2.0 * std::numbers::pi * f * static_cast<double>(p.stagger);
  EXPECT_NEAR(std::arg(ratio), std::remainder(expected, 2 * std::numbers::pi),
              1e-3);
  EXPECT_NEAR(std::abs(ratio), 1.0, 1e-3);
}

TEST(Doppler, RangeCorrectionAppliesTheDesignedGain) {
  StapParams p = StapParams::small_test();
  p.range_correction = true;
  p.range_start_cells = 32.0;
  p.range_correction_exp = 4.0;
  DopplerFilter f(p);
  // Identical signals at two range cells: the output ratio must equal the
  // gain ratio.
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  for (index_t n = 0; n < p.num_pulses; ++n) {
    cpi.at(4, 0, n) = cfloat(1.0f, 0.5f);
    cpi.at(40, 0, n) = cfloat(1.0f, 0.5f);
  }
  auto out = f.filter(cpi);
  const double expected =
      std::pow((32.0 + 40.0) / (32.0 + 4.0), 2.0);  // exp/2 = 2 amplitude
  EXPECT_NEAR(std::abs(out.at(40, 0, 0)) / std::abs(out.at(4, 0, 0)),
              expected, 1e-3 * expected);
  // Gain at cell 0 is exactly 1... relative to the standoff reference.
  EXPECT_NEAR(f.range_gain(0), 1.0f, 1e-6f);
  EXPECT_GT(f.range_gain(p.num_range - 1), 1.0f);
}

TEST(Doppler, SlabOffsetMatchesGlobalFilterUnderRangeCorrection) {
  StapParams p = StapParams::small_test();
  p.range_correction = true;
  DopplerFilter f(p);
  Rng rng(12);
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  for (index_t i = 0; i < cpi.size(); ++i) {
    auto z = rng.cnormal();
    cpi.data()[i] = cfloat(static_cast<float>(z.real()),
                           static_cast<float>(z.imag()));
  }
  auto whole = f.filter(cpi);
  // Filter the upper half as a slab with the matching global offset.
  const index_t half = p.num_range / 2;
  cube::CpiCube slab(p.num_range - half, p.num_channels, p.num_pulses);
  for (index_t k = half; k < p.num_range; ++k)
    for (index_t j = 0; j < p.num_channels; ++j) {
      auto src = cpi.line(k, j);
      std::copy(src.begin(), src.end(), slab.line(k - half, j).begin());
    }
  auto part = f.filter(slab, half);
  double err = 0;
  for (index_t k = 0; k < slab.extent(0); ++k)
    for (index_t j = 0; j < 2 * p.num_channels; ++j)
      for (index_t n = 0; n < p.num_pulses; ++n)
        err = std::max(err, static_cast<double>(std::abs(
                                part.at(k, j, n) - whole.at(half + k, j, n))));
  EXPECT_LT(err, 1e-6);
}

TEST(Doppler, LinearInInput) {
  StapParams p = StapParams::small_test();
  DopplerFilter f(p);
  cube::CpiCube a(p.num_range, p.num_channels, p.num_pulses);
  cube::CpiCube b(p.num_range, p.num_channels, p.num_pulses);
  Rng rng(5);
  for (index_t i = 0; i < a.size(); ++i) {
    auto za = rng.cnormal(), zb = rng.cnormal();
    a.data()[i] = cfloat(static_cast<float>(za.real()),
                         static_cast<float>(za.imag()));
    b.data()[i] = cfloat(static_cast<float>(zb.real()),
                         static_cast<float>(zb.imag()));
  }
  cube::CpiCube sum(p.num_range, p.num_channels, p.num_pulses);
  for (index_t i = 0; i < sum.size(); ++i)
    sum.data()[i] = a.data()[i] + b.data()[i];
  auto fa = f.filter(a), fb = f.filter(b), fsum = f.filter(sum);
  double err = 0;
  for (index_t i = 0; i < fsum.size(); ++i)
    err = std::max(err, static_cast<double>(std::abs(
                            fsum.data()[i] - fa.data()[i] - fb.data()[i])));
  EXPECT_LT(err, 1e-3);
}

cube::CpiCube random_cube(index_t k, index_t j, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  cube::CpiCube c(k, j, n);
  for (index_t i = 0; i < c.size(); ++i) {
    const auto z = rng.cnormal();
    c.data()[i] =
        cfloat(static_cast<float>(z.real()), static_cast<float>(z.imag()));
  }
  return c;
}

bool bitwise_equal(const cube::CpiCube& a, const cube::CpiCube& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(cfloat)) == 0;
}

// A parallel Doppler rank filters its rows of the shared input cube in
// place; the result must be the copied-slab filter bit for bit (range
// correction on, so the global row offset matters), for every part of an
// uneven partition, into a fresh or a reused (dirty) output buffer. The
// Parseval/inverse-DFT ABFT check must agree between the two views.
TEST(Doppler, InPlaceRowsMatchCopiedSlabBitwise) {
  StapParams p = StapParams::small_test();
  p.range_correction = true;
  DopplerFilter f(p);
  const auto full = random_cube(p.num_range, p.num_channels, p.num_pulses, 21);
  const cube::BlockPartition part(p.num_range, 3);  // 22 / 21 / 21 rows
  cube::CpiCube reused = random_cube(5, 2 * p.num_channels, p.num_pulses, 4);
  for (index_t r = 0; r < part.parts(); ++r) {
    const index_t k0 = part.offset(r), kl = part.length(r);
    cube::CpiCube slab(kl, p.num_channels, p.num_pulses);
    for (index_t k = 0; k < kl; ++k)
      for (index_t ch = 0; ch < p.num_channels; ++ch) {
        auto src = full.line(k0 + k, ch);
        std::copy(src.begin(), src.end(), slab.line(k, ch).begin());
      }
    const auto copied = f.filter(slab, k0);
    cube::CpiCube fresh;
    f.filter_rows(full, k0, kl, fresh);
    EXPECT_TRUE(bitwise_equal(fresh, copied)) << "part " << r;
    f.filter_rows(full, k0, kl, reused);
    EXPECT_TRUE(bitwise_equal(reused, copied)) << "part " << r << " reused";

    EXPECT_TRUE(f.parseval_check(slab, copied, k0, 1e-4));
    EXPECT_TRUE(f.parseval_check_rows(full, k0, fresh, 1e-4));
    // A corrupted element trips both views alike.
    cube::CpiCube bad = fresh;
    bad.at(kl / 2, 1, 3) *= 4.0f;
    EXPECT_FALSE(f.parseval_check(slab, bad, k0, 1e-4));
    EXPECT_FALSE(f.parseval_check_rows(full, k0, bad, 1e-4));
  }
  cube::CpiCube out;
  EXPECT_THROW(f.filter_rows(full, 60, 10, out), Error);
}

// The Doppler rank's range-major gathers must emit the exact frames of the
// bin-major loops they replaced, for uneven destination partitions and an
// uneven slab.
TEST(Doppler, RangeMajorPacksMatchBinMajorFrames) {
  StapParams p = StapParams::small_test();
  const index_t jj = p.num_staggered_channels();
  const cube::BlockPartition kpart(p.num_range, 3);
  const auto easy = p.easy_bins();
  const auto hard = p.hard_bins();
  const auto easy_cells = easy_training_cells(p);
  std::vector<std::vector<index_t>> hard_cells;
  for (index_t seg = 0; seg < p.num_segments; ++seg)
    hard_cells.push_back(hard_training_cells(p, seg));
  const auto units = HardWeightComputer::units_for_bins(p, hard);
  std::vector<cfloat> frame;

  for (index_t d = 0; d < kpart.parts(); ++d) {
    const index_t k0 = kpart.offset(d), kl = kpart.length(d);
    const auto stag = random_cube(kl, jj, p.num_pulses, 100 + d);

    // Beamforming frames: (bin, range, channel), bins split 3 ways.
    for (const bool is_hard : {false, true}) {
      const auto& bins = is_hard ? hard : easy;
      const index_t nch = is_hard ? jj : p.num_channels;
      const cube::BlockPartition bpart(static_cast<index_t>(bins.size()), 3);
      for (index_t r = 0; r < bpart.parts(); ++r) {
        const std::span<const index_t> mine(
            bins.data() + bpart.offset(r),
            static_cast<size_t>(bpart.length(r)));
        std::vector<cfloat> ref;
        for (const index_t bin : mine)
          for (index_t k = 0; k < kl; ++k)
            for (index_t ch = 0; ch < nch; ++ch)
              ref.push_back(stag.at(k, ch, bin));
        const auto rows = beamform_pack_rows(mine, kl);
        frame.assign(rows.size() * static_cast<size_t>(nch), cfloat{});
        pack_rows(stag, rows, nch, frame);
        EXPECT_EQ(frame, ref) << "bf hard=" << is_hard << " slab " << d
                              << " dest " << r;
      }
    }

    // Training frames: block after block, the cells inside the slab.
    for (const bool is_hard : {false, true}) {
      const index_t nch = is_hard ? jj : p.num_channels;
      std::vector<TrainingBlock> all;
      if (is_hard)
        for (const auto& u : units)
          all.push_back({u.bin, hard_cells[static_cast<size_t>(u.segment)]});
      else
        for (const index_t bin : easy) all.push_back({bin, easy_cells});
      const cube::BlockPartition wpart(static_cast<index_t>(all.size()), 3);
      for (index_t r = 0; r < wpart.parts(); ++r) {
        const std::span<const TrainingBlock> blocks(
            all.data() + wpart.offset(r), static_cast<size_t>(wpart.length(r)));
        std::vector<cfloat> ref;
        for (const auto& blk : blocks)
          for (const index_t cell : blk.cells) {
            if (cell < k0 || cell >= k0 + kl) continue;
            for (index_t ch = 0; ch < nch; ++ch)
              ref.push_back(stag.at(cell - k0, ch, blk.bin));
          }
        const auto rows = training_pack_rows(blocks, k0, kl);
        for (size_t i = 1; i < rows.size(); ++i)
          ASSERT_LE(rows[i - 1].k, rows[i].k) << "not range-major";
        frame.assign(rows.size() * static_cast<size_t>(nch), cfloat{});
        pack_rows(stag, rows, nch, frame);
        EXPECT_EQ(frame, ref) << "wt hard=" << is_hard << " slab " << d
                              << " dest " << r;
      }
    }
  }

  // The output is the frame's own payload: its size must match the rows.
  const auto stag = random_cube(4, jj, p.num_pulses, 7);
  const auto rows = beamform_pack_rows(std::span(easy).first(2), 4);
  frame.assign(rows.size() * static_cast<size_t>(jj) + 1, cfloat{});
  EXPECT_THROW(pack_rows(stag, rows, jj, frame), Error);
}

// ---------------------------------------------------------------------------
// Weights
// ---------------------------------------------------------------------------

linalg::MatrixCF one_beam_steering(index_t j) {
  linalg::MatrixCF s(j, 1);
  auto a = synth::spatial_steering(j, 0.0);
  for (index_t r = 0; r < j; ++r) s(r, 0) = a[static_cast<size_t>(r)];
  return s;
}

TEST(Weights, QuiescentEqualsNormalizedSteering) {
  StapParams p = StapParams::small_test();
  p.num_beams = 1;
  auto steering = one_beam_steering(p.num_channels);
  EasyWeightComputer comp(p, steering, p.easy_bins());
  auto w = comp.compute();
  ASSERT_EQ(w.weights.size(), static_cast<size_t>(p.num_easy()));
  const float expect = 1.0f / std::sqrt(static_cast<float>(p.num_channels));
  for (const auto& wm : w.weights)
    for (index_t r = 0; r < p.num_channels; ++r)
      EXPECT_NEAR(std::abs(wm(r, 0)), expect, 1e-5);
}

TEST(Weights, ColumnsAreUnitNorm) {
  linalg::MatrixCF w(4, 2);
  w(0, 0) = cfloat(3, 0);
  w(1, 0) = cfloat(0, 4);
  w(2, 1) = cfloat(1, 1);
  normalize_columns(w);
  double n0 = 0, n1 = 0;
  for (index_t r = 0; r < 4; ++r) {
    n0 += std::norm(w(r, 0));
    n1 += std::norm(w(r, 1));
  }
  EXPECT_NEAR(n0, 1.0, 1e-6);
  EXPECT_NEAR(n1, 1.0, 1e-6);
}

// An interference-nulling scenario: training snapshots dominated by a
// single spatial interferer away from broadside. The adapted weights must
// null it while keeping gain toward the (broadside) steering direction.
TEST(Weights, EasyWeightsNullTheInterferer) {
  StapParams p = StapParams::small_test();
  p.num_beams = 1;
  const index_t j = p.num_channels;
  auto steering = one_beam_steering(j);
  const double interferer_az = 0.6;
  auto v_int = synth::spatial_steering(j, interferer_az);

  std::vector<index_t> bins = {p.easy_bins()[0]};
  EasyWeightComputer comp(p, steering, bins);
  Rng rng(9);
  std::vector<linalg::MatrixCF> training;
  linalg::MatrixCF x(64, j);
  for (index_t r = 0; r < 64; ++r) {
    const cdouble amp = rng.cnormal() * 31.6;  // ~30 dB interferer
    for (index_t c = 0; c < j; ++c) {
      const cdouble noise = rng.cnormal() * 0.1;
      const cdouble val =
          amp * cdouble(v_int[static_cast<size_t>(c)].real(),
                        v_int[static_cast<size_t>(c)].imag()) +
          noise;
      x(r, c) = cfloat(static_cast<float>(val.real()),
                       static_cast<float>(val.imag()));
    }
  }
  training.push_back(std::move(x));
  comp.push_training(std::move(training));
  auto w = comp.compute();
  const auto& wm = w.weights[0];

  // Response toward the interferer vs. toward the look direction.
  cfloat toward_int{}, toward_look{};
  auto v_look = synth::spatial_steering(j, 0.0);
  for (index_t c = 0; c < j; ++c) {
    toward_int += std::conj(wm(c, 0)) * v_int[static_cast<size_t>(c)];
    toward_look += std::conj(wm(c, 0)) * v_look[static_cast<size_t>(c)];
  }
  EXPECT_GT(std::abs(toward_look), 20.0 * std::abs(toward_int))
      << "look=" << std::abs(toward_look) << " int=" << std::abs(toward_int);
}

TEST(Weights, HardRecursiveNullsPersistentInterferer) {
  StapParams p = StapParams::small_test();
  p.num_beams = 1;
  const index_t j = p.num_channels;
  const index_t jj = p.num_staggered_channels();
  auto steering = one_beam_steering(j);
  const index_t bin = p.hard_bins()[0];
  HardWeightComputer comp(p, steering, {HardUnit{bin, 0}});

  const double interferer_az = 0.5;
  auto v_int = synth::spatial_steering(j, interferer_az);
  Rng rng(21);
  // Several CPIs of training: interferer identical in both stagger halves
  // (zero-Doppler-ish), plus noise.
  for (int cpi = 0; cpi < 6; ++cpi) {
    linalg::MatrixCF x(static_cast<index_t>(p.hard_samples_per_segment), jj);
    for (index_t r = 0; r < x.rows(); ++r) {
      const cdouble amp = rng.cnormal() * 31.6;
      for (index_t c = 0; c < jj; ++c) {
        const cdouble noise = rng.cnormal() * 0.1;
        const auto& vi = v_int[static_cast<size_t>(c % j)];
        const cdouble val = amp * cdouble(vi.real(), vi.imag()) + noise;
        x(r, c) = cfloat(static_cast<float>(val.real()),
                         static_cast<float>(val.imag()));
      }
    }
    comp.update({x});
  }
  auto w = comp.compute();
  const auto& wm = w[0];
  ASSERT_EQ(wm.rows(), jj);

  // Interference response of the stacked weight pair (same signal in both
  // halves) vs. the constrained steering response.
  cfloat toward_int{};
  for (index_t c = 0; c < jj; ++c)
    toward_int += std::conj(wm(c, 0)) * v_int[static_cast<size_t>(c % j)];
  // Constrained target response: w1 + e^{j phi} w2 combined with steering.
  const double phi = -2.0 * std::numbers::pi * static_cast<double>(bin) *
                     static_cast<double>(p.stagger) /
                     static_cast<double>(p.num_pulses);
  const cfloat ph(static_cast<float>(std::cos(phi)),
                  static_cast<float>(std::sin(phi)));
  auto v_look = synth::spatial_steering(j, 0.0);
  cfloat toward_look{};
  for (index_t c = 0; c < j; ++c)
    toward_look += std::conj(wm(c, 0) + ph * wm(j + c, 0)) *
                   v_look[static_cast<size_t>(c)];
  EXPECT_GT(std::abs(toward_look), 10.0 * std::abs(toward_int));
}

TEST(Weights, ConventionalLsAlsoNullsButLosesTargetGain) {
  // The Appendix-A comparison: conventional least squares (Fig. 12) vs the
  // constrained formulation. With scarce sample support the conventional
  // solution sacrifices gain on the target; the constrained one does not.
  StapParams p = StapParams::small_test();
  p.num_channels = 8;
  p.num_beams = 1;
  p.beam_span_rad = 0.0;
  const index_t j = p.num_channels;
  auto steering = one_beam_steering(j);
  auto v_int = synth::spatial_steering(j, 0.5);

  Rng rng(99);
  linalg::MatrixCF x(12, j);  // barely overdetermined
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
  const auto w_ls = conventional_ls_weights(x, steering);
  EXPECT_EQ(w_ls.rows(), j);
  EXPECT_EQ(w_ls.cols(), 1);

  EasyWeightComputer comp(p, steering, {p.easy_bins()[0]});
  std::vector<linalg::MatrixCF> push;
  push.push_back(x);
  comp.push_training(std::move(push));
  const auto w_con = comp.compute().weights[0];

  // Both null the interferer (>= 15 dB below the matched response).
  auto response = [&](const linalg::MatrixCF& w,
                      std::span<const cfloat> v) {
    cfloat acc{};
    for (index_t c = 0; c < j; ++c)
      acc += std::conj(w(c, 0)) * v[static_cast<size_t>(c)];
    return static_cast<double>(std::abs(acc));
  };
  auto v_look = synth::spatial_steering(j, 0.0);
  const double sqrt_j = std::sqrt(static_cast<double>(j));
  EXPECT_LT(response(w_ls, v_int), 0.2 * sqrt_j);
  EXPECT_LT(response(w_con, v_int), 0.2 * sqrt_j);
  // The constrained solution keeps (nearly) the full matched target gain;
  // the conventional one gives a measurable part of it away.
  EXPECT_GT(response(w_con, v_look), 0.97 * sqrt_j);
  EXPECT_GT(response(w_con, v_look), response(w_ls, v_look));
}

TEST(Weights, ConventionalLsShapeMismatchThrows) {
  linalg::MatrixCF training(10, 4);
  linalg::MatrixCF steering(5, 1);
  EXPECT_THROW(conventional_ls_weights(training, steering), Error);
}

TEST(Weights, HistoryWindowDropsOldCpis) {
  StapParams p = StapParams::small_test();
  p.num_beams = 1;
  p.easy_history = 2;
  auto steering = one_beam_steering(p.num_channels);
  std::vector<index_t> bins = {p.easy_bins()[0]};
  EasyWeightComputer comp(p, steering, bins);

  // Push three distinct training sets; weights must depend only on the last
  // two — verified by pushing a fourth identical to the second+third and
  // comparing.
  auto make = [&](float scale) {
    linalg::MatrixCF x(8, p.num_channels);
    for (index_t r = 0; r < 8; ++r)
      for (index_t c = 0; c < p.num_channels; ++c)
        x(r, c) = cfloat(scale * static_cast<float>(r + 1),
                         scale * static_cast<float>(c));
    std::vector<linalg::MatrixCF> v;
    v.push_back(std::move(x));
    return v;
  };
  comp.push_training(make(1.0f));
  comp.push_training(make(2.0f));
  comp.push_training(make(3.0f));
  auto w_after3 = comp.compute();

  EasyWeightComputer fresh(p, steering, bins);
  fresh.push_training(make(2.0f));
  fresh.push_training(make(3.0f));
  auto w_fresh = fresh.compute();
  EXPECT_LT(linalg::frobenius_distance(w_after3.weights[0],
                                       w_fresh.weights[0]),
            1e-5f);
}

TEST(Weights, ExponentialForgettingDropsStaleInterference) {
  // The paper's hard-bin recursion exists because azimuth positions are
  // revisited: old looks must fade. Train on interferer A, then switch to
  // interferer B; after enough updates the weights must null B and have
  // largely released A (lambda^updates decay).
  StapParams p = StapParams::small_test();
  p.num_beams = 1;
  p.forgetting = 0.6;
  const index_t j = p.num_channels;
  const index_t jj = p.num_staggered_channels();
  auto steering = one_beam_steering(j);
  const index_t bin = p.hard_bins()[0];
  HardWeightComputer comp(p, steering, {HardUnit{bin, 0}});

  Rng rng(77);
  auto make_training = [&](const std::vector<cfloat>& v) {
    linalg::MatrixCF x(static_cast<index_t>(p.hard_samples_per_segment), jj);
    for (index_t r = 0; r < x.rows(); ++r) {
      const cdouble amp = rng.cnormal() * 31.6;
      for (index_t c = 0; c < jj; ++c) {
        const cdouble n = rng.cnormal() * 0.1;
        const auto& vc = v[static_cast<size_t>(c % j)];
        const cdouble val = amp * cdouble(vc.real(), vc.imag()) + n;
        x(r, c) = cfloat(static_cast<float>(val.real()),
                         static_cast<float>(val.imag()));
      }
    }
    return x;
  };
  const auto v_a = synth::spatial_steering(j, 0.55);
  const auto v_b = synth::spatial_steering(j, -0.45);

  for (int i = 0; i < 8; ++i) comp.update({make_training(v_a)});
  const auto w_after_a = comp.compute()[0];
  for (int i = 0; i < 10; ++i) comp.update({make_training(v_b)});
  const auto w_after_b = comp.compute()[0];

  auto stacked_response = [&](const linalg::MatrixCF& w,
                              const std::vector<cfloat>& v) {
    cfloat acc{};
    for (index_t c = 0; c < jj; ++c)
      acc += std::conj(w(c, 0)) * v[static_cast<size_t>(c % j)];
    return static_cast<double>(std::abs(acc));
  };
  // While A is live it is deeply nulled.
  EXPECT_LT(stacked_response(w_after_a, v_a), 0.05);
  // After B takes over: B nulled, A substantially released (an order of
  // magnitude shallower null than B's).
  EXPECT_LT(stacked_response(w_after_b, v_b), 0.05);
  EXPECT_GT(stacked_response(w_after_b, v_a),
            10.0 * stacked_response(w_after_b, v_b));
}

TEST(Weights, LongRecursionStaysNumericallyStable) {
  // Hundreds of forgetting-factor updates: R must remain finite and the
  // solves well conditioned (the recursion is used for the whole flight).
  StapParams p = StapParams::small_test();
  p.num_beams = 1;
  auto steering = one_beam_steering(p.num_channels);
  const index_t jj = p.num_staggered_channels();
  HardWeightComputer comp(p, steering, {HardUnit{p.hard_bins()[1], 1}});
  Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    linalg::MatrixCF x(static_cast<index_t>(p.hard_samples_per_segment), jj);
    for (index_t r = 0; r < x.rows(); ++r)
      for (index_t c = 0; c < jj; ++c) {
        auto z = rng.cnormal();
        x(r, c) = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
      }
    comp.update({x});
  }
  const auto w = comp.compute()[0];
  double norm_sq = 0;
  for (index_t c = 0; c < jj; ++c) {
    EXPECT_TRUE(std::isfinite(w(c, 0).real()));
    EXPECT_TRUE(std::isfinite(w(c, 0).imag()));
    norm_sq += std::norm(w(c, 0));
  }
  EXPECT_NEAR(norm_sq, 1.0, 1e-4);
}

TEST(Weights, MismatchedTrainingShapeThrows) {
  StapParams p = StapParams::small_test();
  auto steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                         p.beam_center_rad, p.beam_span_rad);
  EasyWeightComputer comp(p, steering, {p.easy_bins()[0]});
  std::vector<linalg::MatrixCF> bad;
  bad.emplace_back(4, p.num_channels + 1);
  EXPECT_THROW(comp.push_training(std::move(bad)), Error);
  HardWeightComputer hcomp(p, steering, {HardUnit{p.hard_bins()[0], 0}});
  std::vector<linalg::MatrixCF> bad2;
  bad2.emplace_back(4, p.num_channels);  // must be 2J
  EXPECT_THROW(hcomp.update(bad2), Error);
}

// ---------------------------------------------------------------------------
// Structured hard solve: tolerance oracle
//
// The hard path folds the J constraint rows into a copy of the carried R
// instead of factoring the dense [R; C] stack, so its arithmetic differs
// from a dense solve; these tests hold it to a double-precision dense
// solve of the same problem and to the guard behaviour of the dense path.
// ---------------------------------------------------------------------------

// Training snapshots (rows x 2J) for a hard unit: two spatial interferers,
// each with its own phase between the stagger halves, over unit noise.
linalg::MatrixCF hard_snapshots(index_t rows, index_t j, Rng& rng) {
  const auto v1 = synth::spatial_steering(j, 0.45);
  const auto v2 = synth::spatial_steering(j, -0.3);
  const cdouble rot1 = std::polar(1.0, 0.7), rot2 = std::polar(1.0, -1.9);
  linalg::MatrixCF x(rows, 2 * j);
  for (index_t r = 0; r < rows; ++r) {
    const cdouble a1 = rng.cnormal() * 10.0, a2 = rng.cnormal() * 5.0;
    for (index_t c = 0; c < j; ++c) {
      const cdouble e1 = cdouble(v1[static_cast<size_t>(c)]);
      const cdouble e2 = cdouble(v2[static_cast<size_t>(c)]);
      const cdouble lo = a1 * e1 + a2 * e2 + rng.cnormal();
      const cdouble hi = a1 * rot1 * e1 + a2 * rot2 * e2 + rng.cnormal();
      x(r, c) = cfloat(static_cast<float>(lo.real()),
                       static_cast<float>(lo.imag()));
      x(r, j + c) = cfloat(static_cast<float>(hi.real()),
                           static_cast<float>(hi.imag()));
    }
  }
  return x;
}

// A single-unit computer's carried R, read back through its checkpoint.
linalg::MatrixCF carried_r(const HardWeightComputer& comp) {
  std::stringstream ss;
  comp.save(ss);
  std::uint64_t count = 0;
  ss.read(reinterpret_cast<char*>(&count), sizeof(count));
  return linalg::read_matrix<cfloat>(ss);
}

void restore_r(HardWeightComputer& comp, const linalg::MatrixCF& r) {
  std::stringstream ss;
  const std::uint64_t count = 1;
  ss.write(reinterpret_cast<const char*>(&count), sizeof(count));
  linalg::write_matrix(ss, r);
  comp.restore(ss);
}

// The dense reference: [R; C] w ~ [0; S] solved by a double-precision
// Householder QR, columns unit-normalized — the problem the hard path
// solved before the structured fold, in the precision that makes it an
// oracle.
linalg::MatrixCD dense_hard_oracle(const StapParams& p,
                                   const linalg::MatrixCF& r,
                                   const linalg::MatrixCF& steering,
                                   index_t bin) {
  const index_t j = p.num_channels, jj = 2 * j, m = steering.cols();
  double abs_acc = 0.0;
  index_t count = 0;
  for (index_t a = 0; a < jj; ++a)
    for (index_t b = a; b < jj; ++b, ++count) abs_acc += std::abs(r(a, b));
  const double avg =
      p.beam_constraint_wt * abs_acc / static_cast<double>(count);
  const double phi = -2.0 * std::numbers::pi * static_cast<double>(bin) *
                     static_cast<double>(p.stagger) /
                     static_cast<double>(p.num_pulses);
  linalg::MatrixCD a(jj + j, jj), b(jj + j, m);
  for (index_t row = 0; row < jj; ++row)
    for (index_t col = row; col < jj; ++col) a(row, col) = cdouble(r(row, col));
  for (index_t row = 0; row < j; ++row) {
    a(jj + row, row) = avg;
    a(jj + row, j + row) = avg * std::polar(1.0, phi);
    for (index_t c = 0; c < m; ++c) b(jj + row, c) = cdouble(steering(row, c));
  }
  auto w = linalg::QrFactorization<cdouble>(a).solve(b);
  for (index_t c = 0; c < m; ++c) {
    double n2 = 0.0;
    for (index_t i = 0; i < jj; ++i) n2 += std::norm(w(i, c));
    for (index_t i = 0; i < jj; ++i) w(i, c) /= std::sqrt(n2);
  }
  return w;
}

TEST(Weights, StructuredHardSolveMatchesDenseOracle) {
  StapParams p;  // paper shape: 2J = 32 columns, J = 16 constraint rows
  const index_t j = p.num_channels, jj = 2 * j;
  const auto steering = synth::steering_matrix(j, p.num_beams,
                                               p.beam_center_rad,
                                               p.beam_span_rad);
  const index_t bin = p.hard_bins()[3];
  HardWeightComputer comp(p, steering, {HardUnit{bin, 0}});
  Rng rng(123);
  for (int cpi = 0; cpi < 8; ++cpi)
    comp.update({hard_snapshots(p.hard_samples_per_segment, j, rng)});

  const auto w = comp.compute()[0];
  ASSERT_TRUE(comp.health().clean());
  const auto oracle = dense_hard_oracle(p, carried_r(comp), steering, bin);

  // Interference-plus-noise covariance of the same process, from a large
  // seeded training set, for the SINR comparison.
  Rng cov_rng(321);
  const auto rin = sample_covariance(hard_snapshots(4000, j, cov_rng), 0.0f);
  const double phi = -2.0 * std::numbers::pi * static_cast<double>(bin) *
                     static_cast<double>(p.stagger) /
                     static_cast<double>(p.num_pulses);
  const cfloat back(static_cast<float>(std::cos(phi)),
                    static_cast<float>(-std::sin(phi)));
  linalg::MatrixCF w_oracle(jj, p.num_beams);
  for (index_t i = 0; i < jj; ++i)
    for (index_t c = 0; c < p.num_beams; ++c)
      w_oracle(i, c) = cfloat(oracle(i, c));

  for (index_t c = 0; c < p.num_beams; ++c) {
    double err2 = 0.0;
    for (index_t i = 0; i < jj; ++i)
      err2 += std::norm(cdouble(w(i, c)) - oracle(i, c));
    EXPECT_LE(std::sqrt(err2), 1e-4) << "beam " << c;

    // Target at this beam's look direction in both stagger halves.
    std::vector<cfloat> v(static_cast<size_t>(jj));
    for (index_t i = 0; i < j; ++i) {
      v[static_cast<size_t>(i)] = steering(i, c);
      v[static_cast<size_t>(j + i)] = back * steering(i, c);
    }
    const double db = 10.0 * std::log10(sinr(w, c, rin, v) /
                                        sinr(w_oracle, c, rin, v));
    EXPECT_LE(std::abs(db), 0.1) << "beam " << c;
  }
}

TEST(Weights, StructuredHardSolveRetriesOnAllZeroR) {
  StapParams p = StapParams::small_test();
  const index_t jj = p.num_staggered_channels();
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  HardWeightComputer comp(p, steering, {HardUnit{p.hard_bins()[0], 0}});
  // All-zero training state: the constraint rows alone leave the fold
  // rank-deficient, so the guard must take its one loading retry.
  restore_r(comp, linalg::MatrixCF(jj, jj));
  const auto w = comp.compute()[0];
  EXPECT_EQ(comp.health().loading_retries, 1u);
  EXPECT_EQ(comp.health().qr_residual_retries, 0u);
  for (index_t c = 0; c < w.cols(); ++c) {
    double n2 = 0.0;
    for (index_t i = 0; i < jj; ++i) {
      ASSERT_TRUE(std::isfinite(std::abs(w(i, c))));
      n2 += std::norm(w(i, c));
    }
    EXPECT_NEAR(n2, 1.0, 1e-4);
  }
}

TEST(Weights, StructuredHardSolveCountsCorruptedFold) {
  StapParams p = StapParams::small_test();
  p.abft_tolerance = 1e-3;
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  HardWeightComputer comp(p, steering, {HardUnit{p.hard_bins()[0], 0}});
  Rng rng(5);
  comp.update(
      {hard_snapshots(p.hard_samples_per_segment, p.num_channels, rng)});
  (void)comp.compute();
  ASSERT_TRUE(comp.health().clean());

  // An exponent-corrupted carried R entry: finite, but large enough that
  // the float reflector norms of the constraint fold overflow. The double-
  // accumulated column-norm gate must see the fold break and retry it.
  auto r = carried_r(comp);
  r(1, 3) = cfloat(3e37f, r(1, 3).imag());
  restore_r(comp, r);
  const auto w = comp.compute()[0];
  EXPECT_EQ(comp.health().qr_residual_retries, 1u);
  // The loaded retry overflows the same way: rejected, and the unit falls
  // back to its quiescent weights instead of solving a broken factor.
  EXPECT_EQ(comp.health().qr_residual_rejects, 1u);
  EXPECT_EQ(comp.health().quiescent_fallbacks, 1u);
  for (index_t i = 0; i < w.size(); ++i)
    ASSERT_TRUE(std::isfinite(std::abs(w.data()[i])));
}

// ---------------------------------------------------------------------------
// Batched weight solves: one lane per unit (DESIGN §18)
// ---------------------------------------------------------------------------

bool bitwise_equal(const linalg::MatrixCF& a, const linalg::MatrixCF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(cfloat)) == 0;
}

// One CPI of hard training rows per unit, drawn per unit from its own
// seeded stream so any unit list reproduces the same rows for a unit.
std::vector<linalg::MatrixCF> unit_rows(const StapParams& p,
                                        const std::vector<HardUnit>& units,
                                        int cpi) {
  std::vector<linalg::MatrixCF> rows;
  for (const auto& u : units) {
    Rng rng(1000u * static_cast<std::uint64_t>(cpi) +
            37u * static_cast<std::uint64_t>(u.bin) +
            static_cast<std::uint64_t>(u.segment));
    rows.push_back(
        hard_snapshots(p.hard_samples_per_segment, p.num_channels, rng));
  }
  return rows;
}

std::vector<linalg::MatrixCF> bin_rows(const StapParams& p,
                                       const std::vector<index_t>& bins,
                                       int cpi) {
  std::vector<linalg::MatrixCF> rows;
  for (index_t b : bins) {
    Rng rng(5000u * static_cast<std::uint64_t>(cpi) +
            static_cast<std::uint64_t>(b));
    linalg::MatrixCF x(p.easy_samples_per_cpi, p.num_channels);
    for (index_t i = 0; i < x.size(); ++i)
      x.data()[i] = cfloat(rng.cnormal() * 3.0);
    rows.push_back(std::move(x));
  }
  return rows;
}

// Weights per hard unit after `cpis` updates, from a computer over `units`.
std::map<std::pair<index_t, index_t>, linalg::MatrixCF> hard_weights_for(
    const StapParams& p, const linalg::MatrixCF& steering,
    const std::vector<HardUnit>& units, int cpis) {
  HardWeightComputer comp(p, steering, units);
  for (int cpi = 0; cpi < cpis; ++cpi) comp.update(unit_rows(p, units, cpi));
  const auto w = comp.compute();
  std::map<std::pair<index_t, index_t>, linalg::MatrixCF> out;
  for (size_t i = 0; i < units.size(); ++i)
    out[{units[i].bin, units[i].segment}] = w[i];
  return out;
}

std::map<index_t, linalg::MatrixCF> easy_weights_for(
    const StapParams& p, const linalg::MatrixCF& steering,
    const std::vector<index_t>& bins, int cpis) {
  EasyWeightComputer comp(p, steering, bins);
  for (int cpi = 0; cpi < cpis; ++cpi)
    comp.push_training(bin_rows(p, bins, cpi));
  const auto w = comp.compute();
  std::map<index_t, linalg::MatrixCF> out;
  for (size_t i = 0; i < bins.size(); ++i) out[bins[i]] = w.weights[i];
  return out;
}

TEST(Weights, BatchedWeightsBitwiseEqualAcrossSimdLevels) {
  if (!kernels::avx2_available())
    GTEST_SKIP() << "host or build lacks AVX2+FMA";
  StapParams p = StapParams::small_test();
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  const auto hb = p.hard_bins();
  const auto units =
      HardWeightComputer::units_for_bins(p, std::span<const index_t>(hb));
  const auto eb = p.easy_bins();
  const kernels::SimdLevel initial = kernels::simd_level();
  kernels::force_simd_level(kernels::SimdLevel::kScalar);
  const auto hard_sc = hard_weights_for(p, steering, units, 4);
  const auto easy_sc = easy_weights_for(p, steering, eb, 4);
  kernels::force_simd_level(kernels::SimdLevel::kAvx2);
  const auto hard_vx = hard_weights_for(p, steering, units, 4);
  const auto easy_vx = easy_weights_for(p, steering, eb, 4);
  kernels::force_simd_level(initial);
  for (const auto& [key, w] : hard_sc)
    EXPECT_TRUE(bitwise_equal(w, hard_vx.at(key)))
        << "hard bin " << key.first << " segment " << key.second;
  for (const auto& [bin, w] : easy_sc)
    EXPECT_TRUE(bitwise_equal(w, easy_vx.at(bin))) << "easy bin " << bin;
}

// A lane's result depends only on its own problem: permuting the unit list
// or splitting it across computers leaves every unit's weights bit-equal.
TEST(Weights, LaneResultsIndependentOfBatchComposition) {
  StapParams p = StapParams::small_test();
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  const auto hb = p.hard_bins();
  auto units =
      HardWeightComputer::units_for_bins(p, std::span<const index_t>(hb));
  ASSERT_GT(units.size(), 8u);  // two groups, the second ragged
  const auto all = hard_weights_for(p, steering, units, 5);

  auto permuted = units;
  std::reverse(permuted.begin(), permuted.end());
  std::swap(permuted[0], permuted[5]);
  for (const auto& [key, w] : hard_weights_for(p, steering, permuted, 5))
    EXPECT_TRUE(bitwise_equal(w, all.at(key))) << "permuted unit";
  for (size_t cut : {size_t{1}, size_t{3}, size_t{9}}) {
    const std::vector<HardUnit> head(units.begin(), units.begin() + cut);
    const std::vector<HardUnit> tail(units.begin() + cut, units.end());
    for (const auto* part : {&head, &tail})
      for (const auto& [key, w] : hard_weights_for(p, steering, *part, 5))
        EXPECT_TRUE(bitwise_equal(w, all.at(key))) << "split at " << cut;
  }

  auto bins = p.easy_bins();
  const auto easy_all = easy_weights_for(p, steering, bins, 4);
  std::reverse(bins.begin(), bins.end());
  for (const auto& [bin, w] : easy_weights_for(p, steering, bins, 4))
    EXPECT_TRUE(bitwise_equal(w, easy_all.at(bin))) << "permuted bin " << bin;
  const std::vector<index_t> one = {bins[4]};
  EXPECT_TRUE(bitwise_equal(easy_weights_for(p, steering, one, 4).at(bins[4]),
                            easy_all.at(bins[4])));
}

// The guards act per lane: an all-zero R in one lane takes exactly one
// loading retry, a corrupted fold in one lane exactly one residual retry,
// and every other unit's weights stay bit-unchanged.
TEST(Weights, PerLaneGuardsLeaveNeighboursUnchanged) {
  StapParams p = StapParams::small_test();
  p.abft_tolerance = 1e-3;
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  const index_t jj = p.num_staggered_channels();
  const auto hb = p.hard_bins();
  const auto units =
      HardWeightComputer::units_for_bins(p, std::span<const index_t>(hb));
  HardWeightComputer comp(p, steering, units);
  for (int cpi = 0; cpi < 3; ++cpi) comp.update(unit_rows(p, units, cpi));
  const auto clean = comp.compute();
  ASSERT_TRUE(comp.health().clean());

  std::stringstream ckpt;
  comp.save(ckpt);
  const std::string blob = ckpt.str();
  // Rewrite unit `victim`'s factor in a copy of the checkpoint.
  auto restore_with = [&](size_t victim, auto&& edit) {
    std::stringstream in(blob), out;
    std::uint64_t count = 0;
    in.read(reinterpret_cast<char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (std::uint64_t u = 0; u < count; ++u) {
      auto r = linalg::read_matrix<cfloat>(in);
      if (u == victim) edit(r);
      linalg::write_matrix(out, r);
    }
    HardWeightComputer fresh(p, steering, units);
    fresh.restore(out);
    return fresh;
  };
  const size_t victim = 2;
  {
    auto zero = restore_with(victim, [&](linalg::MatrixCF& r) {
      r = linalg::MatrixCF(jj, jj);
    });
    const auto w = zero.compute();
    EXPECT_EQ(zero.health().loading_retries, 1u);
    EXPECT_EQ(zero.health().qr_residual_retries, 0u);
    for (size_t u = 0; u < units.size(); ++u) {
      if (u != victim) {
        EXPECT_TRUE(bitwise_equal(w[u], clean[u])) << u;
      }
    }
  }
  {
    auto corrupt = restore_with(victim, [](linalg::MatrixCF& r) {
      r(1, 3) = cfloat(3e37f, r(1, 3).imag());
    });
    const auto w = corrupt.compute();
    EXPECT_EQ(corrupt.health().qr_residual_retries, 1u);
    EXPECT_EQ(corrupt.health().qr_residual_rejects, 1u);
    EXPECT_EQ(corrupt.health().loading_retries, 0u);
    for (size_t u = 0; u < units.size(); ++u) {
      if (u != victim) {
        EXPECT_TRUE(bitwise_equal(w[u], clean[u])) << u;
      }
    }
  }
}

// The easy path's dense-double reference: [conj X; avg I] w ~ [0; S] by a
// double Householder QR (avg = k mean|x|, as the computer defines it),
// columns unit-normalized — mirrored on the hard oracle above.
TEST(Weights, EasySolveMatchesDenseOracle) {
  StapParams p;  // paper shape: J = 16 columns
  const index_t j = p.num_channels, m = p.num_beams;
  const auto steering = synth::steering_matrix(j, m, p.beam_center_rad,
                                               p.beam_span_rad);
  const std::vector<index_t> bins = {p.easy_bins()[5], p.easy_bins()[40]};
  EasyWeightComputer comp(p, steering, bins);
  // Two spatial interferers over unit noise: the first J halves of the
  // hard snapshot generator.
  Rng rng(77);
  std::vector<std::vector<linalg::MatrixCF>> pushed;
  for (index_t h = 0; h < p.easy_history; ++h) {
    std::vector<linalg::MatrixCF> rows;
    for (size_t b = 0; b < bins.size(); ++b) {
      const auto x2 = hard_snapshots(p.easy_samples_per_cpi, j, rng);
      linalg::MatrixCF x(x2.rows(), j);
      for (index_t r = 0; r < x.rows(); ++r)
        for (index_t c = 0; c < j; ++c) x(r, c) = x2(r, c);
      rows.push_back(std::move(x));
    }
    pushed.push_back(rows);
    comp.push_training(std::move(rows));
  }
  const auto w = comp.compute();
  ASSERT_TRUE(comp.health().clean());

  Rng cov_rng(321);
  const auto big = hard_snapshots(4000, j, cov_rng);
  linalg::MatrixCF big_j(big.rows(), j);
  for (index_t r = 0; r < big.rows(); ++r)
    for (index_t c = 0; c < j; ++c) big_j(r, c) = big(r, c);
  const auto rin = sample_covariance(big_j, 0.0f);

  for (size_t b = 0; b < bins.size(); ++b) {
    index_t rows = 0;
    double abs_acc = 0.0;
    for (const auto& cpi : pushed) {
      rows += cpi[b].rows();
      for (index_t i = 0; i < cpi[b].size(); ++i)
        abs_acc += std::abs(cdouble(cpi[b].data()[i]));
    }
    const double avg =
        p.beam_constraint_wt * abs_acc / static_cast<double>(rows * j);
    linalg::MatrixCD a(rows + j, j), rhs(rows + j, m);
    index_t row = 0;
    for (const auto& cpi : pushed)
      for (index_t r = 0; r < cpi[b].rows(); ++r, ++row)
        for (index_t c = 0; c < j; ++c)
          a(row, c) = std::conj(cdouble(cpi[b](r, c)));
    for (index_t c = 0; c < j; ++c) {
      a(rows + c, c) = avg;
      for (index_t beam = 0; beam < m; ++beam)
        rhs(rows + c, beam) = cdouble(steering(c, beam));
    }
    auto oracle = linalg::QrFactorization<cdouble>(a).solve(rhs);
    linalg::MatrixCF w_oracle(j, m);
    for (index_t c = 0; c < m; ++c) {
      double n2 = 0.0;
      for (index_t i = 0; i < j; ++i) n2 += std::norm(oracle(i, c));
      for (index_t i = 0; i < j; ++i) {
        oracle(i, c) /= std::sqrt(n2);
        w_oracle(i, c) = cfloat(oracle(i, c));
      }
    }
    const auto& wb = w.weights[b];
    for (index_t c = 0; c < m; ++c) {
      double err2 = 0.0;
      for (index_t i = 0; i < j; ++i)
        err2 += std::norm(cdouble(wb(i, c)) - oracle(i, c));
      EXPECT_LE(std::sqrt(err2), 1e-4) << "bin " << bins[b] << " beam " << c;
      std::vector<cfloat> v(static_cast<size_t>(j));
      for (index_t i = 0; i < j; ++i) v[static_cast<size_t>(i)] = steering(i, c);
      const double db = 10.0 * std::log10(sinr(wb, c, rin, v) /
                                          sinr(w_oracle, c, rin, v));
      EXPECT_LE(std::abs(db), 0.1) << "bin " << bins[b] << " beam " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Beamforming
// ---------------------------------------------------------------------------

TEST(Beamform, EasyMatchesExplicitProduct) {
  StapParams p = StapParams::small_test();
  const index_t nb = 3;
  cube::CpiCube data(nb, p.num_range, p.num_channels);
  Rng rng(31);
  for (index_t i = 0; i < data.size(); ++i) {
    auto z = rng.cnormal();
    data.data()[i] = cfloat(static_cast<float>(z.real()),
                            static_cast<float>(z.imag()));
  }
  WeightSet w;
  w.bins = {0, 1, 2};
  for (int b = 0; b < 3; ++b) {
    linalg::MatrixCF wm(p.num_channels, p.num_beams);
    for (index_t r = 0; r < p.num_channels; ++r)
      for (index_t c = 0; c < p.num_beams; ++c) {
        auto z = rng.cnormal();
        wm(r, c) = cfloat(static_cast<float>(z.real()),
                          static_cast<float>(z.imag()));
      }
    w.weights.push_back(std::move(wm));
  }
  auto out = easy_beamform(data, w, p);
  EXPECT_EQ(out.extent(0), nb);
  EXPECT_EQ(out.extent(1), p.num_beams);
  EXPECT_EQ(out.extent(2), p.num_range);
  for (index_t b = 0; b < nb; ++b)
    for (index_t m = 0; m < p.num_beams; ++m)
      for (index_t k = 0; k < p.num_range; k += 7) {
        cfloat ref{};
        for (index_t c = 0; c < p.num_channels; ++c)
          ref += std::conj(w.weights[static_cast<size_t>(b)](c, m)) *
                 data.at(b, k, c);
        EXPECT_NEAR(std::abs(out.at(b, m, k) - ref), 0.0, 1e-4);
      }
}

TEST(Beamform, HardAppliesPerSegmentWeights) {
  StapParams p = StapParams::small_test();
  p.num_beams = 1;
  const index_t jj = p.num_staggered_channels();
  cube::CpiCube data(1, p.num_range, jj);
  for (index_t k = 0; k < p.num_range; ++k)
    for (index_t c = 0; c < jj; ++c) data.at(0, k, c) = cfloat(1.0f, 0.0f);

  WeightSet w;
  w.bins = {0};
  for (index_t s = 0; s < p.num_segments; ++s) {
    linalg::MatrixCF wm(jj, 1);
    // Weight distinguishable per segment: w = (s+1)/jj on channel 0.
    wm(0, 0) = cfloat(static_cast<float>(s + 1), 0.0f);
    w.weights.push_back(std::move(wm));
  }
  auto out = hard_beamform(data, w, p);
  for (index_t s = 0; s < p.num_segments; ++s)
    for (index_t k = p.segment_begin(s); k < p.segment_end(s); ++k)
      EXPECT_NEAR(out.at(0, 0, k).real(), static_cast<float>(s + 1), 1e-5);
}

TEST(Beamform, WrongChannelCountThrows) {
  StapParams p = StapParams::small_test();
  cube::CpiCube data(1, p.num_range, p.num_channels);  // J channels
  WeightSet w;
  w.bins = {0};
  w.weights.emplace_back(p.num_staggered_channels(), p.num_beams);
  EXPECT_THROW(hard_beamform(data, w, p), Error);  // hard expects 2J
}

// ---------------------------------------------------------------------------
// Pulse compression
// ---------------------------------------------------------------------------

TEST(PulseCompression, CompressesChirpReturnToItsRange) {
  StapParams p = StapParams::small_test();
  const index_t l = 8, target = 20;
  auto replica = dsp::lfm_chirp(l);
  cube::CpiCube bf(1, 1, p.num_range);
  // The beamformed line holds a chirp starting at `target` (circular).
  for (index_t i = 0; i < l; ++i)
    bf.at(0, 0, (target + i) % p.num_range) = replica[static_cast<size_t>(i)];

  PulseCompressor pc(p, replica);
  auto power = pc.compress(bf);
  index_t peak = 0;
  for (index_t k = 1; k < p.num_range; ++k)
    if (power.at(0, 0, k) > power.at(0, 0, peak)) peak = k;
  EXPECT_EQ(peak, target);
  EXPECT_NEAR(power.at(0, 0, target), 1.0, 1e-3);  // energy 1 -> power 1
}

TEST(PulseCompression, EmptyReplicaIsPureDetection) {
  StapParams p = StapParams::small_test();
  cube::CpiCube bf(2, 1, p.num_range);
  bf.at(1, 0, 3) = cfloat(3.0f, 4.0f);
  PulseCompressor pc(p, {});
  auto power = pc.compress(bf);
  EXPECT_NEAR(power.at(1, 0, 3), 25.0f, 1e-4);
  EXPECT_EQ(power.at(0, 0, 3), 0.0f);
}

TEST(PulseCompression, OutputIsNonNegative) {
  StapParams p = StapParams::small_test();
  auto replica = dsp::lfm_chirp(8);
  cube::CpiCube bf(2, 2, p.num_range);
  Rng rng(3);
  for (index_t i = 0; i < bf.size(); ++i) {
    auto z = rng.cnormal();
    bf.data()[i] = cfloat(static_cast<float>(z.real()),
                          static_cast<float>(z.imag()));
  }
  auto power = PulseCompressor(p, replica).compress(bf);
  for (index_t i = 0; i < power.size(); ++i)
    EXPECT_GE(power.data()[i], 0.0f);
}

// ---------------------------------------------------------------------------
// CFAR
// ---------------------------------------------------------------------------

TEST(Cfar, DetectsIsolatedSpike) {
  StapParams p = StapParams::small_test();
  cube::RealCube power(1, 1, p.num_range);
  Rng rng(17);
  for (index_t k = 0; k < p.num_range; ++k)
    power.at(0, 0, k) = static_cast<float>(std::norm(rng.cnormal()));
  power.at(0, 0, 30) = 1000.0f;
  std::vector<index_t> bins = {7};
  auto dets = cfar_detect(power, bins, p);
  ASSERT_GE(dets.size(), 1u);
  bool found = false;
  for (const auto& d : dets)
    if (d.range == 30 && d.doppler_bin == 7 && d.beam == 0) found = true;
  EXPECT_TRUE(found);
}

TEST(Cfar, FalseAlarmRateNearDesignPfa) {
  StapParams p = StapParams::small_test();
  p.cfar_pfa = 1e-2;
  const index_t trials = 400;
  cube::RealCube power(trials, 1, p.num_range);
  Rng rng(23);
  for (index_t i = 0; i < power.size(); ++i)
    power.data()[i] = static_cast<float>(std::norm(rng.cnormal()));
  std::vector<index_t> bins(static_cast<size_t>(trials));
  for (index_t i = 0; i < trials; ++i) bins[static_cast<size_t>(i)] = i;
  auto dets = cfar_detect(power, bins, p);
  const double cells = static_cast<double>(trials * p.num_range);
  const double pfa = static_cast<double>(dets.size()) / cells;
  EXPECT_GT(pfa, 1e-3);
  EXPECT_LT(pfa, 5e-2);
}

TEST(Cfar, MaskedByStrongNeighborsInReferenceWindow) {
  // A spike sitting inside the reference cells raises the threshold and
  // must suppress a marginal neighbor (the classic CFAR masking property).
  StapParams p = StapParams::small_test();
  cube::RealCube power(1, 1, p.num_range);
  for (index_t k = 0; k < p.num_range; ++k) power.at(0, 0, k) = 1.0f;
  power.at(0, 0, 40) = 100.0f;  // marginal target (threshold is ~37 here)
  std::vector<index_t> bins = {0};
  auto alone = cfar_detect(power, bins, p);
  bool detected_alone = false;
  for (const auto& d : alone)
    if (d.range == 40) detected_alone = true;
  EXPECT_TRUE(detected_alone);

  power.at(0, 0, 43) = 1000.0f;  // strong return inside the reference window
  auto masked = cfar_detect(power, bins, p);
  bool detected_masked = false;
  for (const auto& d : masked)
    if (d.range == 40) detected_masked = true;
  EXPECT_FALSE(detected_masked);
}

TEST(Cfar, EdgesUseShrunkenWindow) {
  StapParams p = StapParams::small_test();
  cube::RealCube power(1, 1, p.num_range);
  Rng rng(29);
  for (index_t k = 0; k < p.num_range; ++k)
    power.at(0, 0, k) = static_cast<float>(std::norm(rng.cnormal()));
  power.at(0, 0, 0) = 1000.0f;  // spike at the very first range cell
  std::vector<index_t> bins = {0};
  auto dets = cfar_detect(power, bins, p);
  bool found = false;
  for (const auto& d : dets)
    if (d.range == 0) found = true;
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Sequential end-to-end chain
// ---------------------------------------------------------------------------

struct EndToEnd {
  StapParams p;
  ScenarioParams sp;
  index_t target_bin;

  static EndToEnd make() {
    EndToEnd e;
    e.p = StapParams::small_test();
    e.p.num_range = 64;
    e.p.num_channels = 8;
    e.p.num_pulses = 32;
    e.p.num_beams = 1;
    e.p.num_hard = 12;
    e.p.stagger = 2;
    e.p.num_segments = 2;
    e.p.easy_samples_per_cpi = 16;
    e.p.hard_samples_per_segment = 16;
    e.p.cfar_ref = 6;
    e.p.cfar_guard = 2;
    e.p.cfar_pfa = 1e-6;
    e.p.beam_span_rad = 0.0;  // single beam at broadside
    e.p.validate();

    e.sp.num_range = e.p.num_range;
    e.sp.num_channels = e.p.num_channels;
    e.sp.num_pulses = e.p.num_pulses;
    e.sp.clutter.num_patches = 16;
    e.sp.clutter.cnr_db = 40.0;
    e.sp.chirp_length = 8;
    e.target_bin = 10;  // easy bin (hard bins are 0..5 and 26..31)
    e.sp.targets.push_back(
        Target{33, static_cast<double>(e.target_bin) /
                       static_cast<double>(e.p.num_pulses),
               0.0, 10.0});
    return e;
  }

  SequentialStap make_pipeline() const {
    auto steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                           p.beam_center_rad, p.beam_span_rad);
    ScenarioGenerator gen(sp);
    return SequentialStap(p, steering, gen.replica());
  }
};

TEST(Sequential, DetectsTargetInClutterAfterAdaptation) {
  auto e = EndToEnd::make();
  ScenarioGenerator gen(e.sp);
  auto pipeline = e.make_pipeline();

  bool detected_late = false;
  size_t last_count = 0;
  for (index_t cpi = 0; cpi < 6; ++cpi) {
    auto result = pipeline.process(gen.generate(cpi));
    if (cpi >= 4) {
      for (const auto& d : result.detections)
        if (d.doppler_bin == e.target_bin && d.range == 33)
          detected_late = true;
      last_count = result.detections.size();
    }
  }
  EXPECT_TRUE(detected_late);
  // The detection list must not be flooded by clutter breakthroughs.
  EXPECT_LT(last_count, 40u);
}

TEST(Sequential, AdaptationSuppressesClutterResidue) {
  auto e = EndToEnd::make();
  e.sp.targets.clear();  // clutter + noise only
  ScenarioGenerator gen(e.sp);
  auto pipeline = e.make_pipeline();

  // CPI 0 is beamformed with quiescent weights; by CPI 4 the weights have
  // adapted. Compare total residual power in the easy bins.
  auto easy_power = [&](const cube::RealCube& power) {
    double acc = 0;
    for (index_t b : e.p.easy_bins())
      for (index_t k = 0; k < e.p.num_range; ++k)
        acc += power.at(b, 0, k);
    return acc;
  };
  pipeline.process(gen.generate(0));
  const double quiescent = easy_power(pipeline.last_power());
  for (index_t cpi = 1; cpi < 5; ++cpi) pipeline.process(gen.generate(cpi));
  const double adapted = easy_power(pipeline.last_power());
  EXPECT_LT(adapted, quiescent / 10.0)
      << "quiescent=" << quiescent << " adapted=" << adapted;
}

TEST(Sequential, DetectsTargetThroughJamming) {
  // A 40 dB broadband jammer off boresight fills every Doppler bin at one
  // angle; the adaptive weights must null it spatially and recover the
  // target (paper §1: clutter, *interference*, and receiver noise).
  auto e = EndToEnd::make();
  e.sp.jammers.push_back(synth::Jammer{0.5, 40.0});
  ScenarioGenerator gen(e.sp);
  auto pipeline = e.make_pipeline();

  bool detected = false;
  size_t late_count = 0;
  for (index_t cpi = 0; cpi < 6; ++cpi) {
    auto result = pipeline.process(gen.generate(cpi));
    if (cpi >= 4) {
      late_count = result.detections.size();
      for (const auto& d : result.detections)
        if (d.doppler_bin == e.target_bin && d.range == 33) detected = true;
    }
  }
  EXPECT_TRUE(detected);
  EXPECT_LT(late_count, 40u);
}

TEST(Sequential, JammingSuppressedRelativeToQuiescent) {
  auto e = EndToEnd::make();
  e.sp.targets.clear();
  e.sp.clutter.num_patches = 0;  // jammer only
  e.sp.jammers.push_back(synth::Jammer{0.5, 40.0});
  ScenarioGenerator gen(e.sp);
  auto pipeline = e.make_pipeline();

  auto total_power = [&](const cube::RealCube& power) {
    double acc = 0;
    for (index_t i = 0; i < power.size(); ++i) acc += power.data()[i];
    return acc;
  };
  pipeline.process(gen.generate(0));
  const double quiescent = total_power(pipeline.last_power());
  for (index_t cpi = 1; cpi < 4; ++cpi) pipeline.process(gen.generate(cpi));
  const double adapted = total_power(pipeline.last_power());
  EXPECT_LT(adapted, quiescent / 20.0);
}

TEST(Sequential, NoTargetsMeansFewDetections) {
  auto e = EndToEnd::make();
  e.sp.targets.clear();
  ScenarioGenerator gen(e.sp);
  auto pipeline = e.make_pipeline();
  size_t total = 0;
  for (index_t cpi = 0; cpi < 6; ++cpi) {
    auto r = pipeline.process(gen.generate(cpi));
    if (cpi >= 4) total += r.detections.size();
  }
  // Some clutter breakthrough is possible in the hard bins, but the easy
  // region should be quiet; allow a small budget.
  EXPECT_LT(total, 60u);
}

TEST(Sequential, RejectsWrongCubeShape) {
  auto e = EndToEnd::make();
  auto pipeline = e.make_pipeline();
  cube::CpiCube wrong(e.p.num_range + 1, e.p.num_channels, e.p.num_pulses);
  EXPECT_THROW(pipeline.process(wrong), Error);
}

// ---------------------------------------------------------------------------
// Flops accounting (Table 1 groundwork)
// ---------------------------------------------------------------------------

TEST(Flops, AnalyticWithinTwofoldOfPaperTable1) {
  StapParams p;  // paper configuration
  const auto ours = analytic_flops_table(p);
  const auto paper = paper_table1();
  for (int t = 0; t < kNumTasks; ++t) {
    const double ratio = static_cast<double>(ours[static_cast<size_t>(t)]) /
                         static_cast<double>(paper[static_cast<size_t>(t)]);
    EXPECT_GT(ratio, 0.4) << task_name(static_cast<Task>(t));
    EXPECT_LT(ratio, 2.5) << task_name(static_cast<Task>(t));
  }
  // Total within 50%.
  const double total_ratio =
      static_cast<double>(ours[kNumTasks]) / static_cast<double>(paper[kNumTasks]);
  EXPECT_GT(total_ratio, 0.6);
  EXPECT_LT(total_ratio, 1.6);
}

TEST(Flops, MeasuredDopplerMatchesAnalytic) {
  StapParams p = StapParams::small_test();
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  DopplerFilter f(p);
  FlopScope scope;
  (void)f.filter(cpi);
  const auto measured = scope.count();
  const auto analytic = analytic_flops(Task::kDopplerFilter, p);
  EXPECT_NEAR(static_cast<double>(measured) / static_cast<double>(analytic),
              1.0, 0.1);
}

TEST(Flops, MeasuredBeamformMatchesAnalytic) {
  StapParams p = StapParams::small_test();
  const index_t n_easy = p.num_easy();
  cube::CpiCube data(n_easy, p.num_range, p.num_channels);
  WeightSet w;
  for (index_t b = 0; b < n_easy; ++b) {
    w.bins.push_back(b);
    w.weights.emplace_back(p.num_channels, p.num_beams);
  }
  FlopScope scope;
  (void)easy_beamform(data, w, p);
  EXPECT_EQ(scope.count(), analytic_flops(Task::kEasyBeamform, p));
}

// Random training (rows x cols) for the flop-ledger tests.
linalg::MatrixCF random_rows(index_t rows, index_t cols, Rng& rng) {
  linalg::MatrixCF x(rows, cols);
  for (index_t i = 0; i < x.size(); ++i) {
    const cdouble z = rng.cnormal();
    x.data()[i] = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
  }
  return x;
}

TEST(Flops, MeasuredEasyWeightMatchesAnalytic) {
  StapParams p = StapParams::small_test();
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  EasyWeightComputer comp(p, steering, p.easy_bins());
  Rng rng(17);
  // A full history window: the pooled system has the analytic row count.
  for (index_t h = 0; h < p.easy_history; ++h) {
    std::vector<linalg::MatrixCF> rows;
    for (index_t b = 0; b < p.num_easy(); ++b)
      rows.push_back(random_rows(p.easy_samples_per_cpi, p.num_channels, rng));
    comp.push_training(std::move(rows));
  }
  FlopScope scope;
  (void)comp.compute();
  ASSERT_TRUE(comp.health().clean());
  EXPECT_EQ(scope.count(), analytic_flops(Task::kEasyWeight, p));
}

TEST(Flops, MeasuredHardWeightMatchesAnalytic) {
  StapParams p = StapParams::small_test();
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  const auto bins = p.hard_bins();
  HardWeightComputer comp(
      p, steering,
      HardWeightComputer::units_for_bins(p, std::span<const index_t>(bins)));
  Rng rng(18);
  std::vector<linalg::MatrixCF> rows;
  for (size_t u = 0; u < comp.units().size(); ++u)
    rows.push_back(random_rows(p.hard_samples_per_segment,
                               p.num_staggered_channels(), rng));
  FlopScope scope;
  comp.update(rows);
  (void)comp.compute();
  ASSERT_TRUE(comp.health().clean());
  EXPECT_EQ(scope.count(), analytic_flops(Task::kHardWeight, p));
}

}  // namespace
}  // namespace ppstap::stap
