// Tests for the synthetic radar scene generator: steering vectors, clutter
// ridge statistics, target injection, determinism, and waveform spreading.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <span>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/kernels.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap::synth {
namespace {

TEST(Steering, BroadsideIsAllOnes) {
  auto a = spatial_steering(8, 0.0);
  for (auto& v : a) EXPECT_NEAR(std::abs(v - cfloat(1, 0)), 0.0, 1e-6);
}

TEST(Steering, PhaseProgressionMatchesUlaModel) {
  const double theta = 0.3;
  auto a = spatial_steering(6, theta);
  const double step = std::numbers::pi * std::sin(theta);
  for (index_t j = 0; j < 6; ++j) {
    const double ang = step * static_cast<double>(j);
    EXPECT_NEAR(a[static_cast<size_t>(j)].real(), std::cos(ang), 1e-6);
    EXPECT_NEAR(a[static_cast<size_t>(j)].imag(), std::sin(ang), 1e-6);
  }
}

TEST(Steering, UnitModulusElements) {
  auto a = spatial_steering(16, -0.7);
  for (auto& v : a) EXPECT_NEAR(std::abs(v), 1.0, 1e-6);
  auto d = temporal_steering(128, 0.37);
  for (auto& v : d) EXPECT_NEAR(std::abs(v), 1.0, 1e-6);
}

TEST(Steering, TemporalFrequency) {
  const double f = 0.25;
  auto d = temporal_steering(8, f);
  // Phase advances by 2*pi*f per pulse: at f = 1/4 the sequence cycles
  // through 1, j, -1, -j.
  EXPECT_NEAR(std::abs(d[0] - cfloat(1, 0)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(d[1] - cfloat(0, 1)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(d[2] - cfloat(-1, 0)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(d[3] - cfloat(0, -1)), 0.0, 1e-6);
}

TEST(Steering, BeamMatrixColumnsAreSteeringVectors) {
  const index_t j = 8, m = 4;
  auto s = steering_matrix(j, m, 0.1, 0.4);
  for (index_t b = 0; b < m; ++b) {
    auto col = spatial_steering(j, beam_azimuth(m, b, 0.1, 0.4));
    for (index_t r = 0; r < j; ++r)
      EXPECT_NEAR(std::abs(s(r, b) - col[static_cast<size_t>(r)]), 0.0, 1e-6);
  }
}

TEST(Steering, BeamAzimuthsSpanTheBeamWidth) {
  EXPECT_NEAR(beam_azimuth(6, 0, 0.0, 0.5), -0.25, 1e-9);
  EXPECT_NEAR(beam_azimuth(6, 5, 0.0, 0.5), 0.25, 1e-9);
  EXPECT_NEAR(beam_azimuth(1, 0, 0.2, 0.5), 0.2, 1e-9);
}

ScenarioParams small_scenario() {
  ScenarioParams sp;
  sp.num_range = 32;
  sp.num_channels = 4;
  sp.num_pulses = 16;
  sp.clutter.num_patches = 8;
  sp.clutter.cnr_db = 30.0;
  sp.chirp_length = 0;
  sp.targets.clear();
  return sp;
}

TEST(Scenario, DeterministicAcrossCalls) {
  ScenarioGenerator gen(small_scenario());
  auto a = gen.generate(3);
  auto b = gen.generate(3);
  for (index_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(Scenario, DifferentCpisDiffer) {
  ScenarioGenerator gen(small_scenario());
  auto a = gen.generate(0);
  auto b = gen.generate(1);
  double diff = 0;
  for (index_t i = 0; i < a.size(); ++i)
    diff += std::abs(a.data()[i] - b.data()[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Scenario, NoiseOnlyPowerMatchesNoiseFloor) {
  auto sp = small_scenario();
  sp.clutter.num_patches = 0;
  sp.noise_power = 2.0;
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  double power = 0;
  for (index_t i = 0; i < c.size(); ++i) power += std::norm(c.data()[i]);
  power /= static_cast<double>(c.size());
  EXPECT_NEAR(power, 2.0, 0.15);
}

TEST(Scenario, ClutterPowerMatchesCnr) {
  auto sp = small_scenario();
  sp.clutter.cnr_db = 20.0;  // clutter power 100x noise
  sp.noise_power = 1.0;
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  double power = 0;
  for (index_t i = 0; i < c.size(); ++i) power += std::norm(c.data()[i]);
  power /= static_cast<double>(c.size());
  EXPECT_NEAR(power, 101.0, 15.0);  // clutter + noise
}

TEST(Scenario, ClutterRidgeConcentratesDopplerEnergy) {
  // Per-patch Doppler is tied to azimuth; a single patch at broadside must
  // put all its energy at zero Doppler.
  auto sp = small_scenario();
  sp.clutter.num_patches = 1;
  sp.clutter.azimuth_span_rad = 0.0;  // single patch at azimuth 0
  sp.clutter.cnr_db = 40.0;
  sp.noise_power = 1e-12;  // negligible
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  // DFT over pulses at one (range, channel): energy should be at DC.
  double dc = 0, rest = 0;
  for (index_t n_bin = 0; n_bin < sp.num_pulses; ++n_bin) {
    cdouble acc{};
    for (index_t t = 0; t < sp.num_pulses; ++t) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(n_bin * t) /
                         static_cast<double>(sp.num_pulses);
      const cfloat v = c.at(5, 2, t);
      acc += cdouble(v.real(), v.imag()) * cdouble(std::cos(ang),
                                                   std::sin(ang));
    }
    if (n_bin == 0)
      dc = std::norm(acc);
    else
      rest = std::max(rest, std::norm(acc));
  }
  EXPECT_GT(dc, 100.0 * rest);
}

TEST(Scenario, TargetAppearsAtItsRangeCell) {
  auto sp = small_scenario();
  sp.clutter.num_patches = 0;
  sp.noise_power = 1e-12;
  sp.targets.push_back(Target{10, 0.25, 0.0, 20.0});
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  // All signal energy sits in range cell 10 (SNR is relative to the tiny
  // noise floor, so compare cells against each other).
  double target_e = 0, other_max = 0;
  for (index_t k = 0; k < sp.num_range; ++k) {
    double e = 0;
    for (index_t j = 0; j < sp.num_channels; ++j)
      for (index_t n = 0; n < sp.num_pulses; ++n)
        e += std::norm(c.at(k, j, n));
    if (k == 10)
      target_e = e;
    else
      other_max = std::max(other_max, e);
  }
  EXPECT_GT(target_e, 50.0 * other_max);
}

TEST(Scenario, ChirpSpreadsTargetAcrossRange) {
  auto sp = small_scenario();
  sp.clutter.num_patches = 0;
  sp.noise_power = 1e-12;
  sp.chirp_length = 8;
  sp.targets.push_back(Target{10, 0.25, 0.0, 20.0});
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  // Energy appears in the L cells starting at the target range (circular).
  double peak = 0;
  for (index_t k = 0; k < sp.num_range; ++k) {
    double e = 0;
    for (index_t n = 0; n < sp.num_pulses; ++n) e += std::norm(c.at(k, 0, n));
    peak = std::max(peak, e);
  }
  int cells_with_energy = 0;
  for (index_t k = 0; k < sp.num_range; ++k) {
    double e = 0;
    for (index_t n = 0; n < sp.num_pulses; ++n) e += std::norm(c.at(k, 0, n));
    if (e > 1e-3 * peak) ++cells_with_energy;
  }
  EXPECT_GE(cells_with_energy, 8);
}

TEST(Scenario, ChirpPreservesTotalEnergy) {
  auto spread = small_scenario();
  spread.clutter.num_patches = 0;
  spread.noise_power = 1e-12;
  spread.targets.push_back(Target{10, 0.25, 0.0, 20.0});
  auto impulse = spread;
  spread.chirp_length = 8;
  impulse.chirp_length = 0;
  auto cs = ScenarioGenerator(spread).generate(0);
  auto ci = ScenarioGenerator(impulse).generate(0);
  double es = 0, ei = 0;
  for (index_t i = 0; i < cs.size(); ++i) es += std::norm(cs.data()[i]);
  for (index_t i = 0; i < ci.size(); ++i) ei += std::norm(ci.data()[i]);
  // Unit-energy chirp: circular convolution preserves energy up to the
  // single-precision FFT round-trip.
  EXPECT_NEAR(es / ei, 1.0, 1e-2);
}

TEST(Scenario, InvalidTargetRangeThrows) {
  auto sp = small_scenario();
  sp.targets.push_back(Target{999, 0.1, 0.0, 10.0});
  EXPECT_THROW(ScenarioGenerator{sp}, Error);
}

TEST(Scenario, ChirpLongerThanRangeThrows) {
  auto sp = small_scenario();
  sp.chirp_length = sp.num_range + 1;
  EXPECT_THROW(ScenarioGenerator{sp}, Error);
}

// Golden scene stream. The pipeline oracles compare the parallel detections
// against stap::SequentialStap on the *same* generated cubes, so a change to
// the generator's arithmetic would pass those comparisons while silently
// moving every scene. These checksums pin generate(0..2) bit for bit on the
// two live-benchmark scene shapes (the paper-width "wall" scene and the
// small fan-out scene), per SIMD level. The only dispatched kernel in a
// scene is the noise sampler, whose tables agree bit for bit, so both
// levels pin the same values.
ScenarioParams wall_scene() {
  ScenarioParams sp;
  sp.num_range = 128;
  sp.num_channels = 16;
  sp.num_pulses = 128;
  sp.clutter.num_patches = 8;
  sp.clutter.cnr_db = 40.0;
  sp.chirp_length = 32;
  sp.targets = {Target{40, 0.3, 0.0, 10.0}, Target{77, -0.2, 0.1, 12.0},
                Target{100, 0.18, -0.05, 9.0}};
  return sp;
}

ScenarioParams small_fanout_scene() {
  ScenarioParams sp;
  sp.num_range = 128;
  sp.num_channels = 8;
  sp.num_pulses = 32;
  sp.clutter.num_patches = 2;
  sp.clutter.cnr_db = 40.0;
  sp.chirp_length = 16;
  sp.targets = {Target{30, 0.25, 0.0, 11.0}, Target{90, -0.3, 0.0, 13.0}};
  // Transmit cycling and a jammer put every generator term under the pin.
  sp.transmit_azimuths = {-0.35, 0.0, 0.35};
  sp.jammers = {Jammer{0.6, 25.0}};
  return sp;
}

void expect_stream(const ScenarioParams& sp,
                   const std::array<std::uint64_t, 3>& golden,
                   const char* what) {
  const ScenarioGenerator gen(sp);
  const auto sum = [](const cube::CpiCube& c) {
    return checksum_of(
        std::span<const cfloat>(c.data(), static_cast<size_t>(c.size())));
  };
  // The storage-reusing overload must match too: `reused` still holds the
  // previous CPI when the next one is generated into it.
  cube::CpiCube reused;
  for (index_t i = 0; i < 3; ++i) {
    gen.generate(i, reused);
    EXPECT_EQ(sum(gen.generate(i)), golden[static_cast<size_t>(i)])
        << what << " scene, CPI " << i << ", simd "
        << kernels::simd_info().level_name;
    EXPECT_EQ(sum(reused), golden[static_cast<size_t>(i)])
        << what << " scene, CPI " << i << " into a reused cube";
  }
}

struct SimdRestore {
  kernels::SimdLevel saved = kernels::simd_level();
  ~SimdRestore() { kernels::force_simd_level(saved); }
};

TEST(Scenario, GoldenStreamScalar) {
  SimdRestore restore;
  kernels::force_simd_level(kernels::SimdLevel::kScalar);
  expect_stream(wall_scene(),
                {16856725349351123340ull, 7953204899133888843ull,
                 10754683213922300937ull},
                "wall");
  expect_stream(small_fanout_scene(),
                {18338960477597109363ull, 13582338346984205159ull,
                 3052717089983165388ull},
                "small");
}

TEST(Scenario, GoldenStreamAvx2) {
  if (!kernels::avx2_available())
    GTEST_SKIP() << "host or build lacks AVX2+FMA";
  SimdRestore restore;
  kernels::force_simd_level(kernels::SimdLevel::kAvx2);
  expect_stream(wall_scene(),
                {16856725349351123340ull, 7953204899133888843ull,
                 10754683213922300937ull},
                "wall");
  expect_stream(small_fanout_scene(),
                {18338960477597109363ull, 13582338346984205159ull,
                 3052717089983165388ull},
                "small");
}

// J*N = 15 columns: the chirp's last group of eight columns is ragged.
ScenarioParams tiny_scene(index_t num_range, index_t chirp_length) {
  ScenarioParams sp;
  sp.num_range = num_range;
  sp.num_channels = 3;
  sp.num_pulses = 5;
  sp.clutter.num_patches = 3;
  sp.chirp_length = chirp_length;
  sp.targets = {Target{0, 0.2, 0.1, 10.0}, Target{num_range - 1, -0.3, 0.0,
                                                  12.0}};
  sp.jammers = {Jammer{0.5, 20.0}, Jammer{-0.4, 15.0}};
  sp.transmit_azimuths = {-0.3, 0.3};
  return sp;
}

// An oracle for the chirp, which is applied to the clutter patches' and the
// targets' range sequences rather than to the cube: on a ragged 3x5 plane,
// with three clutter patches and targets on several channels and the noise
// 100 dB down, every (channel, pulse) column of the chirped scene is the
// circular convolution of the unchirped column with the replica.
TEST(Scenario, ChirpSpreadIsTheCircularConvolutionOfEachColumn) {
  ScenarioParams impulse = tiny_scene(37, 0);
  impulse.clutter.cnr_db = 100.0;
  impulse.jammers.clear();
  impulse.transmit_azimuths.clear();
  impulse.noise_power = 1e-12;
  impulse.targets = {Target{3, 0.2, 0.3, 100.0}, Target{20, -0.1, -0.2, 100.0},
                     Target{36, 0.4, 0.0, 100.0}};
  ScenarioParams spread = impulse;
  spread.chirp_length = 8;
  const ScenarioGenerator gen_impulse(impulse), gen_spread(spread);
  const auto x = gen_impulse.generate(0);
  const auto& replica = gen_spread.replica();
  const index_t k_len = spread.num_range;
  const cube::CpiCube y = gen_spread.generate(0);
  double peak = 0.0, worst = 0.0;
  for (index_t j = 0; j < spread.num_channels; ++j)
    for (index_t n = 0; n < spread.num_pulses; ++n)
      for (index_t k = 0; k < k_len; ++k) {
        std::complex<double> ref{};
        for (size_t m = 0; m < replica.size(); ++m) {
          const index_t src = (k - static_cast<index_t>(m) + k_len) % k_len;
          ref += std::complex<double>(x.at(src, j, n)) *
                 std::complex<double>(replica[m]);
        }
        peak = std::max(peak, std::abs(ref));
        worst = std::max(
            worst, std::abs(std::complex<double>(y.at(k, j, n)) - ref));
      }
  EXPECT_GT(peak, 0.0);
  EXPECT_LT(worst, 1e-3 * peak);
}

// A streamed scene: 16 KiB rows make 16-row blocks, and K = 72 leaves a
// ragged fifth block of 8. The chirp of the target at cell 10 straddles
// the first two block boundaries, the one at 70 wraps from the last block
// into the first two, and a jammer and transmit cycling put every term
// under the comparison.
ScenarioParams streamed_scene() {
  ScenarioParams sp;
  sp.num_range = 72;
  sp.num_channels = 16;
  sp.num_pulses = 128;
  sp.clutter.num_patches = 4;
  sp.chirp_length = 24;
  sp.targets = {Target{10, 0.3, 0.1, 12.0}, Target{70, -0.2, -0.1, 10.0}};
  sp.jammers = {Jammer{0.5, 20.0}};
  sp.transmit_azimuths = {-0.3, 0.3};
  return sp;
}

// Generates CPIs 0..2 of `sp` block by block into one reused cube. At each
// report the newly final rows are copied out; they must equal the
// whole-cube generate()'s rows, and the cube must be that cube at the end,
// so no reported row is written again.
void expect_blocks_are_final(const ScenarioParams& sp, index_t want_blocks) {
  const ScenarioGenerator gen(sp);
  const index_t k_len = sp.num_range;
  const auto row = static_cast<size_t>(sp.num_channels * sp.num_pulses);
  cube::CpiCube out;
  for (index_t i = 0; i < 3; ++i) {
    const cube::CpiCube whole = gen.generate(i);
    cube::CpiCube seen(k_len, sp.num_channels, sp.num_pulses);
    std::vector<index_t> reports;
    gen.generate(i, out, [&](index_t rows) {
      const index_t from = reports.empty() ? 0 : reports.back();
      ASSERT_GT(rows, from) << "rows reported out of order";
      ASSERT_LE(rows, k_len);
      std::memcpy(&seen.at(from, 0, 0), &out.at(from, 0, 0),
                  static_cast<size_t>(rows - from) * row * sizeof(cfloat));
      reports.push_back(rows);
    });
    ASSERT_EQ(static_cast<index_t>(reports.size()), want_blocks)
        << "CPI " << i;
    EXPECT_EQ(reports.back(), k_len);
    const auto bytes = static_cast<size_t>(whole.size()) * sizeof(cfloat);
    EXPECT_EQ(std::memcmp(seen.data(), whole.data(), bytes), 0)
        << "CPI " << i << ", simd " << kernels::simd_info().level_name;
    EXPECT_EQ(std::memcmp(out.data(), whole.data(), bytes), 0) << "CPI " << i;
  }
}

TEST(Scenario, BlockedGenerationReportsFinalRowsOfTheWholeCube) {
  SimdRestore restore;
  ASSERT_EQ(ScenarioGenerator(streamed_scene()).block_rows(), 16);
  kernels::force_simd_level(kernels::SimdLevel::kScalar);
  expect_blocks_are_final(streamed_scene(), 5);
  // A scene of small rows is one block: one report, of K.
  expect_blocks_are_final(small_fanout_scene(), 1);
  if (!kernels::avx2_available())
    GTEST_SKIP() << "host or build lacks AVX2+FMA";
  kernels::force_simd_level(kernels::SimdLevel::kAvx2);
  expect_blocks_are_final(streamed_scene(), 5);
  expect_blocks_are_final(small_fanout_scene(), 1);
}

// An oracle for the block offsets of the stream table (DESIGN §15a): with
// no clutter and no targets, the cube is the jammers' (k, n) draws taken
// serially from the head of the CPI's stream, then one noise pass over
// the whole cube continuing from there. The blocked generator starts each
// block's draws at a closed-form offset instead.
TEST(Scenario, JammerAndNoiseDrawsSitAtTheirStreamOffsets) {
  SimdRestore restore;
  ScenarioParams sp = streamed_scene();
  sp.clutter.num_patches = 0;
  sp.targets.clear();
  sp.jammers = {Jammer{0.5, 20.0}, Jammer{-0.2, 15.0}};
  const ScenarioGenerator gen(sp);
  ASSERT_GT(sp.num_range, gen.block_rows());
  for (const auto level :
       {kernels::SimdLevel::kScalar, kernels::SimdLevel::kAvx2}) {
    if (level == kernels::SimdLevel::kAvx2 && !kernels::avx2_available())
      continue;
    kernels::force_simd_level(level);
    for (index_t i = 0; i < 2; ++i) {
      cube::CpiCube ref(sp.num_range, sp.num_channels, sp.num_pulses);
      Rng rng = Rng(sp.seed).fork(static_cast<std::uint64_t>(i));
      for (const Jammer& jam : sp.jammers) {
        const double sigma =
            std::sqrt(sp.noise_power) * std::pow(10.0, jam.jnr_db / 20.0);
        const auto a = spatial_steering(sp.num_channels, jam.azimuth_rad);
        for (index_t k = 0; k < sp.num_range; ++k)
          for (index_t n = 0; n < sp.num_pulses; ++n) {
            const cdouble z = rng.cnormal() * sigma;
            const cfloat g(static_cast<float>(z.real()),
                           static_cast<float>(z.imag()));
            for (index_t j = 0; j < sp.num_channels; ++j)
              ref.at(k, j, n) += g * a[static_cast<size_t>(j)];
          }
      }
      kernels::add_cnormal(rng, std::sqrt(sp.noise_power), ref.data(),
                           ref.size());
      const cube::CpiCube got = gen.generate(i);
      EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                            static_cast<size_t>(ref.size()) * sizeof(cfloat)),
                0)
          << "CPI " << i << ", simd " << kernels::simd_info().level_name;
    }
  }
}

}  // namespace
}  // namespace ppstap::synth
