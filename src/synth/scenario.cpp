#include "synth/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <thread>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "dsp/fft.hpp"
#include "dsp/waveform.hpp"
#include "synth/steering.hpp"

namespace ppstap::synth {

ScenarioGenerator::ScenarioGenerator(ScenarioParams params)
    : params_(std::move(params)) {
  const auto& p = params_;
  PPSTAP_REQUIRE(p.num_range >= 1 && p.num_channels >= 1 && p.num_pulses >= 1,
                 "scenario dimensions must be positive");
  PPSTAP_REQUIRE(p.chirp_length <= p.num_range,
                 "chirp cannot exceed the range window");
  for (const auto& t : p.targets)
    PPSTAP_REQUIRE(t.range_cell >= 0 && t.range_cell < p.num_range,
                   "target range cell out of bounds");

  const auto cores = static_cast<index_t>(std::thread::hardware_concurrency());
  team_ = std::max<index_t>(
      1, std::min({cores - 1, index_t{3},
                   p.num_range * p.num_channels * p.num_pulses /
                       kSamplesPerMember}));

  if (p.chirp_length > 0) {
    replica_ = dsp::lfm_chirp(p.chirp_length);
    fwd_.emplace(p.num_range, dsp::FftDirection::kForward);
    inv_.emplace(p.num_range, dsp::FftDirection::kInverse);
    replica_spectrum_.assign(static_cast<size_t>(p.num_range), cfloat{});
    std::copy(replica_.begin(), replica_.end(), replica_spectrum_.begin());
    fwd_->execute(replica_spectrum_);
  }
  for (const auto& jam : p.jammers) {
    jammer_spatial_.push_back(
        spatial_steering(p.num_channels, jam.azimuth_rad));
    jammer_sigma_.push_back(std::sqrt(p.noise_power) *
                            std::pow(10.0, jam.jnr_db / 20.0));
  }
  for (const auto& t : p.targets) {
    target_spatial_.push_back(spatial_steering(p.num_channels, t.azimuth_rad));
    target_temporal_.push_back(temporal_steering(p.num_pulses, t.doppler_norm));
    target_amplitude_.push_back(std::sqrt(p.noise_power) *
                                std::pow(10.0, t.snr_db / 20.0));
  }

  // Fixed clutter geometry: patches evenly spaced in sin(azimuth) across the
  // ridge, each with a spatial and a temporal signature tied by the slope.
  const index_t c = p.clutter.num_patches;
  if (c > 0) {
    patch_spatial_.reserve(static_cast<size_t>(c));
    patch_temporal_.reserve(static_cast<size_t>(c));
    const double half = p.clutter.azimuth_span_rad / 2.0;
    for (index_t i = 0; i < c; ++i) {
      const double frac =
          c == 1 ? 0.5
                 : static_cast<double>(i) / static_cast<double>(c - 1);
      const double az = -half + 2.0 * half * frac;
      const double f = 0.5 * p.clutter.doppler_slope * std::sin(az);
      patch_spatial_.push_back(spatial_steering(p.num_channels, az));
      patch_temporal_.push_back(temporal_steering(p.num_pulses, f));
      patch_azimuth_.push_back(az);
    }
    const double cnr_power =
        p.noise_power * std::pow(10.0, p.clutter.cnr_db / 10.0);
    patch_sigma_ = std::sqrt(cnr_power / static_cast<double>(c));
  }
}

double ScenarioGenerator::transmit_gain(index_t cpi_index,
                                        double azimuth_rad) const {
  if (params_.transmit_azimuths.empty()) return 1.0;
  const double center = params_.transmit_azimuths[static_cast<size_t>(
      cpi_index % static_cast<index_t>(params_.transmit_azimuths.size()))];
  const double delta = azimuth_rad - center;
  const double half = params_.transmit_beam_width_rad / 2.0;
  constexpr double kSidelobeFloor = 0.01;  // -40 dB in amplitude
  if (std::abs(delta) >= half) return kSidelobeFloor;
  const double g =
      std::cos(std::numbers::pi / 2.0 * delta / half);
  return std::max(g * g, kSidelobeFloor);
}

namespace {

// Stream offsets (in next_u64 draws; one cnormal() = two) of each term's
// first sample: clutter draws C per range cell, each jammer one per
// (range cell, pulse), the noise one per cube element.
std::uint64_t draws(index_t cnormals) {
  return 2 * static_cast<std::uint64_t>(cnormals);
}

// The per-CPI patch gains and one batch of chirp lines per block, owned by
// the calling thread and sized before any helper starts, so helpers never
// touch the heap (glibc gives each allocating thread its own arena, which
// would grow peak RSS with every short-lived helper).
struct Scratch {
  std::vector<double> patch_gain;
  std::vector<cfloat> lines;
};
thread_local Scratch tls_scratch;

}  // namespace

void ScenarioGenerator::add_clutter(cube::CpiCube& cpi, const Rng& rng,
                                    const std::vector<double>& patch_gain,
                                    index_t k0, index_t k1) const {
  const auto& p = params_;
  const index_t c = static_cast<index_t>(patch_spatial_.size());
  Rng r = rng;
  r.skip(draws(k0 * c));
  for (index_t k = k0; k < k1; ++k) {
    for (index_t pc = 0; pc < c; ++pc) {
      const cdouble gamma =
          r.cnormal() * (patch_sigma_ * patch_gain[static_cast<size_t>(pc)]);
      const cfloat g(static_cast<float>(gamma.real()),
                     static_cast<float>(gamma.imag()));
      const auto& a = patch_spatial_[static_cast<size_t>(pc)];
      const auto& d = patch_temporal_[static_cast<size_t>(pc)];
      const float* dv = reinterpret_cast<const float*>(d.data());
      for (index_t j = 0; j < p.num_channels; ++j) {
        const cfloat ga = g * a[static_cast<size_t>(j)];
        const float gr = ga.real(), gi = ga.imag();
        float* out = reinterpret_cast<float*>(cpi.line(k, j).data());
        // line[n] += ga * d[n], spelled out on the real and imaginary parts:
        // the same operation sequence as std::complex's multiply-add (no
        // contraction, no fast-math), minus the NaN-recovery branch that
        // keeps the compiler from vectorizing it.
        for (index_t n = 0; n < p.num_pulses; ++n) {
          const float dr = dv[2 * n], di = dv[2 * n + 1];
          out[2 * n] += gr * dr - gi * di;
          out[2 * n + 1] += gr * di + gi * dr;
        }
      }
    }
  }
}

void ScenarioGenerator::add_jammers(cube::CpiCube& cpi, const Rng& rng,
                                    index_t k0, index_t k1) const {
  const auto& p = params_;
  const index_t clutter =
      p.num_range * static_cast<index_t>(patch_spatial_.size());
  for (size_t q = 0; q < jammer_spatial_.size(); ++q) {
    // Spatially coherent, temporally white: one fresh complex amplitude
    // per (range cell, pulse) applied across the array through the
    // jammer's steering vector. Jammers radiate continuously, so no
    // transmit-beam gain applies.
    const double sigma = jammer_sigma_[q];
    const auto& a = jammer_spatial_[q];
    Rng r = rng;
    r.skip(draws(clutter +
                 static_cast<index_t>(q) * p.num_range * p.num_pulses +
                 k0 * p.num_pulses));
    for (index_t k = k0; k < k1; ++k)
      for (index_t n = 0; n < p.num_pulses; ++n) {
        const cdouble z = r.cnormal() * sigma;
        const cfloat g(static_cast<float>(z.real()),
                       static_cast<float>(z.imag()));
        for (index_t j = 0; j < p.num_channels; ++j)
          cpi.at(k, j, n) += g * a[static_cast<size_t>(j)];
      }
  }
}

void ScenarioGenerator::add_noise(cube::CpiCube& cpi, const Rng& rng,
                                  index_t k0, index_t k1) const {
  const auto& p = params_;
  const double sigma = std::sqrt(p.noise_power);
  const index_t per_cell = p.num_channels * p.num_pulses;
  const index_t clutter =
      p.num_range * static_cast<index_t>(patch_spatial_.size());
  const index_t jammers =
      static_cast<index_t>(jammer_spatial_.size()) * p.num_range * p.num_pulses;
  Rng r = rng;
  r.skip(draws(clutter + jammers + k0 * per_cell));
  cfloat* data = cpi.data();
  for (index_t i = k0 * per_cell; i < k1 * per_cell; ++i) {
    const cdouble z = r.cnormal() * sigma;
    data[i] += cfloat(static_cast<float>(z.real()),
                      static_cast<float>(z.imag()));
  }
}

void ScenarioGenerator::add_targets(cube::CpiCube& cpi, index_t cpi_index,
                                    index_t k0, index_t k1) const {
  const auto& p = params_;
  for (size_t t = 0; t < p.targets.size(); ++t) {
    const Target& tg = p.targets[t];
    if (tg.range_cell < k0 || tg.range_cell >= k1) continue;
    const double amp =
        target_amplitude_[t] * transmit_gain(cpi_index, tg.azimuth_rad);
    const auto& a = target_spatial_[t];
    const auto& d = target_temporal_[t];
    for (index_t j = 0; j < p.num_channels; ++j) {
      const cfloat aj = static_cast<float>(amp) * a[static_cast<size_t>(j)];
      auto line = cpi.line(tg.range_cell, j);
      for (index_t n = 0; n < p.num_pulses; ++n)
        line[static_cast<size_t>(n)] += aj * d[static_cast<size_t>(n)];
    }
  }
}

void ScenarioGenerator::spread_with_chirp(cube::CpiCube& cpi, index_t g0,
                                          index_t g1,
                                          std::span<cfloat> lines) const {
  // Circular convolution along range per (channel, pulse) column c = j*N + n:
  // consistent with the K-point-FFT pulse compression the pipeline performs
  // (paper §5.4). Columns go kChirpLanes at a time — one cache line of each
  // range row — transposed into `lines` and transformed as a batch, which is
  // line by line the same arithmetic as one column at a time.
  const auto& p = params_;
  const index_t k_len = p.num_range;
  const index_t stride = p.num_channels * p.num_pulses;
  cfloat* data = cpi.data();
  for (index_t g = g0; g < g1; ++g) {
    const index_t c0 = g * kChirpLanes;
    const index_t width = std::min(kChirpLanes, stride - c0);
    const auto batch = lines.first(static_cast<size_t>(width * k_len));
    for (index_t k = 0; k < k_len; ++k)
      for (index_t l = 0; l < width; ++l)
        batch[static_cast<size_t>(l * k_len + k)] = data[k * stride + c0 + l];
    fwd_->execute_batch(batch, width);
    for (index_t l = 0; l < width; ++l)
      for (index_t k = 0; k < k_len; ++k)
        batch[static_cast<size_t>(l * k_len + k)] *=
            replica_spectrum_[static_cast<size_t>(k)];
    inv_->execute_batch(batch, width);
    for (index_t k = 0; k < k_len; ++k)
      for (index_t l = 0; l < width; ++l)
        data[k * stride + c0 + l] = batch[static_cast<size_t>(l * k_len + k)];
  }
}

cube::CpiCube ScenarioGenerator::generate(index_t cpi_index) const {
  cube::CpiCube cpi;
  generate(cpi_index, cpi);
  return cpi;
}

void ScenarioGenerator::generate(index_t cpi_index, cube::CpiCube& cpi) const {
  generate(cpi_index, cpi, team_);
}

void ScenarioGenerator::generate(index_t cpi_index, cube::CpiCube& cpi,
                                 index_t team) const {
  PPSTAP_REQUIRE(team >= 1, "scene generation needs at least one thread");
  const auto& p = params_;
  const bool fresh = cpi.extent(0) != p.num_range ||
                     cpi.extent(1) != p.num_channels ||
                     cpi.extent(2) != p.num_pulses;
  if (fresh) cpi = cube::CpiCube(p.num_range, p.num_channels, p.num_pulses);
  const Rng rng = Rng(p.seed).fork(static_cast<std::uint64_t>(cpi_index));

  Scratch& scratch = tls_scratch;  // the caller's, captured by the helpers
  scratch.patch_gain.resize(patch_azimuth_.size());
  for (size_t pc = 0; pc < patch_azimuth_.size(); ++pc)
    scratch.patch_gain[pc] = transmit_gain(cpi_index, patch_azimuth_[pc]);
  const index_t columns = p.num_channels * p.num_pulses;
  const index_t groups = (columns + kChirpLanes - 1) / kChirpLanes;
  const index_t chirp_blocks = replica_.empty() ? 0 : std::min(team, groups);
  const index_t lines_per_block = kChirpLanes * p.num_range;
  scratch.lines.resize(static_cast<size_t>(chirp_blocks * lines_per_block));

  // Clutter+targets pass through the transmit pulse; jammers do not carry
  // the waveform, and receiver noise is added after it. Each phase gives a
  // member one block: range cells, then column groups, then range cells.
  parallel_for_blocks(team, p.num_range, [&](index_t k0, index_t k1) {
    if (!fresh)
      std::fill(cpi.data() + k0 * columns, cpi.data() + k1 * columns,
                cfloat{});
    add_clutter(cpi, rng, scratch.patch_gain, k0, k1);
    add_targets(cpi, cpi_index, k0, k1);
  });
  const auto spread_blocks = [&](index_t b0, index_t b1) {
    for (index_t b = b0; b < b1; ++b) {
      const auto [g0, g1] = block_range(groups, chirp_blocks, b);
      spread_with_chirp(cpi, g0, g1,
                        std::span<cfloat>(scratch.lines)
                            .subspan(static_cast<size_t>(b * lines_per_block),
                                     static_cast<size_t>(lines_per_block)));
    }
  };
  if (chirp_blocks > 0)
    parallel_for_blocks(chirp_blocks, chirp_blocks, spread_blocks);
  parallel_for_blocks(team, p.num_range, [&](index_t k0, index_t k1) {
    add_jammers(cpi, rng, k0, k1);
    add_noise(cpi, rng, k0, k1);
  });
}

}  // namespace ppstap::synth
