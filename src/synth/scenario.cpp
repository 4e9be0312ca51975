#include "synth/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.hpp"
#include "dsp/waveform.hpp"
#include "kernels/kernels.hpp"
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

  if (p.chirp_length > 0) replica_ = dsp::lfm_chirp(p.chirp_length);
  range_taps_ = replica_.empty() ? std::vector<cfloat>{cfloat(1.0f, 0.0f)}
                                 : replica_;
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

// Per-CPI clutter amplitudes, kept per thread so a generating thread
// allocates nothing after its first CPI: the patch gains, and the K x C
// (range-major) patch amplitude sequences before and after the chirp.
struct Scratch {
  std::vector<double> patch_gain;
  std::vector<cdouble> drawn, spread;
};
thread_local Scratch tls_scratch;

}  // namespace

void ScenarioGenerator::add_clutter(cube::CpiCube& cpi, Rng& rng,
                                    index_t cpi_index) const {
  const auto& p = params_;
  const index_t k_len = p.num_range;
  const index_t c = static_cast<index_t>(patch_spatial_.size());
  Scratch& scratch = tls_scratch;
  scratch.patch_gain.resize(static_cast<size_t>(c));
  for (index_t pc = 0; pc < c; ++pc)
    scratch.patch_gain[static_cast<size_t>(pc)] =
        patch_sigma_ * transmit_gain(cpi_index,
                                     patch_azimuth_[static_cast<size_t>(pc)]);
  scratch.drawn.resize(static_cast<size_t>(k_len * c));
  scratch.spread.assign(static_cast<size_t>(k_len * c), cdouble{});
  for (index_t i = 0; i < k_len * c; ++i)
    scratch.drawn[static_cast<size_t>(i)] =
        rng.cnormal() * scratch.patch_gain[static_cast<size_t>(i % c)];
  // Circular convolution along range of each patch's amplitude sequence:
  // spread[k] = sum_m drawn[(k - m) mod K] * taps[m].
  for (size_t m = 0; m < range_taps_.size(); ++m) {
    const cdouble tap(range_taps_[m]);
    for (index_t k = 0; k < k_len; ++k) {
      const index_t src = (k - static_cast<index_t>(m) + k_len) % k_len;
      for (index_t pc = 0; pc < c; ++pc)
        scratch.spread[static_cast<size_t>(k * c + pc)] +=
            scratch.drawn[static_cast<size_t>(src * c + pc)] * tap;
    }
  }
  for (index_t k = 0; k < k_len; ++k) {
    for (index_t pc = 0; pc < c; ++pc) {
      const cdouble gamma = scratch.spread[static_cast<size_t>(k * c + pc)];
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

void ScenarioGenerator::add_jammers(cube::CpiCube& cpi, Rng& rng) const {
  const auto& p = params_;
  for (size_t q = 0; q < jammer_spatial_.size(); ++q) {
    // Spatially coherent, temporally white: one fresh complex amplitude
    // per (range cell, pulse) applied across the array through the
    // jammer's steering vector. Jammers radiate continuously, so no
    // transmit-beam gain applies.
    const double sigma = jammer_sigma_[q];
    const auto& a = jammer_spatial_[q];
    for (index_t k = 0; k < p.num_range; ++k)
      for (index_t n = 0; n < p.num_pulses; ++n) {
        const cdouble z = rng.cnormal() * sigma;
        const cfloat g(static_cast<float>(z.real()),
                       static_cast<float>(z.imag()));
        for (index_t j = 0; j < p.num_channels; ++j)
          cpi.at(k, j, n) += g * a[static_cast<size_t>(j)];
      }
  }
}

void ScenarioGenerator::add_noise(cube::CpiCube& cpi, Rng& rng) const {
  kernels::add_cnormal(rng, std::sqrt(params_.noise_power), cpi.data(),
                       cpi.size());
}

void ScenarioGenerator::add_targets(cube::CpiCube& cpi,
                                    index_t cpi_index) const {
  // A target is an impulse in range: through the taps it lands on cells
  // r, r + 1, ... (mod K), scaled by each tap.
  const auto& p = params_;
  for (size_t t = 0; t < p.targets.size(); ++t) {
    const Target& tg = p.targets[t];
    const auto amp = static_cast<float>(
        target_amplitude_[t] * transmit_gain(cpi_index, tg.azimuth_rad));
    const auto& a = target_spatial_[t];
    const auto& d = target_temporal_[t];
    for (size_t m = 0; m < range_taps_.size(); ++m) {
      const index_t k = (tg.range_cell + static_cast<index_t>(m)) % p.num_range;
      const cfloat tap = amp * range_taps_[m];
      for (index_t j = 0; j < p.num_channels; ++j) {
        const cfloat aj = tap * a[static_cast<size_t>(j)];
        auto line = cpi.line(k, j);
        for (index_t n = 0; n < p.num_pulses; ++n)
          line[static_cast<size_t>(n)] += aj * d[static_cast<size_t>(n)];
      }
    }
  }
}

cube::CpiCube ScenarioGenerator::generate(index_t cpi_index) const {
  cube::CpiCube cpi;
  generate(cpi_index, cpi);
  return cpi;
}

void ScenarioGenerator::generate(index_t cpi_index, cube::CpiCube& cpi) const {
  const auto& p = params_;
  if (cpi.extent(0) != p.num_range || cpi.extent(1) != p.num_channels ||
      cpi.extent(2) != p.num_pulses)
    cpi = cube::CpiCube(p.num_range, p.num_channels, p.num_pulses);
  else
    std::fill(cpi.data(), cpi.data() + cpi.size(), cfloat{});
  Rng rng = Rng(p.seed).fork(static_cast<std::uint64_t>(cpi_index));
  // Clutter and targets pass through the transmit pulse; jammers do not
  // carry the waveform, and receiver noise is added after it.
  add_clutter(cpi, rng, cpi_index);
  add_targets(cpi, cpi_index);
  add_jammers(cpi, rng);
  add_noise(cpi, rng);
}

}  // namespace ppstap::synth
