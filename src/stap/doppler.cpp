#include "stap/doppler.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "dsp/fft.hpp"
#include "kernels/dispatch.hpp"

namespace ppstap::stap {

struct DopplerFilter::PlanHolder {
  dsp::FftPlan<float> fwd;
  explicit PlanHolder(index_t n) : fwd(n, dsp::FftDirection::kForward) {}
};

DopplerFilter::DopplerFilter(const StapParams& p)
    : p_(p),
      window_(dsp::make_window(p.window, p.window_length())),
      plan_(std::make_shared<const PlanHolder>(p.num_pulses)) {
  p_.validate();
}

float DopplerFilter::range_gain(index_t k) const {
  if (!p_.range_correction) return 1.0f;
  const double r = (p_.range_start_cells + static_cast<double>(k)) /
                   p_.range_start_cells;
  // Power goes as R^-exp, so the amplitude correction is R^(exp/2).
  return static_cast<float>(std::pow(r, p_.range_correction_exp / 2.0));
}

cube::CpiCube DopplerFilter::filter(const cube::CpiCube& raw,
                                    index_t k_offset) const {
  const index_t k_local = raw.extent(0);
  const index_t j = p_.num_channels;
  const index_t n = p_.num_pulses;
  const index_t wlen = p_.window_length();
  PPSTAP_REQUIRE(raw.extent(1) == j && raw.extent(2) == n,
                 "raw slab must be K_local x J x N");
  PPSTAP_REQUIRE(k_offset >= 0, "slab offset must be nonnegative");

  cube::CpiCube out(k_local, 2 * j, n);

  parallel_for_blocks(kernels::kernel_threads(p_.intra_task_threads), k_local,
                      [&](index_t k_begin, index_t k_end) {
  std::vector<float> wg(static_cast<size_t>(wlen));
  for (index_t k = k_begin; k < k_end; ++k) {
    const float gain = range_gain(k_offset + k);
    // The range gain folds into the window multiply.
    for (index_t i = 0; i < wlen; ++i)
      wg[static_cast<size_t>(i)] = window_[static_cast<size_t>(i)] * gain;
    for (index_t ch = 0; ch < j; ++ch) {
      const auto pulses = raw.line(k, ch);

      // Window both staggers directly into the output cube — the 2J lines
      // of one range gate are contiguous there, so a single batched FFT
      // call transforms all of them.

      // First stagger window: pulses [0, wlen), zero-padded to N.
      auto line0 = out.line(k, ch);
      for (index_t i = 0; i < wlen; ++i)
        line0[static_cast<size_t>(i)] =
            pulses[static_cast<size_t>(i)] * wg[static_cast<size_t>(i)];

      // Second stagger window: pulses [stagger, stagger + wlen).
      auto line1 = out.line(k, j + ch);
      for (index_t i = 0; i < wlen; ++i)
        line1[static_cast<size_t>(i)] =
            pulses[static_cast<size_t>(i + p_.stagger)] *
            wg[static_cast<size_t>(i)];

      // Windowing cost: one real*complex multiply per sample per window
      // (plus the folded gain multiply when range correction is on).
      count_flops(static_cast<std::uint64_t>(2 * wlen) *
                  (p_.range_correction ? 3 : 2));
    }
    plan_->fwd.execute_batch(
        std::span<cfloat>(&out.at(k, 0, 0), static_cast<size_t>(2 * j * n)),
        2 * j);
  }
  });
  return out;
}

bool DopplerFilter::parseval_check(const cube::CpiCube& raw,
                                   const cube::CpiCube& stag,
                                   index_t k_offset, double tol) const {
  const index_t k_local = raw.extent(0);
  const index_t j = p_.num_channels;
  const index_t n = p_.num_pulses;
  const index_t wlen = p_.window_length();
  PPSTAP_REQUIRE(stag.extent(0) == k_local && stag.extent(1) == 2 * j &&
                     stag.extent(2) == n,
                 "staggered slab must be K_local x 2J x N");

  for (index_t k = 0; k < k_local; ++k) {
    const double gain = range_gain(k_offset + k);
    for (index_t ch = 0; ch < j; ++ch) {
      const auto pulses = raw.line(k, ch);
      for (int w = 0; w < 2; ++w) {
        const index_t shift = w == 0 ? 0 : p_.stagger;
        double time_energy = 0.0;
        for (index_t i = 0; i < wlen; ++i) {
          const cfloat x = pulses[static_cast<size_t>(i + shift)];
          const double scale =
              static_cast<double>(window_[static_cast<size_t>(i)]) * gain;
          time_energy += (static_cast<double>(x.real()) *
                              static_cast<double>(x.real()) +
                          static_cast<double>(x.imag()) *
                              static_cast<double>(x.imag())) *
                         scale * scale;
        }
        double freq_energy = 0.0;
        cdouble freq_sum{};
        double peak_sq = 0.0;
        const auto line = stag.line(k, w * j + ch);
        for (index_t i = 0; i < n; ++i) {
          const cdouble v(line[static_cast<size_t>(i)]);
          const double e = std::norm(v);
          freq_energy += e;
          freq_sum += v;
          peak_sq = std::max(peak_sq, e);
        }
        freq_energy /= static_cast<double>(n);
        if (!std::isfinite(freq_energy)) return false;
        const double floor = 1e-30;
        if (std::abs(freq_energy - time_energy) >
            tol * std::max(time_energy, floor))
          return false;
        // Inverse DFT at sample 0: sum_n X[n] = N * window[0] * gain * x[0].
        // Linear in every output element, so it catches the corruptions
        // whose energy change hides under the Parseval tolerance (a flip
        // that zeroes one small element of a high-CNR line).
        const cdouble x0 =
            cdouble(pulses[static_cast<size_t>(shift)]) *
            (static_cast<double>(window_[0]) * gain * static_cast<double>(n));
        if (std::abs(freq_sum - x0) >
            tol * std::max(std::sqrt(peak_sq), floor))
          return false;
      }
    }
  }
  return true;
}

}  // namespace ppstap::stap
