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
  PPSTAP_REQUIRE(k_offset >= 0, "slab offset must be nonnegative");
  cube::CpiCube out(raw.extent(0), 2 * p_.num_channels, p_.num_pulses);
  filter_into(cube::ConstRows<cfloat>(raw), k_offset, out, 0);
  return out;
}

void DopplerFilter::filter_rows(const cube::ConstRows<cfloat>& rows,
                                index_t k0, cube::CpiCube& out) const {
  PPSTAP_REQUIRE(k0 >= 0 && rows.begin() >= k0 &&
                     rows.end() - k0 <= out.extent(0),
                 "rows must lie inside the slab");
  filter_into(rows, rows.begin(), out, rows.begin() - k0);
}

void DopplerFilter::filter_into(const cube::ConstRows<cfloat>& raw,
                                index_t k_gain0, cube::CpiCube& out,
                                index_t out_row0) const {
  const index_t j = p_.num_channels;
  const index_t n = p_.num_pulses;
  const index_t wlen = p_.window_length();
  const index_t kl = raw.extent(0);
  PPSTAP_REQUIRE(raw.extent(1) == j && raw.extent(2) == n,
                 "raw slab must be K_local x J x N");
  PPSTAP_REQUIRE(out.extent(1) == 2 * j && out.extent(2) == n,
                 "staggered slab must be K_local x 2J x N");

  parallel_for_blocks(kernels::kernel_threads(p_.intra_task_threads), kl,
                      [&](index_t k_begin, index_t k_end) {
  std::vector<float> wg(static_cast<size_t>(wlen));
  for (index_t k = k_begin; k < k_end; ++k) {
    const float gain = range_gain(k_gain0 + k);
    // The range gain folds into the window multiply.
    for (index_t i = 0; i < wlen; ++i)
      wg[static_cast<size_t>(i)] = window_[static_cast<size_t>(i)] * gain;
    for (index_t ch = 0; ch < j; ++ch) {
      const auto pulses = raw.line(raw.begin() + k, ch);

      // Window both staggers directly into the output cube — the 2J lines
      // of one range gate are contiguous there, so a single batched FFT
      // call transforms all of them. The zero padding is written
      // explicitly: `out` may be a reused buffer.

      // First stagger window: pulses [0, wlen), zero-padded to N.
      auto line0 = out.line(out_row0 + k, ch);
      for (index_t i = 0; i < wlen; ++i)
        line0[static_cast<size_t>(i)] =
            pulses[static_cast<size_t>(i)] * wg[static_cast<size_t>(i)];
      std::fill(line0.begin() + wlen, line0.end(), cfloat{});

      // Second stagger window: pulses [stagger, stagger + wlen).
      auto line1 = out.line(out_row0 + k, j + ch);
      for (index_t i = 0; i < wlen; ++i)
        line1[static_cast<size_t>(i)] =
            pulses[static_cast<size_t>(i + p_.stagger)] *
            wg[static_cast<size_t>(i)];
      std::fill(line1.begin() + wlen, line1.end(), cfloat{});

      // Windowing cost: one real*complex multiply per sample per window
      // (plus the folded gain multiply when range correction is on).
      count_flops(static_cast<std::uint64_t>(2 * wlen) *
                  (p_.range_correction ? 3 : 2));
    }
    plan_->fwd.execute_batch(
        std::span<cfloat>(&out.at(out_row0 + k, 0, 0),
                          static_cast<size_t>(2 * j * n)),
        2 * j);
  }
  });
}

bool DopplerFilter::parseval_check(const cube::CpiCube& raw,
                                   const cube::CpiCube& stag,
                                   index_t k_offset, double tol) const {
  return check_rows(cube::ConstRows<cfloat>(raw), stag, k_offset, tol);
}

bool DopplerFilter::parseval_check_rows(const cube::ConstRows<cfloat>& rows,
                                        const cube::CpiCube& stag,
                                        double tol) const {
  return check_rows(rows, stag, rows.begin(), tol);
}

bool DopplerFilter::check_rows(const cube::ConstRows<cfloat>& raw,
                               const cube::CpiCube& stag, index_t k_gain0,
                               double tol) const {
  const index_t k_local = stag.extent(0);
  const index_t j = p_.num_channels;
  const index_t n = p_.num_pulses;
  const index_t wlen = p_.window_length();
  PPSTAP_REQUIRE(raw.extent(0) == k_local && raw.extent(1) == j &&
                     raw.extent(2) == n && stag.extent(1) == 2 * j &&
                     stag.extent(2) == n,
                 "staggered slab must be K_local x 2J x N");

  for (index_t k = 0; k < k_local; ++k) {
    const double gain = range_gain(k_gain0 + k);
    for (index_t ch = 0; ch < j; ++ch) {
      const auto pulses = raw.line(raw.begin() + k, ch);
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

std::vector<PackRow> beamform_pack_rows(std::span<const index_t> bins,
                                        index_t kl) {
  std::vector<PackRow> rows;
  rows.reserve(bins.size() * static_cast<size_t>(kl));
  const auto nb = static_cast<index_t>(bins.size());
  for (index_t k = 0; k < kl; ++k)
    for (index_t b = 0; b < nb; ++b)
      rows.push_back({k, bins[static_cast<size_t>(b)], b * kl + k});
  return rows;
}

std::vector<PackRow> training_pack_rows(std::span<const TrainingBlock> blocks,
                                        index_t k0, index_t kl) {
  std::vector<PackRow> rows;
  for (const auto& blk : blocks)
    for (const index_t cell : blk.cells)
      if (cell >= k0 && cell < k0 + kl)
        rows.push_back({cell - k0, blk.bin,
                        static_cast<index_t>(rows.size())});
  std::stable_sort(
      rows.begin(), rows.end(),
      [](const PackRow& a, const PackRow& b) { return a.k < b.k; });
  return rows;
}

void pack_rows(const cube::CpiCube& stag, std::span<const PackRow> rows,
               index_t nch, std::span<cfloat> out) {
  PPSTAP_REQUIRE(nch >= 0 && nch <= stag.extent(1),
                 "pack channel count exceeds the slab");
  PPSTAP_REQUIRE(out.size() == rows.size() * static_cast<size_t>(nch),
                 "pack output does not match the frame's rows");
  const index_t n = stag.extent(2);
  const cfloat* base = stag.data();
  for (const PackRow& r : rows) {
    PPSTAP_CHECK(r.k >= 0 && r.k < stag.extent(0) && r.bin >= 0 &&
                     r.bin < n && r.row >= 0 &&
                     r.row < static_cast<index_t>(rows.size()),
                 "pack row outside the staggered slab or the frame");
    const cfloat* src = base + r.k * stag.extent(1) * n + r.bin;
    cfloat* dst = out.data() + r.row * nch;
    for (index_t ch = 0; ch < nch; ++ch) dst[ch] = src[ch * n];
  }
}

}  // namespace ppstap::stap
