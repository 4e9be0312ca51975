#include "stap/flops.hpp"

#include "common/check.hpp"

namespace ppstap::stap {

namespace {

std::uint64_t log2_ceil(std::uint64_t n) {
  std::uint64_t lg = 0;
  while ((std::uint64_t{1} << lg) < n) ++lg;
  return lg;
}

std::uint64_t fft_flops(std::uint64_t n) { return 5 * n * log2_ceil(n); }

}  // namespace

std::uint64_t qr_flops(std::uint64_t m, std::uint64_t n) {
  std::uint64_t total = 0;
  for (std::uint64_t j = 0; j < n; ++j) {
    const std::uint64_t len = m - j;
    total += 2 * len + 16 * len * (n - j - 1);
  }
  return total;
}

std::uint64_t back_substitute_flops(std::uint64_t n, std::uint64_t nrhs) {
  return 8 * n * n * nrhs / 2;
}

std::uint64_t qr_apply_flops(std::uint64_t m, std::uint64_t n,
                             std::uint64_t nrhs) {
  std::uint64_t total = 0;
  for (std::uint64_t j = 0; j < n; ++j) total += 16 * (m - j) * nrhs;
  return total;
}

std::uint64_t qr_append_flops(std::uint64_t k, std::uint64_t n,
                              std::uint64_t nrhs) {
  std::uint64_t total = 0;
  for (std::uint64_t j = 0; j < n; ++j)
    total += 2 * (k + 1) + 16 * (k + 1) * (n - j - 1 + nrhs);
  return total;
}

const char* task_name(Task t) {
  switch (t) {
    case Task::kDopplerFilter:
      return "Doppler filter processing";
    case Task::kEasyWeight:
      return "easy weight computation";
    case Task::kHardWeight:
      return "hard weight computation";
    case Task::kEasyBeamform:
      return "easy beamforming";
    case Task::kHardBeamform:
      return "hard beamforming";
    case Task::kPulseCompression:
      return "pulse compression";
    case Task::kCfar:
      return "CFAR processing";
  }
  return "?";
}

std::uint64_t analytic_flops(Task t, const StapParams& p) {
  const auto k = static_cast<std::uint64_t>(p.num_range);
  const auto j = static_cast<std::uint64_t>(p.num_channels);
  const auto n = static_cast<std::uint64_t>(p.num_pulses);
  const auto m = static_cast<std::uint64_t>(p.num_beams);
  const auto n_easy = static_cast<std::uint64_t>(p.num_easy());
  const auto n_hard = static_cast<std::uint64_t>(p.num_hard);
  const auto segs = static_cast<std::uint64_t>(p.num_segments);
  const auto wlen = static_cast<std::uint64_t>(p.window_length());

  switch (t) {
    case Task::kDopplerFilter:
      // Per (range cell, channel): two windowed FFTs plus window (and
      // optional range-gain) multiplies.
      return k * j *
             (2 * fft_flops(n) + (p.range_correction ? 6 : 4) * wlen);
    case Task::kEasyWeight: {
      // Per easy bin: fresh QR of the pooled (history * samples + J) x J
      // system plus an M-rhs solve.
      const std::uint64_t rows =
          static_cast<std::uint64_t>(p.easy_history) *
              static_cast<std::uint64_t>(p.easy_samples_per_cpi) +
          j;
      return n_easy * (qr_flops(rows, j) + qr_apply_flops(rows, j, m) +
                       back_substitute_flops(j, m));
    }
    case Task::kHardWeight: {
      // Per (hard bin, segment): fade the carried R's upper triangle by the
      // forgetting factor, fold in the new training rows, then fold the J
      // constraint rows into a copy of R carrying the M steering columns
      // and back-substitute.
      const std::uint64_t jj = 2 * j;
      const std::uint64_t samples =
          static_cast<std::uint64_t>(p.hard_samples_per_segment);
      const std::uint64_t fade = jj * (jj + 1);
      const std::uint64_t per = fade + qr_append_flops(samples, jj, 0) +
                                qr_append_flops(j, jj, m) +
                                back_substitute_flops(jj, m);
      return n_hard * segs * per;
    }
    case Task::kEasyBeamform:
      return 8 * n_easy * k * m * j;
    case Task::kHardBeamform:
      return 8 * n_hard * k * m * 2 * j;
    case Task::kPulseCompression:
      // Per (bin, beam): forward + inverse K-point FFT, spectrum multiply,
      // magnitude squared.
      return n * m * (2 * fft_flops(k) + 9 * k);
    case Task::kCfar:
      return n * m * 5 * k;
  }
  PPSTAP_CHECK(false, "unknown task");
  return 0;
}

std::array<std::uint64_t, kNumTasks + 1> analytic_flops_table(
    const StapParams& p) {
  std::array<std::uint64_t, kNumTasks + 1> out{};
  std::uint64_t total = 0;
  for (int t = 0; t < kNumTasks; ++t) {
    out[static_cast<size_t>(t)] = analytic_flops(static_cast<Task>(t), p);
    total += out[static_cast<size_t>(t)];
  }
  out[kNumTasks] = total;
  return out;
}

std::array<std::uint64_t, kNumTasks + 1> paper_table1() {
  return {79'691'776ull,  13'851'792ull, 197'038'464ull, 28'311'552ull,
          44'040'192ull,  38'928'384ull, 1'690'368ull,   403'552'528ull};
}

}  // namespace ppstap::stap
