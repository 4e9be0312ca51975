// Single-rank kernel microbenchmarks, roofline report, and SIMD gates.
//
// Timing discipline: every measured case runs through one interleaved
// best-of-N harness — warmup calls first, then N rounds that visit every
// case (and, for the six hot kernels, both dispatch levels) once per
// round, keeping the per-case minimum. Interleaving means a load spike on
// a shared host hits all cases alike instead of biasing whichever case was
// running when the spike landed; the minimum converges to the unloaded
// cost. This replaces the earlier google-benchmark harness, whose
// per-case sequential repetition had exactly that bias.
//
// Report: for each of the seven vectorized hot kernels (batched Doppler
// FFT, easy/hard beamforming GEMM, pulse-compression fast convolution,
// QR factorization, recursive QR row-append, the structured hard-weight
// solve) the binary prints scalar and
// AVX2 times, the speedup, and a roofline placement — achieved GFLOP/s
// (flops measured by the library's own FlopScope instrumentation) against
// min(FMA peak, intensity x stream bandwidth), both peaks measured on the
// spot by probes in the dispatch tables. Gates (folded into the exit code
// and BENCH_kernels.json for scripts/bench_compare.py):
//
//   * geometric-mean AVX2 speedup across the seven kernels >= 2.0,
//   * AVX2 speedup >= 2.0 on each of qr_factor and qr_append (the
//     reflector kernel's bar: per-row axpy dispatch left both near 1x),
//   * sequential pipeline analogue (Table-8 scene, reduced) >= 1.3x.
//
// All gates skip gracefully when the host or build lacks AVX2+FMA.
// Beside the per-unit QR rows, the batched weight solves run at the
// live wall shape (224 hard units, 72 easy bins, 8 lanes per group) as
// ungated rows: qr_append_batch, qr_hard_solve_batch, qr_easy_solve_batch.
// The DESIGN.md ablations (recursive QR vs re-factorization, pulse
// compression on M beams vs 2J channels, strided vs contiguous packing,
// parallel_for spawn overhead) ride the same harness as plain timed rows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numbers>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "cube/cube.hpp"
#include "dsp/fft.hpp"
#include "dsp/waveform.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/kernels.hpp"
#include "linalg/qr.hpp"
#include "stap/beamform.hpp"
#include "stap/doppler.hpp"
#include "stap/flops.hpp"
#include "stap/params.hpp"
#include "stap/pulse_compression.hpp"
#include "stap/sequential.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

using namespace ppstap;

namespace {

std::vector<cfloat> random_signal(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> x(static_cast<size_t>(n));
  for (auto& v : x) {
    auto z = rng.cnormal();
    v = cfloat(static_cast<float>(z.real()), static_cast<float>(z.imag()));
  }
  return x;
}

linalg::MatrixCF random_matrix(index_t rows, index_t cols,
                               std::uint64_t seed) {
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

// ---------------------------------------------------------------------------
// Interleaved best-of-N harness.
// ---------------------------------------------------------------------------

constexpr int kWarmup = 2;
constexpr int kRounds = 5;
constexpr double kMinSample = 2e-4;  // batch fast cases up to ~200 us

struct TimedCase {
  std::string name;
  std::function<void()> fn;
  int calls_per_sample = 1;
  double best_seconds = 1e30;  // per call
};

// One timed sample of `calls` consecutive invocations.
double sample(const std::function<void()>& fn, int calls) {
  const double t0 = WallTimer::now();
  for (int i = 0; i < calls; ++i) fn();
  return (WallTimer::now() - t0) / calls;
}

// Warm every case up, size its batch so a sample is long enough to time,
// then interleave: each round visits every case once.
void run_interleaved(std::vector<TimedCase>& cases) {
  for (auto& c : cases) {
    for (int w = 0; w < kWarmup; ++w) c.fn();
    const double once = sample(c.fn, 1);
    c.calls_per_sample =
        std::max(1, static_cast<int>(std::ceil(kMinSample / std::max(once, 1e-9))));
    c.calls_per_sample = std::min(c.calls_per_sample, 1000);
  }
  for (int round = 0; round < kRounds; ++round)
    for (auto& c : cases)
      c.best_seconds =
          std::min(c.best_seconds, sample(c.fn, c.calls_per_sample));
}

double find_best(const std::vector<TimedCase>& cases, const std::string& n) {
  for (const auto& c : cases)
    if (c.name == n) return c.best_seconds;
  return 0.0;
}

// ---------------------------------------------------------------------------
// Roofline peaks: probes in the dispatch tables (fma) + a stream triad.
// ---------------------------------------------------------------------------

double measure_fma_peak(kernels::SimdLevel level) {
  kernels::force_simd_level(level);
  float sink = 0.0f;
  const index_t iters = 1 << 20;
  const double fpi = kernels::fma_probe_flops_per_iter();
  double best = 1e30;
  for (int rep = 0; rep < kRounds; ++rep) {
    const double t0 = WallTimer::now();
    kernels::fma_probe(iters, &sink);
    best = std::min(best, WallTimer::now() - t0);
  }
  if (sink == 42.0f) std::printf(" ");  // keep the chains alive
  return iters * fpi / best / 1e9;
}

// STREAM-style triad a = b + s*c over arrays far beyond LLC; 12 bytes
// touched per element (write-allocate traffic on `a` not counted, per
// STREAM convention).
double measure_stream_bandwidth() {
  const size_t n = 16u << 20;  // 3 x 64 MiB of floats
  std::vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 3.0f);
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = WallTimer::now();
    for (size_t i = 0; i < n; ++i) a[i] = b[i] + 1.5f * c[i];
    best = std::min(best, WallTimer::now() - t0);
  }
  if (a[n / 2] == 42.0f) std::printf(" ");
  return 12.0 * static_cast<double>(n) / best / 1e9;
}

// ---------------------------------------------------------------------------
// The seven hot kernels, at the paper's Table-1 shapes (single rank).
// ---------------------------------------------------------------------------

struct HotKernel {
  std::string name;
  std::function<void()> fn;
  double bytes_per_call = 0.0;  // analytic input+output traffic
  double flops_per_call = 0.0;  // measured via FlopScope
};

std::vector<HotKernel> make_hot_kernels() {
  std::vector<HotKernel> ks;
  const stap::StapParams p;  // paper defaults: K=512 J=16 N=128 M=6

  // 1. Batched Doppler filtering (PRI-staggered window + 2J FFTs per
  //    range cell) on a 64-cell slab — the per-rank work unit.
  {
    const index_t kb = 64;
    auto raw = std::make_shared<cube::CpiCube>(kb, p.num_channels,
                                               p.num_pulses);
    const auto sig = random_signal(raw->size(), 8);
    std::copy(sig.begin(), sig.end(), raw->data());
    auto filter = std::make_shared<stap::DopplerFilter>(p);
    ks.push_back({"doppler_fft",
                  [raw, filter] { auto out = filter->filter(*raw); },
                  (static_cast<double>(raw->size()) +
                   kb * p.num_staggered_channels() * p.num_pulses) *
                      sizeof(cfloat)});
  }

  // 2. Easy beamforming GEMM: 16 bins of (J x M)^H x (J x K).
  {
    const index_t nbins = 16;
    auto data = std::make_shared<cube::CpiCube>(nbins, p.num_range,
                                                p.num_channels);
    const auto sig = random_signal(data->size(), 9);
    std::copy(sig.begin(), sig.end(), data->data());
    auto w = std::make_shared<stap::WeightSet>();
    const auto easy = p.easy_bins();
    for (index_t b = 0; b < nbins; ++b) {
      w->bins.push_back(easy[static_cast<size_t>(b)]);
      w->weights.push_back(
          random_matrix(p.num_channels, p.num_beams, 10 + b));
    }
    auto pp = std::make_shared<stap::StapParams>(p);
    ks.push_back({"easy_beamform",
                  [data, w, pp] { auto out = stap::easy_beamform(*data, *w, *pp); },
                  (static_cast<double>(data->size()) +
                   nbins * p.num_beams * p.num_range) *
                      sizeof(cfloat)});
  }

  // 3. Hard beamforming GEMM: 4 bins of per-segment (2J x M)^H panels.
  {
    const index_t nbins = 4;
    const index_t jj = p.num_staggered_channels();
    auto data = std::make_shared<cube::CpiCube>(nbins, p.num_range, jj);
    const auto sig = random_signal(data->size(), 11);
    std::copy(sig.begin(), sig.end(), data->data());
    auto w = std::make_shared<stap::WeightSet>();
    const auto hard = p.hard_bins();
    for (index_t b = 0; b < nbins; ++b) {
      w->bins.push_back(hard[static_cast<size_t>(b)]);
      for (index_t s = 0; s < p.num_segments; ++s)
        w->weights.push_back(random_matrix(jj, p.num_beams, 20 + 7 * b + s));
    }
    auto pp = std::make_shared<stap::StapParams>(p);
    ks.push_back({"hard_beamform",
                  [data, w, pp] { auto out = stap::hard_beamform(*data, *w, *pp); },
                  (static_cast<double>(data->size()) +
                   nbins * p.num_beams * p.num_range) *
                      sizeof(cfloat)});
  }

  // 4. Pulse compression: FFT-overlap fast convolution on the M = 6
  //    beamformed outputs (N x M x K cube).
  {
    auto replica = dsp::lfm_chirp(32);
    auto pc = std::make_shared<stap::PulseCompressor>(p, replica);
    auto bf = std::make_shared<cube::CpiCube>(p.num_pulses, p.num_beams,
                                              p.num_range);
    const auto sig = random_signal(bf->size(), 12);
    std::copy(sig.begin(), sig.end(), bf->data());
    ks.push_back({"pulse_compression",
                  [pc, bf] { auto out = pc->compress(*bf); },
                  (static_cast<double>(bf->size()) * sizeof(cfloat) +
                   static_cast<double>(bf->size()) * sizeof(float))});
  }

  // 5. QR factorization at the easy weight solve shape:
  //    (history * samples + J) x J with M right-hand sides behind it.
  {
    auto a = std::make_shared<linalg::MatrixCF>(random_matrix(112, 16, 13));
    ks.push_back({"qr_factor",
                  [a] { linalg::QrFactorization<cfloat> qr(*a); },
                  2.0 * 112 * 16 * sizeof(cfloat)});
  }

  // 6. Recursive QR row-append at the hard update shape: 30 new 2J-wide
  //    training rows folded into a carried R.
  {
    auto r0 = std::make_shared<linalg::MatrixCF>(
        linalg::QrFactorization<cfloat>(random_matrix(64, 32, 14)).r());
    auto x = std::make_shared<linalg::MatrixCF>(random_matrix(30, 32, 15));
    ks.push_back({"qr_append",
                  [r0, x] { auto r = linalg::qr_append_rows(*r0, *x); },
                  (static_cast<double>(r0->rows()) * r0->cols() * 2 +
                   static_cast<double>(x->rows()) * x->cols()) *
                      sizeof(cfloat)});
  }

  // 7. Structured hard-weight solve at the hard compute shape: the J = 16
  //    constraint rows folded into a carried 2J x 2J R (32 + 16 rows x 32
  //    columns) carrying M = 6 steering columns, then back substitution.
  {
    auto r0 = std::make_shared<linalg::MatrixCF>(
        linalg::QrFactorization<cfloat>(random_matrix(64, 32, 16)).r());
    auto c = std::make_shared<linalg::MatrixCF>(random_matrix(16, 32, 17));
    auto s = std::make_shared<linalg::MatrixCF>(random_matrix(16, 6, 18));
    ks.push_back({"qr_hard_solve",
                  [r0, c, s] {
                    linalg::MatrixCF rhs(32, 6);
                    auto r = linalg::qr_append_rows(*r0, *c, rhs, *s);
                    linalg::back_substitute(r, rhs);
                  },
                  (static_cast<double>(r0->rows()) * r0->cols() * 2 +
                   static_cast<double>(c->size()) + s->size() + 32.0 * 6) *
                      sizeof(cfloat)});
  }

  // Measure algorithmic flops once per kernel through the library's own
  // instrumentation (identical at both dispatch levels by construction).
  for (auto& k : ks) {
    FlopScope scope;
    k.fn();
    k.flops_per_call = static_cast<double>(scope.count());
  }
  return ks;
}

// ---------------------------------------------------------------------------
// Sequential pipeline analogue (Table-8 scene, reduced).
// ---------------------------------------------------------------------------

double pipeline_cpi_per_s(kernels::SimdLevel level,
                          const std::vector<cube::CpiCube>& cpis,
                          const stap::StapParams& p,
                          const linalg::MatrixCF& steer,
                          std::span<const cfloat> replica) {
  kernels::force_simd_level(level);
  stap::SequentialStap chain(p, steer, replica);
  const double t0 = WallTimer::now();
  for (const auto& c : cpis) chain.process(c);
  return static_cast<double>(cpis.size()) / (WallTimer::now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("micro_kernels", argc, argv);
  int rc = 0;
  const bool has_avx2 = kernels::avx2_available();
  const kernels::SimdLevel initial = kernels::simd_level();

  bench::print_header("Measured peaks (roofline axes)");
  const double peak_scalar = measure_fma_peak(kernels::SimdLevel::kScalar);
  const double peak_avx2 =
      has_avx2 ? measure_fma_peak(kernels::SimdLevel::kAvx2) : 0.0;
  const double stream_gbs = measure_stream_bandwidth();
  std::printf("fma peak   scalar %7.2f GFLOP/s%s\n", peak_scalar,
              has_avx2 ? "" : "   (AVX2 unavailable on this host/build)");
  if (has_avx2)
    std::printf("fma peak   avx2   %7.2f GFLOP/s\n", peak_avx2);
  std::printf("stream triad      %7.2f GB/s\n", stream_gbs);
  bench::report_row(bench::row({{"kind", "peak"},
                                {"name", "fma_scalar"},
                                {"gflops", peak_scalar}}));
  if (has_avx2)
    bench::report_row(bench::row(
        {{"kind", "peak"}, {"name", "fma_avx2"}, {"gflops", peak_avx2}}));
  bench::report_row(bench::row({{"kind", "peak"},
                                {"name", "stream_triad"},
                                {"bandwidth_gbs", stream_gbs}}));

  // --- seven hot kernels, scalar vs AVX2, interleaved ----------------------
  auto hot = make_hot_kernels();
  std::vector<TimedCase> cases;
  for (const auto& k : hot) {
    cases.push_back({k.name + "/scalar", [&k] {
                       kernels::force_simd_level(kernels::SimdLevel::kScalar);
                       k.fn();
                     }});
    if (has_avx2)
      cases.push_back({k.name + "/avx2", [&k] {
                         kernels::force_simd_level(kernels::SimdLevel::kAvx2);
                         k.fn();
                       }});
  }
  run_interleaved(cases);
  kernels::force_simd_level(initial);

  bench::print_header(has_avx2
                          ? "Hot kernels: scalar vs AVX2 + roofline placement"
                          : "Hot kernels: scalar only (no AVX2)");
  std::printf("%-18s %11s %11s %8s %9s %7s %9s  %s\n", "kernel",
              "scalar", "avx2", "speedup", "GFLOP/s", "F/B", "roof%",
              "bound");
  double log_sum = 0.0;
  std::vector<std::pair<std::string, double>> qr_speedups;
  for (const auto& k : hot) {
    const double s_sc = find_best(cases, k.name + "/scalar");
    const double s_vx = has_avx2 ? find_best(cases, k.name + "/avx2") : 0.0;
    const double speedup = has_avx2 && s_vx > 0.0 ? s_sc / s_vx : 0.0;
    if (has_avx2) log_sum += std::log(std::max(speedup, 1e-9));
    if (k.name == "qr_factor" || k.name == "qr_append")
      qr_speedups.emplace_back(k.name, speedup);
    const double active_s = has_avx2 ? s_vx : s_sc;
    const double peak = has_avx2 ? peak_avx2 : peak_scalar;
    const double gflops = k.flops_per_call / std::max(active_s, 1e-12) / 1e9;
    const double intensity =
        k.flops_per_call / std::max(k.bytes_per_call, 1.0);
    const double roof = std::min(peak, intensity * stream_gbs);
    const char* bound =
        intensity * stream_gbs < peak ? "memory" : "compute";
    const double frac = roof > 0.0 ? gflops / roof : 0.0;
    std::printf("%-18s %9.1fµs %9.1fµs %7.2fx %9.2f %7.2f %8.1f%%  %s\n",
                k.name.c_str(), s_sc * 1e6, s_vx * 1e6, speedup, gflops,
                intensity, 100.0 * frac, bound);
    bench::report_row(bench::row({{"kind", "kernel"},
                                  {"name", k.name.c_str()},
                                  {"scalar_seconds", s_sc},
                                  {"avx2_seconds", s_vx},
                                  {"speedup", speedup},
                                  {"flops_per_call", k.flops_per_call},
                                  {"bytes_per_call", k.bytes_per_call},
                                  {"achieved_gflops", gflops},
                                  {"roof_gflops", roof},
                                  {"roof_fraction", frac},
                                  {"bound", bound}}));
  }
  const double geomean =
      has_avx2 ? std::exp(log_sum / static_cast<double>(hot.size())) : 0.0;
  if (has_avx2) {
    std::printf("geometric-mean speedup %.2fx (gate: >= 2.0x)\n", geomean);
    if (geomean < 2.0) {
      std::printf("FAIL: geomean SIMD speedup below 2x\n");
      rc = 1;
    }
  } else {
    std::printf("speedup gate skipped: AVX2 unavailable\n");
  }
  bench::report_row(bench::row({{"kind", "summary"},
                                {"name", "simd_speedup"},
                                {"geomean_speedup", geomean},
                                {"gate", 2.0},
                                {"pass", has_avx2 ? (geomean >= 2.0 ? 1 : 0)
                                                  : 1}}));
  for (const auto& [name, speedup] : qr_speedups) {
    const bool pass = !has_avx2 || speedup >= 2.0;
    if (has_avx2) {
      std::printf("%s speedup %.2fx (gate: >= 2.0x)\n", name.c_str(),
                  speedup);
      if (!pass) {
        std::printf("FAIL: %s SIMD speedup below 2x\n", name.c_str());
        rc = 1;
      }
    }
    bench::report_row(bench::row({{"kind", "summary"},
                                  {"name", (name + "_speedup").c_str()},
                                  {"speedup", speedup},
                                  {"gate", 2.0},
                                  {"pass", pass ? 1 : 0}}));
  }

  // --- batched weight solves: lane groups at the live wall shape ----------
  // The weight computers' three kernel paths, one problem per lane: the
  // hard recursion's row append (30 rows onto 2J x 2J), the hard solve
  // (the J constraint rows folded with M = 6 steering columns, then back
  // substitution) and the easy solve (dense QR of 112 x 16 with M columns,
  // then back substitution). Each call restores the consumed inputs from
  // pristine copies, as the computers do; flops are the computers' counts.
  bench::print_header("Batched weight solves (wall shape, 8 lanes/group)");
  {
    using kernels::kLaneElem;
    using kernels::kLanes;
    const index_t n = 32, j = 16, k = 30, nb = 6, m = 112;
    const index_t hard_groups = 224 / kLanes, easy_groups = 72 / kLanes;
    Rng rng(0x6261746368ULL);
    auto fill = [&rng](index_t floats) {
      kernels::LaneBuffer g(static_cast<size_t>(floats));
      for (auto& f : g) f = static_cast<float>(rng.normal());
      return g;
    };
    const index_t rg = n * n * kLaneElem, xg = k * n * kLaneElem,
                  cg = j * n * kLaneElem, sg = j * nb * kLaneElem,
                  bg = n * nb * kLaneElem, ag = m * j * kLaneElem,
                  eg = m * nb * kLaneElem;
    kernels::LaneBuffer r0 = fill(hard_groups * rg);
    for (index_t g = 0; g < hard_groups; ++g)  // a dominant diagonal
      for (index_t i = 0; i < n; ++i)
        for (index_t l = 0; l < kLanes; ++l)
          r0[static_cast<size_t>(g * rg + i * (n + 1) * kLaneElem + l)] += 8.0f;
    const kernels::LaneBuffer x0 = fill(hard_groups * xg),
                              c0 = fill(hard_groups * cg),
                              s0 = fill(hard_groups * sg),
                              a0 = fill(easy_groups * ag),
                              e0 = fill(easy_groups * eg);
    kernels::LaneBuffer r, x, c, s, rhs, a, e;
    struct Batched {
      const char* name;
      std::function<void()> fn;
      double flops, bytes;
    };
    const auto u_hard = static_cast<std::uint64_t>(hard_groups * kLanes);
    const auto u_easy = static_cast<std::uint64_t>(easy_groups * kLanes);
    const std::vector<Batched> batched = {
        {"qr_append_batch",
         [&] {
           r = r0, x = x0;
           for (index_t g = 0; g < hard_groups; ++g)
             kernels::qr_append_lanes(r.data() + g * rg, n, x.data() + g * xg,
                                      k, nullptr, nullptr, 0);
         },
         static_cast<double>(u_hard * stap::qr_append_flops(30, 32, 0)),
         static_cast<double>(hard_groups * (2 * rg + xg)) * sizeof(float)},
        {"qr_hard_solve_batch",
         [&] {
           r = r0, c = c0, s = s0;
           rhs.assign(static_cast<size_t>(hard_groups * bg), 0.0f);
           for (index_t g = 0; g < hard_groups; ++g) {
             kernels::qr_append_lanes(r.data() + g * rg, n, c.data() + g * cg,
                                      j, rhs.data() + g * bg,
                                      s.data() + g * sg, nb);
             kernels::back_substitute_lanes(r.data() + g * rg, n, 1, n,
                                            rhs.data() + g * bg, nb, 1, nb);
           }
         },
         static_cast<double>(u_hard * (stap::qr_append_flops(16, 32, 6) +
                                       stap::back_substitute_flops(32, 6))),
         static_cast<double>(hard_groups * (rg + cg + sg + bg)) *
             sizeof(float)},
        {"qr_easy_solve_batch",
         [&] {
           a = a0, e = e0;
           for (index_t g = 0; g < easy_groups; ++g) {
             kernels::qr_dense_lanes(a.data() + g * ag, m, j,
                                     e.data() + g * eg, nb);
             kernels::back_substitute_lanes(a.data() + g * ag, 1, m, j,
                                            e.data() + g * eg, 1, m, nb);
           }
         },
         static_cast<double>(u_easy * (stap::qr_flops(112, 16) +
                                       stap::qr_apply_flops(112, 16, 6) +
                                       stap::back_substitute_flops(16, 6))),
         static_cast<double>(easy_groups * (ag + eg)) * sizeof(float)},
    };
    std::vector<TimedCase> bc;
    for (const auto& b : batched) {
      bc.push_back({std::string(b.name) + "/scalar", [&b] {
                      kernels::force_simd_level(kernels::SimdLevel::kScalar);
                      b.fn();
                    }});
      if (has_avx2)
        bc.push_back({std::string(b.name) + "/avx2", [&b] {
                        kernels::force_simd_level(kernels::SimdLevel::kAvx2);
                        b.fn();
                      }});
    }
    run_interleaved(bc);
    kernels::force_simd_level(initial);
    std::printf("%-20s %11s %11s %8s %9s %9s\n", "kernel", "scalar", "avx2",
                "speedup", "GFLOP/s", "roof%");
    for (const auto& b : batched) {
      const double s_sc = find_best(bc, std::string(b.name) + "/scalar");
      const double s_vx =
          has_avx2 ? find_best(bc, std::string(b.name) + "/avx2") : 0.0;
      const double speedup = has_avx2 && s_vx > 0.0 ? s_sc / s_vx : 0.0;
      const double active_s = has_avx2 ? s_vx : s_sc;
      const double peak = has_avx2 ? peak_avx2 : peak_scalar;
      const double gflops = b.flops / std::max(active_s, 1e-12) / 1e9;
      const double roof =
          std::min(peak, b.flops / std::max(b.bytes, 1.0) * stream_gbs);
      const double frac = roof > 0.0 ? gflops / roof : 0.0;
      std::printf("%-20s %9.1fµs %9.1fµs %7.2fx %9.2f %8.1f%%\n", b.name,
                  s_sc * 1e6, s_vx * 1e6, speedup, gflops, 100.0 * frac);
      bench::report_row(bench::row({{"kind", "batched"},
                                    {"name", b.name},
                                    {"scalar_seconds", s_sc},
                                    {"avx2_seconds", s_vx},
                                    {"speedup", speedup},
                                    {"flops_per_call", b.flops},
                                    {"bytes_per_call", b.bytes},
                                    {"achieved_gflops", gflops},
                                    {"roof_gflops", roof},
                                    {"roof_fraction", frac}}));
    }
  }

  // --- noise sampler: add_cnormal, scalar vs AVX2 (and libm Box–Muller) --
  // One wall-scene cube of receiver noise (K=128, J=16, N=128 samples).
  // The libm column is the sampler add_cnormal replaced: the same two
  // draws per sample through std::log/std::cos/std::sin.
  bench::print_header("Noise sampler: add_cnormal (Msamples/s)");
  {
    constexpr index_t kSamples = 128 * 16 * 128;
    std::vector<cfloat> noise(static_cast<size_t>(kSamples));
    Rng base(0x6e6f697365ULL);
    std::vector<TimedCase> sc = {
        {"libm", [&] {
           Rng r = base;
           for (auto& z : noise) {
             double u1 = r.uniform();
             if (u1 < 1e-300) u1 = 1e-300;
             const double rad = std::sqrt(-2.0 * std::log(u1)) * 0.5 *
                                std::numbers::sqrt2;
             const double theta = 2.0 * std::numbers::pi * r.uniform();
             z += cfloat(static_cast<float>(rad * std::cos(theta)),
                         static_cast<float>(rad * std::sin(theta)));
           }
         }},
        {"scalar", [&] {
           Rng r = base;
           kernels::force_simd_level(kernels::SimdLevel::kScalar);
           kernels::add_cnormal(r, 1.0, noise.data(), kSamples);
         }}};
    if (has_avx2)
      sc.push_back({"avx2", [&] {
                      Rng r = base;
                      kernels::force_simd_level(kernels::SimdLevel::kAvx2);
                      kernels::add_cnormal(r, 1.0, noise.data(), kSamples);
                    }});
    run_interleaved(sc);
    kernels::force_simd_level(initial);
    const auto msps = [&](const char* name) {
      const double s = find_best(sc, name);
      return s > 0.0 ? static_cast<double>(kSamples) / s / 1e6 : 0.0;
    };
    const double libm = msps("libm"), scalar = msps("scalar"),
                 avx2 = has_avx2 ? msps("avx2") : 0.0;
    const double speedup = has_avx2 && scalar > 0.0 ? avx2 / scalar : 0.0;
    std::printf("libm %8.1f   scalar %8.1f   avx2 %8.1f   avx2/scalar "
                "%.2fx   avx2/libm %.2fx\n",
                libm, scalar, avx2, speedup, libm > 0.0 ? avx2 / libm : 0.0);
    bench::report_row(bench::row({{"kind", "sampler"},
                                  {"name", "cnormal"},
                                  {"libm_throughput_msamples_s", libm},
                                  {"scalar_throughput_msamples_s", scalar},
                                  {"avx2_throughput_msamples_s", avx2},
                                  {"speedup", speedup}}));
  }

  // --- pipeline analogue: sequential STAP chain, Table-8 scene reduced ----
  bench::print_header("Pipeline analogue: sequential chain throughput");
  {
    // Paper-default shapes (K=512, J=16, N=128, M=6): at smaller sizes the
    // fixed scalar bookkeeping (CFAR, training-sample gathers, weight
    // solves) dominates and the gate would measure Amdahl overhead, not
    // the kernels.
    const stap::StapParams p;
    synth::ScenarioParams sp;
    sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 12.0});
    synth::ScenarioGenerator gen(sp);
    const auto steer = synth::steering_matrix(
        p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
    const auto& replica = gen.replica();
    std::vector<cube::CpiCube> cpis;
    for (index_t i = 0; i < 4; ++i) cpis.push_back(gen.generate(i));

    double best_sc = 0.0, best_vx = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      best_sc = std::max(best_sc,
                         pipeline_cpi_per_s(kernels::SimdLevel::kScalar, cpis,
                                            p, steer, replica));
      if (has_avx2)
        best_vx = std::max(best_vx,
                           pipeline_cpi_per_s(kernels::SimdLevel::kAvx2, cpis,
                                              p, steer, replica));
    }
    kernels::force_simd_level(initial);
    const double speedup = has_avx2 ? best_vx / best_sc : 0.0;
    std::printf("scalar %8.2f CPI/s   avx2 %8.2f CPI/s   speedup %.2fx "
                "(gate: >= 1.3x)\n",
                best_sc, best_vx, speedup);
    if (has_avx2 && speedup < 1.3) {
      std::printf("FAIL: pipeline-analogue SIMD speedup below 1.3x\n");
      rc = 1;
    }
    if (!has_avx2) std::printf("pipeline gate skipped: AVX2 unavailable\n");
    bench::report_row(
        bench::row({{"kind", "pipeline"},
                    {"name", "sequential_chain"},
                    {"scalar_throughput_cpi_per_s", best_sc},
                    {"avx2_throughput_cpi_per_s", best_vx},
                    {"speedup", speedup},
                    {"gate", 1.3},
                    {"pass", has_avx2 ? (speedup >= 1.3 ? 1 : 0) : 1}}));
  }

  // --- DESIGN.md ablations (timed rows, active dispatch level) ------------
  bench::print_header("Ablations");
  std::vector<TimedCase> ab;

  // Recursive QR row-append vs full re-factorization of the window.
  auto r0 = linalg::QrFactorization<cfloat>(random_matrix(64, 32, 3)).r();
  auto x30 = random_matrix(30, 32, 4);
  auto win = random_matrix(180, 32, 5);
  ab.push_back({"qr_append_30", [&] {
                  auto r = linalg::qr_append_rows(r0, x30);
                }});
  ab.push_back({"qr_refactor_180", [&] {
                  linalg::QrFactorization<cfloat> qr(win);
                }});

  // Pulse compression placement: M = 6 beams vs 2J = 32 channels.
  {
    const stap::StapParams p;
    static auto replica = dsp::lfm_chirp(32);
    static stap::PulseCompressor pc(p, replica);
    static cube::CpiCube beams(p.num_pulses, p.num_beams, p.num_range);
    static cube::CpiCube chans(p.num_pulses, p.num_staggered_channels(),
                               p.num_range);
    ab.push_back({"pc_m_beams", [] { auto out = pc.compress(beams); }});
    ab.push_back({"pc_2j_channels", [] { auto out = pc.compress(chans); }});
  }

  // Fig-8 reorganization: strided gather vs contiguous copy, same bytes.
  {
    static const stap::StapParams p;
    static cube::CpiCube stag(64, p.num_staggered_channels(), p.num_pulses);
    static std::vector<cfloat> buf(static_cast<size_t>(p.num_easy() * 64 *
                                                       p.num_channels));
    static std::vector<cfloat> src(buf.size());
    static const auto easy = p.easy_bins();
    ab.push_back({"pack_strided", [] {
                    size_t off = 0;
                    for (index_t bin : easy)
                      for (index_t k = 0; k < 64; ++k)
                        for (index_t ch = 0; ch < p.num_channels; ++ch)
                          buf[off++] = stag.at(k, ch, bin);
                  }});
    ab.push_back({"pack_contiguous", [] {
                    std::copy(src.begin(), src.end(), buf.begin());
                  }});
  }

  // Thread-per-call spawn overhead of parallel_for_blocks.
  for (index_t t : {2, 4})
    ab.push_back({"parallel_for_spawn_" + std::to_string(t), [t] {
                    parallel_for_blocks(t, t, [](index_t, index_t) {});
                  }});

  run_interleaved(ab);
  for (const auto& c : ab) {
    std::printf("%-22s %10.2fµs\n", c.name.c_str(),
                c.best_seconds * 1e6);
    bench::report_row(bench::row({{"kind", "ablation"},
                                  {"name", c.name.c_str()},
                                  {"seconds", c.best_seconds}}));
  }

  return bench::report_finish(rc);
}
