// Tests for the runtime-dispatched SIMD kernel layer (DESIGN §13).
//
// Three concerns:
//  1. Equivalence: the AVX2 table must agree with the scalar table on every
//     primitive, at the paper's Table-1 sizes and at adversarial tails
//     (non-power-of-two range counts, odd channel counts, single-bin cubes,
//     zero active beams). The scalar table is the reference: it preserves
//     the pre-SIMD accumulation order exactly.
//  2. Dispatch: PPSTAP_SIMD / force_simd_level select the advertised table,
//     simd_info() tells the truth about why, and PPSTAP_KERNEL_THREADS
//     resolves worker counts per the documented precedence.
//  3. Invariants: the ABFT checks and the flop ledger keep their detection
//     power when the vector table is active — FMA contraction moves low
//     bits, not the clean/corrupt separation.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/kernels.hpp"
#include "linalg/qr.hpp"
#include "stap/doppler.hpp"
#include "stap/params.hpp"
#include "synth/scenario.hpp"

namespace ppstap {
namespace {

using kernels::SimdLevel;

// Restores the pre-test dispatch level even when an assertion bails out.
struct SimdGuard {
  SimdLevel saved = kernels::simd_level();
  ~SimdGuard() { kernels::force_simd_level(saved); }
};

std::vector<cfloat> random_cf(index_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<cfloat> v(static_cast<size_t>(n));
  for (auto& z : v) {
    const cdouble g = rng.cnormal();
    z = cfloat(static_cast<float>(g.real()), static_cast<float>(g.imag()));
  }
  return v;
}

linalg::MatrixCF random_matrix(index_t rows, index_t cols, unsigned seed) {
  const auto v = random_cf(rows * cols, seed);
  linalg::MatrixCF m(rows, cols);
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

bool same_bits(const linalg::MatrixCF& a, const linalg::MatrixCF& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(cfloat)) == 0;
}

double max_abs(const std::vector<cfloat>& v) {
  double m = 0.0;
  for (const cfloat& z : v) m = std::max<double>(m, std::abs(z));
  return std::max(m, 1.0);
}

// Relative elementwise agreement between the two tables' outputs. The
// tolerance is the vector-aware policy from DESIGN §13: a few float ulps
// scaled by the data magnitude, far below anything the ABFT gates use.
void expect_close(const std::vector<cfloat>& got,
                  const std::vector<cfloat>& ref, double tol,
                  const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  const double scale = max_abs(ref);
  for (size_t i = 0; i < ref.size(); ++i)
    ASSERT_LE(std::abs(cdouble(got[i]) - cdouble(ref[i])), tol * scale)
        << what << " element " << i;
}

// --------------------------------------------------------------------------
// Scalar vs AVX2 equivalence, primitive by primitive.
// --------------------------------------------------------------------------

// Sizes chosen to hit every code shape: 0 and 1 (all-tail), 3/5/7 (partial
// vector), 8/12 (exact vectors), 509 (odd, near the paper's K = 512), 512
// (Table 1's K) and 1024.
const index_t kLengths[] = {0, 1, 3, 5, 7, 8, 12, 509, 512, 1024};

#define SKIP_WITHOUT_AVX2()                                       \
  if (!kernels::avx2_available())                                 \
    GTEST_SKIP() << "host or build lacks AVX2+FMA; equivalence "  \
                    "has nothing to compare"

TEST(KernelEquivalence, AxpyMulAbsEnergy) {
  SKIP_WITHOUT_AVX2();
  const auto& sc = kernels::detail::scalar_ops();
  const auto& vx = kernels::detail::avx2_ops();
  for (index_t n : kLengths) {
    const auto x = random_cf(n, 11);
    const cfloat a(0.7f, -1.3f);

    auto y_sc = random_cf(n, 12), y_vx = y_sc;
    sc.axpy(a, x.data(), y_sc.data(), n);
    vx.axpy(a, x.data(), y_vx.data(), n);
    expect_close(y_vx, y_sc, 1e-6, "axpy");

    auto m_sc = random_cf(n, 13), m_vx = m_sc;
    sc.mul_inplace(m_sc.data(), x.data(), n);
    vx.mul_inplace(m_vx.data(), x.data(), n);
    expect_close(m_vx, m_sc, 1e-6, "mul_inplace");

    std::vector<float> p_sc(static_cast<size_t>(n)),
        p_vx(static_cast<size_t>(n));
    sc.abs_sq(x.data(), p_sc.data(), n);
    vx.abs_sq(x.data(), p_vx.data(), n);
    for (size_t i = 0; i < p_sc.size(); ++i)
      ASSERT_NEAR(p_vx[i], p_sc[i], 1e-5 * std::max(1.0f, p_sc[i]));

    // Both sides accumulate in double; agreement is tight even at n=1024.
    ASSERT_NEAR(vx.energy(x.data(), n), sc.energy(x.data(), n),
                1e-9 * std::max(1.0, sc.energy(x.data(), n)));
  }
}

TEST(KernelEquivalence, FftStages) {
  SKIP_WITHOUT_AVX2();
  const auto& sc = kernels::detail::scalar_ops();
  const auto& vx = kernels::detail::avx2_ops();
  // Stage lengths mirror fft.cpp's call pattern: stage2/stage4 run over
  // power-of-two spans >= 4; the generic stage gets len in {8, .., n}.
  for (index_t n : {4, 8, 64, 128, 512}) {
    for (bool conj_tw : {false, true}) {
      auto d_sc = random_cf(n, 21), d_vx = d_sc;
      sc.fft_stage2(d_sc.data(), n);
      vx.fft_stage2(d_vx.data(), n);
      expect_close(d_vx, d_sc, 1e-6, "fft_stage2");

      d_sc = random_cf(n, 22);
      d_vx = d_sc;
      sc.fft_stage4(d_sc.data(), n, conj_tw);
      vx.fft_stage4(d_vx.data(), n, conj_tw);
      expect_close(d_vx, d_sc, 1e-6, "fft_stage4");

      for (index_t len : {8, 16, 64}) {
        if (len > n) continue;
        std::vector<cfloat> tw(static_cast<size_t>(len / 2));
        for (index_t k = 0; k < len / 2; ++k) {
          const double ang = -2.0 * 3.14159265358979323846 * k / len;
          tw[static_cast<size_t>(k)] = cfloat(
              static_cast<float>(std::cos(ang)),
              static_cast<float>(std::sin(ang)));
        }
        d_sc = random_cf(n, 23);
        d_vx = d_sc;
        sc.fft_stage(d_sc.data(), n, len, tw.data(), conj_tw);
        vx.fft_stage(d_vx.data(), n, len, tw.data(), conj_tw);
        expect_close(d_vx, d_sc, 1e-6, "fft_stage");
      }
    }
  }
}

// beamform_gemm blocks identically for both tables (the packing is common
// code); only the bf_panel micro-kernel differs, so the comparison runs the
// full public entry point under forced dispatch levels.
void beamform_both_levels(index_t k, index_t j, index_t m, index_t m_active,
                          index_t ldc) {
  SimdGuard guard;
  const auto w = random_cf(j * m, 31);
  const auto x = random_cf(k * j, 32);
  std::vector<cfloat> out_sc(static_cast<size_t>(m * ldc), cfloat(7.f, 7.f));
  std::vector<cfloat> out_vx = out_sc;

  kernels::force_simd_level(SimdLevel::kScalar);
  kernels::beamform_gemm(w.data(), m, j, m_active, x.data(), j, k,
                         out_sc.data(), ldc);
  kernels::force_simd_level(SimdLevel::kAvx2);
  kernels::beamform_gemm(w.data(), m, j, m_active, x.data(), j, k,
                         out_vx.data(), ldc);
  expect_close(out_vx, out_sc, 1e-5, "beamform_gemm");

  // Inactive beams and out-of-panel columns must be untouched by both.
  for (index_t mm = m_active; mm < m; ++mm)
    for (index_t c = 0; c < ldc; ++c)
      ASSERT_EQ(out_sc[static_cast<size_t>(mm * ldc + c)], cfloat(7.f, 7.f));
}

TEST(KernelEquivalence, BeamformTable1Size) {
  SKIP_WITHOUT_AVX2();
  // The paper's easy beamformer: K = 512 range cells, J = 16 channels,
  // M = 6 beams (Table 1 / §7).
  beamform_both_levels(512, 16, 6, 6, 512);
}

TEST(KernelEquivalence, BeamformAdversarialShapes) {
  SKIP_WITHOUT_AVX2();
  beamform_both_levels(509, 16, 6, 6, 509);  // non-power-of-two K
  beamform_both_levels(85, 7, 5, 5, 85);     // odd J, odd K (hard segment)
  beamform_both_levels(1, 16, 6, 6, 1);      // single range cell
  beamform_both_levels(64, 16, 6, 0, 64);    // zero active beams
  beamform_both_levels(3, 2, 1, 1, 3);       // everything smaller than a tile
  beamform_both_levels(96, 32, 6, 6, 512);   // segment write into wide rows
  // Panel boundary: K straddling the 256-column L1 panel split.
  beamform_both_levels(257, 16, 6, 6, 257);
}

TEST(KernelEquivalence, FftRoundTripBothLevels) {
  SKIP_WITHOUT_AVX2();
  SimdGuard guard;
  // Forward-transform the same data under both levels, then check both
  // against an O(n^2) double-precision DFT. Covers the batched radix-2/4
  // driver (pow2) and the Bluestein path (non-pow2 via cf_mul_inplace).
  for (index_t n : {16, 128, 100}) {
    const auto src = random_cf(n, 41);
    std::vector<cdouble> ref(static_cast<size_t>(n));
    for (index_t k = 0; k < n; ++k) {
      cdouble acc{};
      for (index_t t = 0; t < n; ++t) {
        const double ang = -2.0 * 3.14159265358979323846 * k * t / n;
        acc += cdouble(src[static_cast<size_t>(t)]) *
               cdouble(std::cos(ang), std::sin(ang));
      }
      ref[static_cast<size_t>(k)] = acc;
    }
    for (SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      kernels::force_simd_level(lvl);
      dsp::FftPlan<float> plan(n, dsp::FftDirection::kForward);
      auto d = src;
      plan.execute(std::span<cfloat>(d));
      double err = 0.0, scale = 0.0;
      for (index_t k = 0; k < n; ++k) {
        err = std::max(err, std::abs(cdouble(d[static_cast<size_t>(k)]) -
                                     ref[static_cast<size_t>(k)]));
        scale = std::max(scale, std::abs(ref[static_cast<size_t>(k)]));
      }
      EXPECT_LE(err, 2e-5 * std::max(scale, 1.0))
          << "n=" << n << " level=" << static_cast<int>(lvl);
    }
  }
}

TEST(KernelEquivalence, DopplerFilterEndToEnd) {
  SKIP_WITHOUT_AVX2();
  SimdGuard guard;
  stap::StapParams p = stap::StapParams::small_test();
  p.num_range = 48;  // non-power-of-two K; N stays the pow2 Doppler size
  p.validate();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 4;
  sp.chirp_length = 6;
  const auto cpi = synth::ScenarioGenerator(sp).generate(0);

  kernels::force_simd_level(SimdLevel::kScalar);
  const auto out_sc = stap::DopplerFilter(p).filter(cpi);
  kernels::force_simd_level(SimdLevel::kAvx2);
  const auto out_vx = stap::DopplerFilter(p).filter(cpi);
  ASSERT_TRUE(out_vx.same_shape(out_sc));
  double scale = 1.0;
  for (index_t i = 0; i < out_sc.size(); ++i)
    scale = std::max<double>(scale, std::abs(out_sc.data()[i]));
  for (index_t i = 0; i < out_sc.size(); ++i)
    ASSERT_LE(std::abs(cdouble(out_vx.data()[i]) - cdouble(out_sc.data()[i])),
              1e-5 * scale);
}

// The Householder reflector: one call per reflector over a [pivot row;
// k rows] block. Shapes straddle every chunk boundary (16 complex per
// register chunk, 4 per vector) and leave padding columns (ld > lw) and a
// pivot tail that must come back untouched — the masked tail stores may
// not write past the block.
TEST(KernelEquivalence, ReflectAdversarialShapes) {
  SKIP_WITHOUT_AVX2();
  const auto& sc = kernels::detail::scalar_ops();
  const auto& vx = kernels::detail::avx2_ops();
  for (index_t lw : {1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47}) {
    for (index_t k : {0, 1, 30}) {
      const index_t ld = lw + 3;
      const index_t ldv = 2;  // strided reflector tail, as in a QR column
      const auto v = random_cf(std::max<index_t>(k, 1) * ldv, 51);
      const cfloat v0(0.8f, -0.4f);
      double v_sq = std::norm(v0);
      for (index_t i = 0; i < k; ++i)
        v_sq += std::norm(v[static_cast<size_t>(i * ldv)]);
      const auto beta = static_cast<float>(2.0 / v_sq);

      const auto pivot0 = random_cf(lw + 2, 52);
      const auto rows0 = random_cf(std::max<index_t>(k, 1) * ld, 53);
      auto piv_sc = pivot0, piv_vx = pivot0;
      auto rows_sc = rows0, rows_vx = rows0;
      sc.reflect(v0, v.data(), ldv, beta, piv_sc.data(), rows_sc.data(), ld,
                 k, lw);
      vx.reflect(v0, v.data(), ldv, beta, piv_vx.data(), rows_vx.data(), ld,
                 k, lw);
      expect_close(piv_vx, piv_sc, 1e-5, "reflect pivot");
      expect_close(rows_vx, rows_sc, 1e-5, "reflect rows");
      for (index_t c = lw; c < lw + 2; ++c)
        ASSERT_EQ(piv_vx[static_cast<size_t>(c)],
                  pivot0[static_cast<size_t>(c)])
            << "lw=" << lw << " k=" << k;
      for (index_t i = 0; i < k; ++i)
        for (index_t c = lw; c < ld; ++c)
          ASSERT_EQ(rows_vx[static_cast<size_t>(i * ld + c)],
                    rows0[static_cast<size_t>(i * ld + c)])
              << "lw=" << lw << " k=" << k;
    }
  }
}

// add_cnormal is the scene generator's noise loop. Both tables must equal
// the Rng loop it replaced bit for bit — the scalar one by construction, the
// AVX2 one lane for lane — at every length around the 4-sample vector
// (n = 0..67: empty, all-tail, exact vectors, ragged), from several stream
// offsets (odd ones put the radius draw on an odd Weyl step), and must
// leave the generator where the loop leaves it.
TEST(KernelEquivalence, AddCnormalIsTheRngLoopBitForBit) {
  SimdGuard guard;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(SimdLevel::kAvx2);
  const double scale = 1.7;
  for (const SimdLevel level : levels) {
    kernels::force_simd_level(level);
    for (index_t n = 0; n <= 67; ++n) {
      for (const std::uint64_t offset : {0ull, 1ull, 2ull, 7ull, 1000003ull}) {
        Rng loop = Rng(0xc0ffeeULL + static_cast<std::uint64_t>(n)).fork(3);
        loop.skip(offset);
        Rng op = loop;
        const auto base = random_cf(n, static_cast<unsigned>(60 + n));
        auto expected = base, got = base;
        for (auto& z : expected) z += cfloat(loop.cnormal() * scale);
        kernels::add_cnormal(op, scale, got.data(), n);
        ASSERT_TRUE(n == 0 || std::memcmp(expected.data(), got.data(),
                                          expected.size() * sizeof(cfloat)) ==
                                  0)
            << kernels::simd_info().level_name << " n=" << n
            << " offset=" << offset;
        ASSERT_EQ(op.next_u64(), loop.next_u64())
            << "stream position, n=" << n << " offset=" << offset;
      }
    }
    // Like Rng::skip, the op refuses a generator holding a normal() half.
    Rng cached(5);
    (void)cached.normal();
    std::vector<cfloat> out(4);
    EXPECT_THROW(kernels::add_cnormal(cached, 1.0, out.data(), 4), Error);
  }
}

// --------------------------------------------------------------------------
// Batched weight solves (kernels/lanes_ref.hpp): the AVX2 table runs the
// scalar lane reference's exact operation sequence, so every lane must be
// equal bit for bit — at ragged unit counts (1..9 units over one or two
// groups), both weight shapes, every appended-row and right-hand-side count
// the computers use, and with one non-finite lane, whose neighbours must
// not notice it.
// --------------------------------------------------------------------------

using kernels::kLaneElem;
using kernels::kLanes;
using kernels::LaneBuffer;

// `units` problems of `elems` elements each in ceil(units / 8) groups (unit
// u in lane u % 8 of group u / 8); unused lanes stay zero.
LaneBuffer lane_groups(index_t units, index_t elems, unsigned seed) {
  const index_t groups = (units + kLanes - 1) / kLanes;
  LaneBuffer g(static_cast<size_t>(groups * elems * kLaneElem), 0.0f);
  Rng rng(seed);
  for (index_t u = 0; u < units; ++u)
    for (index_t e = 0; e < elems; ++e) {
      float* f = g.data() + ((u / kLanes) * elems + e) * kLaneElem + u % kLanes;
      f[0] = static_cast<float>(rng.normal());
      f[kLanes] = static_cast<float>(rng.normal());
    }
  return g;
}

// Lane (u % 8) of group (u / 8), element e.
cfloat lane_elem(const LaneBuffer& g, index_t elems, index_t u, index_t e) {
  const float* f = g.data() + ((u / kLanes) * elems + e) * kLaneElem + u % kLanes;
  return {f[0], f[kLanes]};
}

bool same_float_bits(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

void expect_lanes_equal(const LaneBuffer& a, const LaneBuffer& b,
                        index_t units, index_t elems, const char* what) {
  for (index_t u = 0; u < units; ++u)
    for (index_t e = 0; e < elems; ++e) {
      const cfloat x = lane_elem(a, elems, u, e), y = lane_elem(b, elems, u, e);
      ASSERT_TRUE(same_float_bits(x.real(), y.real()) &&
                  same_float_bits(x.imag(), y.imag()))
          << what << " unit " << u << " element " << e;
    }
}

TEST(KernelEquivalence, QrAppendLanesBitForBit) {
  SKIP_WITHOUT_AVX2();
  const auto& sc = kernels::detail::scalar_ops();
  const auto& vx = kernels::detail::avx2_ops();
  for (index_t units = 1; units <= 9; ++units)
    for (index_t n : {16, 32})
      for (index_t k : {0, 1, 16, 30})
        for (index_t p : {0, 2, 6}) {
          LaneBuffer r[2] = {lane_groups(units, n * n, 61), {}};
          LaneBuffer x[2] = {lane_groups(units, k * n, 62), {}};
          LaneBuffer rhs[2] = {lane_groups(units, n * p, 63), {}};
          LaneBuffer xrhs[2] = {lane_groups(units, k * p, 64), {}};
          if (units == 9 && k > 0)  // one non-finite lane
            x[0][static_cast<size_t>(3 * kLaneElem + 4)] =
                std::numeric_limits<float>::infinity();
          r[1] = r[0], x[1] = x[0], rhs[1] = rhs[0], xrhs[1] = xrhs[0];
          for (int t = 0; t < 2; ++t) {
            const auto& ops = t == 0 ? sc : vx;
            for (index_t g = 0; g * kLanes < units; ++g)
              ops.qr_append_lanes(
                  r[t].data() + g * n * n * kLaneElem, n,
                  x[t].data() + g * k * n * kLaneElem, k,
                  rhs[t].data() + g * n * p * kLaneElem,
                  xrhs[t].data() + g * k * p * kLaneElem, p);
          }
          expect_lanes_equal(r[1], r[0], units, n * n, "append R");
          expect_lanes_equal(rhs[1], rhs[0], units, n * p, "append rhs");
          if (units == 9 && k > 0) {
            // The poisoned lane is non-finite at both levels; its
            // neighbours equal an unpoisoned run.
            EXPECT_FALSE(std::isfinite(lane_elem(r[0], n * n, 4, n * n - 1).real()));
            LaneBuffer r_ok = lane_groups(units, n * n, 61);
            LaneBuffer x_ok = lane_groups(units, k * n, 62);
            LaneBuffer rhs_ok = lane_groups(units, n * p, 63);
            LaneBuffer xrhs_ok = lane_groups(units, k * p, 64);
            vx.qr_append_lanes(r_ok.data(), n, x_ok.data(), k, rhs_ok.data(),
                               xrhs_ok.data(), p);
            for (index_t u = 0; u < kLanes; ++u)
              for (index_t e = 0; e < n * n && u != 4; ++e)
                ASSERT_EQ(lane_elem(r_ok, n * n, u, e), lane_elem(r[1], n * n, u, e))
                    << "neighbour " << u << " of the non-finite lane";
          }
        }
}

TEST(KernelEquivalence, QrDenseLanesBitForBit) {
  SKIP_WITHOUT_AVX2();
  const auto& sc = kernels::detail::scalar_ops();
  const auto& vx = kernels::detail::avx2_ops();
  const std::pair<index_t, index_t> shapes[] = {
      {16, 16}, {17, 16}, {112, 16}, {32, 32}, {62, 32}};
  for (index_t units = 1; units <= 9; ++units)
    for (const auto& [m, n] : shapes)
      for (index_t p : {0, 2, 6}) {
        LaneBuffer a[2] = {lane_groups(units, m * n, 71), {}};
        LaneBuffer b[2] = {lane_groups(units, m * p, 72), {}};
        if (units == 9) a[0][static_cast<size_t>(5 * kLaneElem + 2)] =
            std::numeric_limits<float>::quiet_NaN();
        a[1] = a[0], b[1] = b[0];
        for (int t = 0; t < 2; ++t) {
          const auto& ops = t == 0 ? sc : vx;
          for (index_t g = 0; g * kLanes < units; ++g)
            ops.qr_dense_lanes(a[t].data() + g * m * n * kLaneElem, m, n,
                               b[t].data() + g * m * p * kLaneElem, p);
        }
        expect_lanes_equal(a[1], a[0], units, m * n, "dense A");
        expect_lanes_equal(b[1], b[0], units, m * p, "dense B");
      }
}

TEST(KernelEquivalence, BackSubstituteLanesBitForBit) {
  SKIP_WITHOUT_AVX2();
  const auto& sc = kernels::detail::scalar_ops();
  const auto& vx = kernels::detail::avx2_ops();
  for (index_t units = 1; units <= 9; ++units)
    for (index_t n : {16, 32})
      for (index_t p : {0, 2, 6})
        for (bool row_major : {true, false}) {
          LaneBuffer r = lane_groups(units, n * n, 81);
          // A dominant diagonal keeps the solve well scaled.
          for (index_t u = 0; u < units; ++u)
            for (index_t i = 0; i < n; ++i)
              r[static_cast<size_t>(((u / kLanes) * n * n + i * (n + 1)) *
                                        kLaneElem +
                                    u % kLanes)] += 8.0f;
          LaneBuffer b[2] = {lane_groups(units, n * p, 82), {}};
          b[1] = b[0];
          const index_t rs = row_major ? n : 1, cs = row_major ? 1 : n;
          for (int t = 0; t < 2; ++t) {
            const auto& ops = t == 0 ? sc : vx;
            for (index_t g = 0; g * kLanes < units; ++g)
              ops.back_substitute_lanes(r.data() + g * n * n * kLaneElem, rs,
                                        cs, n,
                                        b[t].data() + g * n * p * kLaneElem,
                                        rs == n ? p : 1, rs == n ? 1 : n, p);
          }
          expect_lanes_equal(b[1], b[0], units, n * p, "back substitution");
        }
}

TEST(KernelEquivalence, LaneAbsSumBitForBit) {
  SKIP_WITHOUT_AVX2();
  const auto& sc = kernels::detail::scalar_ops();
  const auto& vx = kernels::detail::avx2_ops();
  for (index_t count : {0, 1, 7, 33}) {
    const LaneBuffer g = lane_groups(kLanes, std::max<index_t>(count, 1), 91);
    double acc_sc[kLanes] = {1.5}, acc_vx[kLanes] = {1.5};
    sc.lane_abs_sum(g.data(), count, acc_sc);
    vx.lane_abs_sum(g.data(), count, acc_vx);
    EXPECT_EQ(std::memcmp(acc_sc, acc_vx, sizeof(acc_sc)), 0) << count;
  }
}

// The lane kernels are Householder QR: each lane matches linalg's double
// reference (same reflector convention) to float accuracy, at both levels.
TEST(KernelInvariants, BatchedQrMatchesDoubleReference) {
  SimdGuard guard;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(SimdLevel::kAvx2);
  const index_t n = 32, k = 30, p = 6, m = 112, nd = 16;
  for (SimdLevel level : levels) {
    kernels::force_simd_level(level);
    LaneBuffer r = lane_groups(kLanes, n * n, 101);
    LaneBuffer x = lane_groups(kLanes, k * n, 102);
    LaneBuffer rhs = lane_groups(kLanes, n * p, 103);
    LaneBuffer xrhs = lane_groups(kLanes, k * p, 104);
    LaneBuffer a = lane_groups(kLanes, m * nd, 105);
    LaneBuffer b = lane_groups(kLanes, m * p, 106);
    const LaneBuffer r0 = r, x0 = x, rhs0 = rhs, xrhs0 = xrhs, a0 = a, b0 = b;
    kernels::qr_append_lanes(r.data(), n, x.data(), k, rhs.data(), xrhs.data(),
                             p);
    kernels::qr_dense_lanes(a.data(), m, nd, b.data(), p);
    for (index_t l = 0; l < kLanes; ++l) {
      linalg::MatrixCD rd(n, n), xd(k, n), rhsd(n, p), xrhsd(k, p);
      for (index_t i = 0; i < n; ++i)
        for (index_t c = i; c < n; ++c)
          rd(i, c) = cdouble(lane_elem(r0, n * n, l, i * n + c));
      for (index_t i = 0; i < k; ++i) {
        for (index_t c = 0; c < n; ++c)
          xd(i, c) = cdouble(lane_elem(x0, k * n, l, c * k + i));
        for (index_t c = 0; c < p; ++c)
          xrhsd(i, c) = cdouble(lane_elem(xrhs0, k * p, l, c * k + i));
      }
      for (index_t i = 0; i < n; ++i)
        for (index_t c = 0; c < p; ++c)
          rhsd(i, c) = cdouble(lane_elem(rhs0, n * p, l, i * p + c));
      const auto rn = linalg::qr_append_rows(rd, xd, rhsd, xrhsd);
      for (index_t i = 0; i < n; ++i) {
        for (index_t c = i; c < n; ++c)
          ASSERT_LE(std::abs(cdouble(lane_elem(r, n * n, l, i * n + c)) -
                             rn(i, c)),
                    1e-4 * (1.0 + std::abs(rn(i, c))))
              << "append R lane " << l;
        for (index_t c = 0; c < p; ++c)
          ASSERT_LE(std::abs(cdouble(lane_elem(rhs, n * p, l, i * p + c)) -
                             rhsd(i, c)),
                    1e-4 * (1.0 + std::abs(rhsd(i, c))))
              << "append rhs lane " << l;
      }
      linalg::MatrixCD ad(m, nd), bd(m, p);
      for (index_t i = 0; i < m; ++i) {
        for (index_t c = 0; c < nd; ++c)
          ad(i, c) = cdouble(lane_elem(a0, m * nd, l, c * m + i));
        for (index_t c = 0; c < p; ++c)
          bd(i, c) = cdouble(lane_elem(b0, m * p, l, c * m + i));
      }
      const linalg::QrFactorization<cdouble> qr(ad);
      qr.apply_qh(bd);
      const auto rd2 = qr.r();
      for (index_t i = 0; i < nd; ++i) {
        for (index_t c = i; c < nd; ++c)
          ASSERT_LE(std::abs(cdouble(lane_elem(a, m * nd, l, c * m + i)) -
                             rd2(i, c)),
                    1e-4 * (1.0 + std::abs(rd2(i, c))))
              << "dense R lane " << l;
        for (index_t c = 0; c < p; ++c)
          ASSERT_LE(std::abs(cdouble(lane_elem(b, m * p, l, c * m + i)) -
                             bd(i, c)),
                    1e-4 * (1.0 + std::abs(bd(i, c))))
              << "dense Q^H b lane " << l;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Dispatch and environment knobs.
// --------------------------------------------------------------------------

TEST(KernelDispatch, InfoIsSelfConsistent) {
  const kernels::SimdInfo& si = kernels::simd_info();
  if (si.level == SimdLevel::kAvx2) {
    EXPECT_STREQ(si.level_name, "avx2");
    EXPECT_EQ(si.lane_floats, 8);
    EXPECT_TRUE(si.cpu_avx2);
    EXPECT_TRUE(si.cpu_fma);
    EXPECT_TRUE(si.compiled_avx2);
  } else {
    EXPECT_STREQ(si.level_name, "scalar");
    EXPECT_EQ(si.lane_floats, 1);
  }
  const std::string source = si.source;
  EXPECT_TRUE(source == "auto" || source == "env" || source == "forced");
  EXPECT_EQ(kernels::avx2_available(),
            si.cpu_avx2 && si.cpu_fma && si.compiled_avx2);
}

TEST(KernelDispatch, ForceRoundTrips) {
  SimdGuard guard;
  kernels::force_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(kernels::simd_level(), SimdLevel::kScalar);
  EXPECT_STREQ(kernels::simd_info().source, "forced");
  if (kernels::avx2_available()) {
    kernels::force_simd_level(SimdLevel::kAvx2);
    EXPECT_EQ(kernels::simd_level(), SimdLevel::kAvx2);
  } else {
    EXPECT_THROW(kernels::force_simd_level(SimdLevel::kAvx2), Error);
  }
}

TEST(KernelDispatch, KernelThreadsPrecedence) {
  // Explicit non-default configuration always wins; the env knob only
  // raises the default. Parsed per call, so setenv works mid-process.
  ::unsetenv("PPSTAP_KERNEL_THREADS");
  EXPECT_EQ(kernels::kernel_threads(1), 1);
  EXPECT_EQ(kernels::kernel_threads(4), 4);
  ::setenv("PPSTAP_KERNEL_THREADS", "3", 1);
  EXPECT_EQ(kernels::kernel_threads(1), 3);
  EXPECT_EQ(kernels::kernel_threads(4), 4);  // explicit beats env
  ::setenv("PPSTAP_KERNEL_THREADS", "0", 1);
  EXPECT_EQ(kernels::kernel_threads(1), 1);  // 0 = keep configured
  ::setenv("PPSTAP_KERNEL_THREADS", "banana", 1);
  EXPECT_THROW(kernels::kernel_threads(1), Error);
  ::unsetenv("PPSTAP_KERNEL_THREADS");
}

// --------------------------------------------------------------------------
// Invariants under the vector table.
// --------------------------------------------------------------------------

// The QR column-norm ABFT gate (orthogonal transforms preserve column
// norms) must keep its detection power at every dispatch level: a healthy
// factorization sits far below tolerance, a corrupted one far above, and
// FMA contraction must not blur that separation.
TEST(KernelInvariants, QrAbftDetectionPowerUnchanged) {
  SimdGuard guard;
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(SimdLevel::kAvx2);
  for (SimdLevel lvl : levels) {
    kernels::force_simd_level(lvl);
    Rng rng(77);
    linalg::MatrixCF a(60, 17);
    for (index_t r = 0; r < a.rows(); ++r)
      for (index_t c = 0; c < a.cols(); ++c) {
        const cdouble z = rng.cnormal();
        a(r, c) = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
      }
    linalg::QrFactorization<cfloat> qr(a);
    // Clean: orders of magnitude below the pipeline's 1e-3-scale gates.
    EXPECT_LT(qr.column_norm_residual(), 1e-4)
        << "level=" << static_cast<int>(lvl);
    // Corrupt: scaling one column of the input by 1.01 between norm
    // capture and factorization is exactly the class of silent data
    // corruption the gate exists for; emulate it by comparing against a
    // perturbed factorization's R norms.
    auto bad = a;
    bad(7, 3) += cfloat(0.5f * static_cast<float>(
                            std::abs(a(7, 3)) + 1.0f), 0.0f);
    linalg::QrFactorization<cfloat> qr_bad(bad);
    linalg::MatrixCF r_clean = qr.r();
    linalg::MatrixCF r_bad = qr_bad.r();
    double diff = 0.0;
    for (index_t rr = 0; rr < r_clean.rows(); ++rr)
      for (index_t cc = 0; cc < r_clean.cols(); ++cc)
        diff = std::max<double>(
            diff, std::abs(cdouble(r_clean(rr, cc)) - cdouble(r_bad(rr, cc))));
    EXPECT_GT(diff, 1e-2) << "level=" << static_cast<int>(lvl);

    // The structured constraint fold (rows appended onto an existing R,
    // right-hand sides carried): the append gate keeps the same clean /
    // corrupt separation. A fold of a corrupted copy of the appended rows
    // no longer preserves the declared [R; C] column norms.
    const linalg::MatrixCF c = random_matrix(8, 17, 79);
    const linalg::MatrixCF xrhs = random_matrix(8, 3, 80);
    linalg::MatrixCF rhs(17, 3);
    const auto r_fold = linalg::qr_append_rows(r_clean, c, rhs, xrhs);
    EXPECT_LT(linalg::append_column_norm_residual(r_clean, c, r_fold), 1e-4)
        << "level=" << static_cast<int>(lvl);
    auto c_bad = c;
    c_bad(2, 5) += cfloat(4.0f, 0.0f);
    linalg::MatrixCF rhs_bad(17, 3);
    const auto r_bad_fold =
        linalg::qr_append_rows(r_clean, c_bad, rhs_bad, xrhs);
    EXPECT_GT(linalg::append_column_norm_residual(r_clean, c, r_bad_fold),
              1e-2)
        << "level=" << static_cast<int>(lvl);
  }
}

// Orthogonality of the float factorization's Q at every dispatch level:
// Q^H is recovered by applying the stored reflectors to the m x m
// identity, and ||Q^H Q - I||_F (accumulated in double) must stay within a
// small multiple of m * eps. Shapes put the widths and row counts of
// KernelEquivalence.ReflectAdversarialShapes on the first reflector.
TEST(KernelInvariants, QrQIsOrthogonalAtAdversarialShapes) {
  SimdGuard guard;
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(SimdLevel::kAvx2);
  const double eps = std::numeric_limits<float>::epsilon();
  for (SimdLevel lvl : levels) {
    kernels::force_simd_level(lvl);
    for (index_t lw : {1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47}) {
      for (index_t k : {0, 1, 30}) {
        const index_t n = lw + 1;
        const index_t m = n + k;
        const linalg::QrFactorization<cfloat> qr(random_matrix(m, n, 61));
        linalg::MatrixCF qh(m, m);
        for (index_t i = 0; i < m; ++i) qh(i, i) = cfloat(1.0f, 0.0f);
        qr.apply_qh(qh);
        // Rows of Q^H are the columns of Q conjugated, so the Gram matrix
        // of those rows is Q^H Q.
        double err_sq = 0.0;
        for (index_t a = 0; a < m; ++a)
          for (index_t b = 0; b < m; ++b) {
            cdouble g{};
            for (index_t c = 0; c < m; ++c)
              g += cdouble(qh(a, c)) * std::conj(cdouble(qh(b, c)));
            if (a == b) g -= 1.0;
            err_sq += std::norm(g);
          }
        EXPECT_LE(std::sqrt(err_sq), 4.0 * static_cast<double>(m) * eps)
            << "m=" << m << " n=" << n
            << " level=" << static_cast<int>(lvl);
      }
    }
  }
}

// The pre-kernel Householder loops (one unit-stride axpy per row) and the
// per-column back substitution, kept verbatim as the bitwise reference:
// under forced scalar dispatch the reflector kernel and the row-sweep back
// substitution must reproduce them exactly.
namespace seed {

void axpy(cfloat a, const cfloat* x, cfloat* y, index_t n) {
  for (index_t i = 0; i < n; ++i) y[i] += a * x[i];
}

cfloat phase_of(const cfloat& x) {
  const float a = std::abs(x);
  return a == 0.0f ? cfloat(1.0f) : x / a;
}

struct Factored {
  linalg::MatrixCF a;
  std::vector<cfloat> v0;
  std::vector<float> beta;
};

Factored factor(const linalg::MatrixCF& in) {
  Factored f{in, {}, {}};
  auto& a = f.a;
  const index_t m = a.rows(), n = a.cols();
  std::vector<cfloat> w(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    float norm_sq = 0.0f;
    for (index_t i = j; i < m; ++i) norm_sq += linalg::abs_sq(a(i, j));
    const float norm = std::sqrt(norm_sq);
    const cfloat x0 = a(j, j);
    const cfloat alpha = -phase_of(x0) * norm;
    const cfloat v0 = x0 - alpha;
    const float v_sq = norm_sq - linalg::abs_sq(x0) + linalg::abs_sq(v0);
    const float beta = v_sq > 0.0f ? 2.0f / v_sq : 0.0f;
    f.v0.push_back(v0);
    f.beta.push_back(beta);
    a(j, j) = alpha;
    const index_t lw = n - j - 1;
    if (lw > 0) {
      cfloat* wp = w.data();
      std::fill(wp, wp + lw, cfloat{});
      axpy(std::conj(v0), &a(j, j + 1), wp, lw);
      for (index_t i = j + 1; i < m; ++i)
        axpy(std::conj(a(i, j)), &a(i, j + 1), wp, lw);
      for (index_t c = 0; c < lw; ++c) wp[c] *= beta;
      axpy(-v0, wp, &a(j, j + 1), lw);
      for (index_t i = j + 1; i < m; ++i) axpy(-a(i, j), wp, &a(i, j + 1), lw);
    }
  }
  return f;
}

void apply_qh(const Factored& f, linalg::MatrixCF& b) {
  const index_t m = f.a.rows(), n = f.a.cols(), nrhs = b.cols();
  std::vector<cfloat> w(static_cast<size_t>(nrhs));
  for (index_t j = 0; j < n; ++j) {
    const cfloat v0 = f.v0[static_cast<size_t>(j)];
    cfloat* wp = w.data();
    std::fill(wp, wp + nrhs, cfloat{});
    axpy(std::conj(v0), &b(j, 0), wp, nrhs);
    for (index_t i = j + 1; i < m; ++i)
      axpy(std::conj(f.a(i, j)), &b(i, 0), wp, nrhs);
    for (index_t c = 0; c < nrhs; ++c) wp[c] *= f.beta[static_cast<size_t>(j)];
    axpy(-v0, wp, &b(j, 0), nrhs);
    for (index_t i = j + 1; i < m; ++i) axpy(-f.a(i, j), wp, &b(i, 0), nrhs);
  }
}

linalg::MatrixCF append_rows(const linalg::MatrixCF& r, linalg::MatrixCF x) {
  const index_t n = r.rows(), k = x.rows();
  linalg::MatrixCF out = r;
  std::vector<cfloat> v(static_cast<size_t>(k)), w(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    float norm_sq = linalg::abs_sq(out(j, j));
    for (index_t i = 0; i < k; ++i) norm_sq += linalg::abs_sq(x(i, j));
    const float norm = std::sqrt(norm_sq);
    const cfloat x0 = out(j, j);
    const cfloat alpha = -phase_of(x0) * norm;
    const cfloat v0 = x0 - alpha;
    float v_sq = linalg::abs_sq(v0);
    for (index_t i = 0; i < k; ++i) {
      v[static_cast<size_t>(i)] = x(i, j);
      v_sq += linalg::abs_sq(x(i, j));
    }
    const float beta = v_sq > 0.0f ? 2.0f / v_sq : 0.0f;
    out(j, j) = alpha;
    const index_t lw = n - j - 1;
    if (lw > 0) {
      cfloat* wp = w.data();
      std::fill(wp, wp + lw, cfloat{});
      axpy(std::conj(v0), &out(j, j + 1), wp, lw);
      for (index_t i = 0; i < k; ++i)
        axpy(std::conj(v[static_cast<size_t>(i)]), &x(i, j + 1), wp, lw);
      for (index_t c = 0; c < lw; ++c) wp[c] *= beta;
      axpy(-v0, wp, &out(j, j + 1), lw);
      for (index_t i = 0; i < k; ++i)
        axpy(-v[static_cast<size_t>(i)], wp, &x(i, j + 1), lw);
    }
  }
  return out;
}

void back_substitute(const linalg::MatrixCF& r, linalg::MatrixCF& b) {
  const index_t n = r.rows();
  for (index_t i = n - 1; i >= 0; --i)
    for (index_t c = 0; c < b.cols(); ++c) {
      cfloat acc = b(i, c);
      for (index_t j = i + 1; j < n; ++j) acc -= r(i, j) * b(j, c);
      b(i, c) = acc / r(i, i);
    }
}

}  // namespace seed

TEST(KernelInvariants, ScalarQrBitIdenticalToAxpyLoops) {
  SimdGuard guard;
  kernels::force_simd_level(SimdLevel::kScalar);
  // The easy solve's shape (112 x 16, 6 rhs), a square factor (the
  // reflector with an empty tail), and the hard append (30 rows into 32).
  for (auto [m, n] : {std::pair<index_t, index_t>{112, 16}, {48, 32},
                      {17, 17}}) {
    const auto a = random_matrix(m, n, 61);
    const linalg::QrFactorization<cfloat> qr(a);
    const auto ref = seed::factor(a);
    linalg::MatrixCF r_ref(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = i; j < n; ++j) r_ref(i, j) = ref.a(i, j);
    EXPECT_TRUE(same_bits(qr.r(), r_ref)) << m << "x" << n;

    auto b = random_matrix(m, 6, 62), b_ref = b;
    const auto x = qr.solve(b);
    qr.apply_qh(b);
    seed::apply_qh(ref, b_ref);
    EXPECT_TRUE(same_bits(b, b_ref)) << m << "x" << n;

    linalg::MatrixCF x_ref(n, 6);
    for (index_t i = 0; i < n; ++i)
      for (index_t c = 0; c < 6; ++c) x_ref(i, c) = b_ref(i, c);
    seed::back_substitute(r_ref, x_ref);
    EXPECT_TRUE(same_bits(x, x_ref)) << m << "x" << n;
  }
  const auto r0 =
      linalg::QrFactorization<cfloat>(random_matrix(64, 32, 63)).r();
  const auto x = random_matrix(30, 32, 64);
  EXPECT_TRUE(
      same_bits(linalg::qr_append_rows(r0, x), seed::append_rows(r0, x)));
}

// Solve correctness at both levels: QR least squares recovers a planted
// solution through the vectorized Householder updates.
TEST(KernelInvariants, QrSolveBothLevels) {
  SimdGuard guard;
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(SimdLevel::kAvx2);
  for (SimdLevel lvl : levels) {
    kernels::force_simd_level(lvl);
    Rng rng(78);
    const index_t m = 40, n = 9, nrhs = 3;
    linalg::MatrixCF a(m, n), x(n, nrhs);
    for (index_t r = 0; r < m; ++r)
      for (index_t c = 0; c < n; ++c) {
        const cdouble z = rng.cnormal();
        a(r, c) = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
      }
    for (index_t r = 0; r < n; ++r)
      for (index_t c = 0; c < nrhs; ++c) {
        const cdouble z = rng.cnormal();
        x(r, c) = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
      }
    linalg::MatrixCF b(m, nrhs);
    for (index_t r = 0; r < m; ++r)
      for (index_t c = 0; c < nrhs; ++c) {
        cdouble acc{};
        for (index_t k = 0; k < n; ++k)
          acc += cdouble(a(r, k)) * cdouble(x(k, c));
        b(r, c) = cfloat(static_cast<float>(acc.real()),
                         static_cast<float>(acc.imag()));
      }
    const auto got = linalg::QrFactorization<cfloat>(a).solve(b);
    for (index_t r = 0; r < n; ++r)
      for (index_t c = 0; c < nrhs; ++c)
        ASSERT_LE(std::abs(cdouble(got(r, c)) - cdouble(x(r, c))), 2e-4)
            << "level=" << static_cast<int>(lvl);
  }
}

// Satellite 1 regression test: flop totals are thread-count invariant. The
// old code lost every worker thread's counts (thread-local counter, never
// folded back); totals silently shrank as intra_task_threads grew.
TEST(KernelInvariants, FlopCountsAggregateAcrossWorkers) {
  constexpr index_t kTotal = 1000;
  std::uint64_t baseline = 0;
  {
    FlopScope scope;
    parallel_for_blocks(1, kTotal, [](index_t b, index_t e) {
      for (index_t i = b; i < e; ++i) count_flops(3);
    });
    baseline = scope.count();
  }
  EXPECT_EQ(baseline, 3u * kTotal);
  for (index_t threads : {2, 3, 8}) {
    FlopScope scope;
    parallel_for_blocks(threads, kTotal, [](index_t b, index_t e) {
      for (index_t i = b; i < e; ++i) count_flops(3);
    });
    EXPECT_EQ(scope.count(), baseline) << "threads=" << threads;
  }
  // Uninstrumented callers stay uninstrumented: workers must not count
  // when the caller has no active scope.
  parallel_for_blocks(4, kTotal, [](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) count_flops(3);
  });
  FlopScope after;
  EXPECT_EQ(after.count(), 0u);
}

}  // namespace
}  // namespace ppstap
