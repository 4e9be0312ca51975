// Reference fixed-draw normal sampler.
//
// One definition of the operation sequence that turns two SplitMix64 draws
// into one Box–Muller pair, shared by Rng::normal()/cnormal(), the scalar
// kernel table and (lane for lane) the AVX2 add_cnormal op. libm's log and
// sincos are replaced by polynomials built only from +, -, *, / and sqrt,
// which IEEE 754 rounds identically in scalar and vector registers, so a
// vector lane that repeats these steps reproduces the scalar result bit for
// bit — provided the compiler neither contracts a*b+c into an FMA nor
// reassociates (the translation units that expand this header are built
// with -ffp-contract=off, and nothing here is built with -ffast-math).
//
//   log(u1)        exponent split u1 = 2^e * m, m in (sqrt(1/2), sqrt(2)],
//                  then log(m) = 2 atanh(s), s = (m - 1) / (m + 1), as an
//                  odd series in s (|s| <= 0.1716, eleven terms).
//   cos/sin(2πu2)  quadrant reduction in draw units: 4 u2 = q + f with q
//                  the nearest integer (exact), phi = f π/2 in [-π/4, π/4],
//                  Taylor polynomials for sin and cos of phi, then the
//                  quadrant q mod 4 swaps and negates them.
//
// Both polynomials are accurate to a few ulp; the sampler keeps exactly two
// next_u64() draws per pair, so stream offsets stay closed-form (no
// rejection step).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace ppstap::detail {

/// Weyl increment of the SplitMix64 state.
inline constexpr std::uint64_t kWeylGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 output of Weyl state `z` (the state after its increment).
inline std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// 53 random bits of a draw into [0, 1).
inline double unit_from_draw(std::uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

/// The radius uniform is clamped here so log() stays finite on a zero draw.
inline constexpr double kMinRadiusUniform = 1e-300;

inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;  // exact e * kLn2Hi
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kSqrt2 = std::numbers::sqrt2;
inline constexpr double kHalfPi = std::numbers::pi / 2.0;
inline constexpr double kInvSqrt2 = std::numbers::sqrt2 / 2.0;

/// 2 / (2k + 1), k = 0..10: log(m) = s * sum_k c_k s^(2k).
inline constexpr double kLogCoef[11] = {
    2.0,        2.0 / 3.0,  2.0 / 5.0,  2.0 / 7.0,  2.0 / 9.0, 2.0 / 11.0,
    2.0 / 13.0, 2.0 / 15.0, 2.0 / 17.0, 2.0 / 19.0, 2.0 / 21.0};
/// (-1)^k / (2k + 1)!, k = 0..8: sin(phi) = phi * sum_k c_k phi^(2k).
inline constexpr double kSinCoef[9] = {
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5040.0,
    1.0 / 362880.0,
    -1.0 / 39916800.0,
    1.0 / 6227020800.0,
    -1.0 / 1307674368000.0,
    1.0 / 355687428096000.0};
/// (-1)^k / (2k)!, k = 0..9: cos(phi) = sum_k c_k phi^(2k).
inline constexpr double kCosCoef[10] = {
    1.0,
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40320.0,
    -1.0 / 3628800.0,
    1.0 / 479001600.0,
    -1.0 / 87178291200.0,
    1.0 / 20922789888000.0,
    -1.0 / 6402373705728000.0};

/// 2^52 + 2^51: adding and subtracting it rounds |x| < 2^51 to the nearest
/// integer (ties to even) without libm.
inline constexpr double kRoundMagic = 0x1.8p52;

/// log(x) for a positive normal double.
inline double log_ref(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  double e = static_cast<double>(static_cast<std::int64_t>(bits >> 52) - 1023);
  double m = std::bit_cast<double>((bits & 0x000fffffffffffffULL) |
                                   0x3ff0000000000000ULL);  // [1, 2)
  if (m > kSqrt2) {
    m = m * 0.5;
    e = e + 1.0;
  }
  const double s = (m - 1.0) / (m + 1.0);
  const double s2 = s * s;
  double p = kLogCoef[10];
  for (int k = 9; k >= 0; --k) p = p * s2 + kLogCoef[k];
  return e * kLn2Hi + (e * kLn2Lo + s * p);
}

/// cos(2πu) and sin(2πu) for u in [0, 1).
inline void sincos_turn_ref(double u, double& c, double& s) {
  const double x = u * 4.0;
  const double q = (x + kRoundMagic) - kRoundMagic;
  const double phi = (x - q) * kHalfPi;
  const double p2 = phi * phi;
  double sp = kSinCoef[8];
  for (int k = 7; k >= 0; --k) sp = sp * p2 + kSinCoef[k];
  sp = sp * phi;
  double cp = kCosCoef[9];
  for (int k = 8; k >= 0; --k) cp = cp * p2 + kCosCoef[k];
  // Rotate by q quarter turns: (c, s) -> (-s, c) per quarter.
  const auto quadrant = static_cast<unsigned>(q) & 3u;
  const double a = (quadrant & 1u) != 0 ? sp : cp;
  const double b = (quadrant & 1u) != 0 ? cp : sp;
  c = ((quadrant + 1u) & 2u) != 0 ? -a : a;
  s = (quadrant & 2u) != 0 ? -b : b;
}

/// The Box–Muller pair (r cos θ, r sin θ) of two raw draws: u1 from
/// `radius_draw` sets r = sqrt(-2 log u1), u2 from `angle_draw` sets
/// θ = 2π u2.
inline void box_muller_ref(std::uint64_t radius_draw, std::uint64_t angle_draw,
                           double& first, double& second) {
  double u1 = unit_from_draw(radius_draw);
  if (u1 < kMinRadiusUniform) u1 = kMinRadiusUniform;
  const double r = std::sqrt(-2.0 * log_ref(u1));
  double c, s;
  sincos_turn_ref(unit_from_draw(angle_draw), c, s);
  first = r * c;
  second = r * s;
}

/// One Rng::cnormal() sample (each quadrature of variance 1/2) drawn from
/// Weyl state `state`: the next two draws are those of states
/// state + gamma and state + 2 gamma.
inline void cnormal_ref(std::uint64_t state, double& re, double& im) {
  double first, second;
  box_muller_ref(splitmix64(state + kWeylGamma),
                 splitmix64(state + 2 * kWeylGamma), first, second);
  re = kInvSqrt2 * first;
  im = kInvSqrt2 * second;
}

}  // namespace ppstap::detail
