#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace ppstap {

namespace {
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;  // Weyl increment
}  // namespace

std::uint64_t Rng::next_u64() {
  std::uint64_t z = (state_ += kGamma);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::pair<double, double> Rng::box_muller() {
  // u1 is kept away from 0 so log() is finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

double Rng::normal() {
  if (have_cached_) {
    have_cached_ = false;
    return cached_;
  }
  const auto [first, second] = box_muller();
  cached_ = second;
  have_cached_ = true;
  return first;
}

cdouble Rng::cnormal() {
  // Each quadrature has variance 1/2 so E|z|^2 = 1.
  const double s = std::numbers::sqrt2 / 2.0;
  if (have_cached_) return {s * normal(), s * normal()};
  // The two values successive normal() calls would return, without the
  // round trip through the cache.
  const auto [first, second] = box_muller();
  return {s * first, s * second};
}

void Rng::skip(std::uint64_t n) {
  PPSTAP_REQUIRE(!have_cached_,
                 "Rng::skip with a cached normal() half would desynchronize "
                 "the stream");
  state_ += n * kGamma;  // mod 2^64, like the per-draw increments
}

Rng Rng::fork(std::uint64_t salt) const {
  // Mix the salt through one SplitMix64 step of a copy so forked streams do
  // not overlap for distinct salts.
  Rng child(state_ ^ (0x5851f42d4c957f2dULL * (salt + 1)));
  (void)child.next_u64();
  return child;
}

}  // namespace ppstap
