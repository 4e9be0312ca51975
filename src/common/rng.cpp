#include "common/rng.hpp"

#include "common/check.hpp"
#include "common/cnormal_ref.hpp"

namespace ppstap {

std::uint64_t Rng::next_u64() {
  return detail::splitmix64(state_ += detail::kWeylGamma);
}

double Rng::uniform() { return detail::unit_from_draw(next_u64()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (have_cached_) {
    have_cached_ = false;
    return cached_;
  }
  const std::uint64_t radius_draw = next_u64();
  double first;
  detail::box_muller_ref(radius_draw, next_u64(), first, cached_);
  have_cached_ = true;
  return first;
}

cdouble Rng::cnormal() {
  // Each quadrature has variance 1/2 so E|z|^2 = 1.
  const double s = detail::kInvSqrt2;
  if (have_cached_) return {s * normal(), s * normal()};
  double re, im;
  detail::cnormal_ref(state_, re, im);
  state_ += 2 * detail::kWeylGamma;
  return {re, im};
}

void Rng::skip(std::uint64_t n) {
  PPSTAP_REQUIRE(!have_cached_,
                 "Rng::skip with a cached normal() half would desynchronize "
                 "the stream");
  state_ += n * detail::kWeylGamma;  // mod 2^64, like the per-draw increments
}

Rng Rng::fork(std::uint64_t salt) const {
  // Mix the salt through one SplitMix64 step of a copy so forked streams do
  // not overlap for distinct salts.
  Rng child(state_ ^ (0x5851f42d4c957f2dULL * (salt + 1)));
  (void)child.next_u64();
  return child;
}

}  // namespace ppstap
