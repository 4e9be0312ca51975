// Deterministic random number generation for synthetic radar scenes.
//
// All scenario generation is seeded, so every test, example, and benchmark
// sees an identical CPI stream for a given seed regardless of the order in
// which threads consume the data.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace ppstap {

/// SplitMix64-based generator with explicit, portable normal/uniform
/// sampling (independent of libstdc++ distribution internals).
///
/// The state is a Weyl sequence (state += gamma per draw), so the state
/// after m draws is s0 + m * gamma: skip(n) jumps ahead in O(1). Each
/// cnormal() on a generator without a cached normal() half consumes exactly
/// two draws and leaves no half cached, so a loop of cnormal() calls puts
/// every sample at a closed-form stream offset, and disjoint blocks of such
/// a loop can run on copies skipped to their own offsets.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value (SplitMix64).
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (uses two uniforms per pair; caches the
  /// second sample). The pair is detail::box_muller_ref
  /// (common/cnormal_ref.hpp): polynomial log and sincos, no libm.
  double normal();

  /// Complex circular Gaussian with E|z|^2 = 1. Two draws when no
  /// normal() half is cached.
  cdouble cnormal();

  /// Advance the stream by `n` draws of next_u64() in O(1). Requires no
  /// cached normal() half (it would be out of step with the jumped state).
  void skip(std::uint64_t n);

  /// Derive an independent stream (e.g. one per range cell or per CPI).
  Rng fork(std::uint64_t salt) const;

  /// The Weyl state: the next draw is detail::splitmix64(state() + gamma).
  /// Vectorized samplers read it to lay out their lanes' draws.
  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
  bool have_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace ppstap
