// Jittered exponential retry delay for bounded retry loops.
#pragma once

#include <algorithm>
#include <cstdint>

namespace ppstap {

/// Deterministically jittered exponential retry delay (e.g. the transport's
/// retransmission path): attempt N (1-based) sleeps seed * 2^(N-1) capped at
/// `cap_seconds`, scaled by a jitter factor in [0.75, 1.25) derived from
/// (salt, attempt). The jitter decorrelates retries that would otherwise
/// fire in lock-step (several receivers refetching from one sender), and the
/// determinism keeps seeded fault-injection runs replayable.
inline double retry_delay(int attempt, std::uint64_t salt,
                          double seed_seconds = 50e-6,
                          double cap_seconds = 2e-3) {
  if (attempt < 1) attempt = 1;
  double d = seed_seconds;
  for (int i = 1; i < attempt && d < cap_seconds; ++i) d *= 2.0;
  d = std::min(d, cap_seconds);
  std::uint64_t h = salt * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(attempt) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 29;
  const double jitter = 0.75 + 0.5 * static_cast<double>(h >> 40) /
                                   static_cast<double>(1ull << 24);
  return d * jitter;
}

}  // namespace ppstap
