// Payload checksum shared by the transport layer and the ABFT digest path.
//
// One implementation serves two consumers: comm::World stamps every frame
// with it to catch the corruption injector's byte flips (PR 2), and the
// integrity layer (PR 5) reuses it for per-CPI, per-task digests so the
// sink can attribute an end-to-end mismatch to the producing task. Keeping
// both on the same function means a digest computed over the bytes a sender
// handed to the transport is directly comparable to one computed over the
// bytes the receiver got back.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace ppstap {

/// Word-wise rotate-xor checksum of a payload. Not cryptographic — it only
/// needs to catch single-bit and single-byte flips, which it does for any
/// payload (a flip changes exactly one word before a chain of
/// injective rotate-xor mixes).
///
/// The value is that of one serial chain, h = rotl(h, 7) ^ word, seeded
/// with an IV mixed with the length and fed the zero-padded tail last. The
/// chain is linear over GF(2), so word i of an n-word prefix reaches the
/// result rotated by 7·(n−1−i): four interleaved chains stepping by
/// rotl(28), recombined with rotl(21/14/7/0), give the same 64 bits
/// without the serial chain's one-rotate-per-word latency.
inline std::uint64_t checksum_bytes(std::span<const std::byte> b) {
  const std::byte* p = b.data();
  const std::size_t n = b.size();
  const auto word = [p](std::size_t i) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    return w;
  };
  // The IV sits in the lane whose words are rotated least; it is rotated
  // with that lane exactly as the serial chain rotates it.
  std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0x9e3779b97f4a7c15ull ^ n;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    c0 = std::rotl(c0, 28) ^ word(i);
    c1 = std::rotl(c1, 28) ^ word(i + 8);
    c2 = std::rotl(c2, 28) ^ word(i + 16);
    c3 = std::rotl(c3, 28) ^ word(i + 24);
  }
  std::uint64_t h =
      std::rotl(c0, 21) ^ std::rotl(c1, 14) ^ std::rotl(c2, 7) ^ c3;
  for (; i + 8 <= n; i += 8) h = std::rotl(h, 7) ^ word(i);
  if (i < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    h = std::rotl(h, 7) ^ tail;
  }
  return h;
}

/// Checksum of a typed trivially-copyable buffer, viewed as raw bytes.
template <typename T>
std::uint64_t checksum_of(std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checksum_of needs a bitwise-hashable element type");
  return checksum_bytes(std::as_bytes(data));
}

}  // namespace ppstap
