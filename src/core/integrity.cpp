#include "core/integrity.hpp"

#include <cstring>

#include "common/check.hpp"

namespace ppstap::core {

void flip_float_bit(std::span<float> data, int bit, std::uint64_t salt) {
  if (data.empty()) return;
  PPSTAP_REQUIRE(bit >= 0 && bit < 32, "flip_float_bit: bit out of range");
  const std::size_t idx =
      static_cast<std::size_t>(salt * 0x9e3779b97f4a7c15ull % data.size());
  std::uint32_t word;
  std::memcpy(&word, &data[idx], sizeof word);
  word ^= (1u << bit);
  std::memcpy(&data[idx], &word, sizeof word);
}

}  // namespace ppstap::core
