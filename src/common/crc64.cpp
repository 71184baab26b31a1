#include "common/crc64.hpp"

#include <array>

namespace aeep {

namespace {

// Reflected ECMA-182 polynomial (the CRC-64/XZ table generator).
constexpr u64 kPoly = 0xC96C5795D7870F42ull;

std::array<u64, 256> make_table() {
  std::array<u64, 256> t{};
  for (u64 i = 0; i < 256; ++i) {
    u64 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    t[static_cast<std::size_t>(i)] = c;
  }
  return t;
}

const std::array<u64, 256>& table() {
  static const std::array<u64, 256> t = make_table();
  return t;
}

}  // namespace

void Crc64::update(const void* data, std::size_t n) {
  const auto* p = static_cast<const u8*>(data);
  const auto& t = table();
  u64 c = state_;
  for (std::size_t i = 0; i < n; ++i)
    c = t[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  state_ = c;
}

u64 crc64(const void* data, std::size_t n) {
  Crc64 c;
  c.update(data, n);
  return c.value();
}

}  // namespace aeep
