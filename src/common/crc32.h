// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over a byte string.
//
// Used by common/frame.h to frame records: each record line carries
// the CRC of its payload, so a torn write (truncated tail) or a
// bit flip is detected at load time and `recover` mode can truncate to
// the longest valid prefix instead of replaying corrupt state.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace robotune {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// CRC-32 of `bytes` (reflected polynomial 0xedb88320, init/final 0xff..).
constexpr std::uint32_t crc32(std::string_view bytes) noexcept {
  std::uint32_t c = 0xffffffffu;
  for (const char ch : bytes) {
    c = detail::kCrc32Table[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^
        (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace robotune
