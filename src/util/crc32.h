#ifndef VIEWJOIN_UTIL_CRC32_H_
#define VIEWJOIN_UTIL_CRC32_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace viewjoin::util {

/// CRC-32 (IEEE 802.3 polynomial, reflected form 0xEDB88320) over a byte
/// range. Used by the pager to checksum page payloads and its file header,
/// and by the manifest and backup images. `seed` chains:
/// Crc32(b, m, Crc32(a, n)) equals the CRC of a followed by b.
///
/// Slicing-by-16: table k maps a byte to its CRC contribution k bytes before
/// the end of a 16-byte block, so each block costs 16 independent lookups
/// instead of 16 dependent ones. The output is bit-identical to the bytewise
/// table walk (the on-disk format depends on it). Tables are built once on
/// first use.
inline uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0) {
  using Tables = std::array<std::array<uint32_t, 256>, 16>;
  static const Tables t = [] {
    Tables tab{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tab[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 16; ++k) {
        uint32_t prev = tab[k - 1][i];
        tab[k][i] = (prev >> 8) ^ tab[0][prev & 0xFFu];
      }
    }
    return tab;
  }();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 16; size -= 16, bytes += 16) {
      uint32_t w[4];
      std::memcpy(w, bytes, 16);
      w[0] ^= crc;
      crc = t[15][w[0] & 0xFFu] ^ t[14][(w[0] >> 8) & 0xFFu] ^
            t[13][(w[0] >> 16) & 0xFFu] ^ t[12][w[0] >> 24] ^
            t[11][w[1] & 0xFFu] ^ t[10][(w[1] >> 8) & 0xFFu] ^
            t[9][(w[1] >> 16) & 0xFFu] ^ t[8][w[1] >> 24] ^
            t[7][w[2] & 0xFFu] ^ t[6][(w[2] >> 8) & 0xFFu] ^
            t[5][(w[2] >> 16) & 0xFFu] ^ t[4][w[2] >> 24] ^
            t[3][w[3] & 0xFFu] ^ t[2][(w[3] >> 8) & 0xFFu] ^
            t[1][(w[3] >> 16) & 0xFFu] ^ t[0][w[3] >> 24];
    }
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace viewjoin::util

#endif  // VIEWJOIN_UTIL_CRC32_H_
