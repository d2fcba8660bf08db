#include "util/crc32.h"

namespace causalformer {

namespace {

// Slicing-by-8 tables: entries[0] is the classic bytewise table, and
// entries[k][b] is the CRC of byte b followed by k zero bytes, so one step
// folds eight input bytes with eight independent lookups.
struct Crc32Tables {
  uint32_t entries[8][256] = {};
  constexpr Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        entries[k][i] = (entries[k - 1][i] >> 8) ^
                        entries[0][entries[k - 1][i] & 0xFFu];
      }
    }
  }
};

constexpr Crc32Tables kTables;

// Little-endian 32-bit load, independent of host byte order and alignment.
inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t running) {
  const auto& t = kTables.entries;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = running ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = Load32(bytes) ^ crc;
    const uint32_t hi = Load32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace causalformer
