#include "util/crc32.h"

#ifdef CF_HAVE_AVX2
#include <immintrin.h>
#endif

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

// The reference path: advances the raw (pre-inverted) CRC state over any
// span, eight bytes per step.
uint32_t TableUpdate(uint32_t crc, const uint8_t* bytes, size_t size) {
  const auto& t = kTables.entries;
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
  return crc;
}

#ifdef CF_HAVE_AVX2
// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants for 0xEDB88320 that zlib and Chromium use. Four
// 16-byte lanes fold 64 bytes ahead, then fold into one lane that folds 16
// bytes ahead; the last 128 bits reduce to 64, and a Barrett step to 32.
// CF_HAVE_AVX2 marks an x86-64 build with vector backends; the fold needs
// only PCLMULQDQ and SSE4.1, which Crc32() checks at runtime.

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// a * x^(128 + distance) + b, modulo P: a's low and high halves times the
// constant pair `k` for that distance.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i a,
                                                             __m128i b,
                                                             __m128i k) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       b);
}

// Advances the raw CRC state over `size` bytes; size >= 64 and a multiple
// of 16.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldUpdate(
    uint32_t crc, const uint8_t* bytes, size_t size) {
  // x^(4*128+32) and x^(4*128-32) mod P; x^(128+32) and x^(128-32) mod P;
  // x^64 mod P; P' and floor(x^64 / P) for the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(bytes + 16);
  __m128i x3 = Load128(bytes + 32);
  __m128i x4 = Load128(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = Fold(x1, Load128(bytes), k1k2);
    x2 = Fold(x2, Load128(bytes + 16), k1k2);
    x3 = Fold(x3, Load128(bytes + 32), k1k2);
    x4 = Fold(x4, Load128(bytes + 48), k1k2);
  }
  x1 = Fold(x1, x2, k3k4);
  x1 = Fold(x1, x3, k3k4);
  x1 = Fold(x1, x4, k3k4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = Fold(x1, Load128(bytes), k3k4);
  }

  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool FoldSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t running) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = running ^ 0xFFFFFFFFu;
#ifdef CF_HAVE_AVX2
  static const bool fold_supported = FoldSupported();
  if (fold_supported && size >= 64) {
    const size_t lanes = size & ~size_t{15};
    crc = FoldUpdate(crc, bytes, lanes);
    bytes += lanes;
    size -= lanes;
  }
#endif
  return TableUpdate(crc, bytes, size) ^ 0xFFFFFFFFu;
}

}  // namespace causalformer
