#ifndef CAUSALFORMER_UTIL_CRC32_H_
#define CAUSALFORMER_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

/// \file
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the payload
/// checksum of the serve wire protocol (docs/wire-protocol.md). Compatible
/// with zlib's crc32(): one-shot over a buffer, or chained calls threading
/// the previous return value through `running`.
///
/// Two paths compute the same function bit for bit. Slicing-by-8 tables are
/// the reference: they run in every build and take spans under 64 bytes and
/// the tail under 16. On x86-64 builds with vector backends (CF_SIMD other
/// than off), spans of 64 bytes or more fold 16-byte lanes with carry-less
/// multiplies (PCLMULQDQ), selected once at runtime when the CPU reports
/// pclmul and sse4.1.

namespace causalformer {

/// CRC-32 of `size` bytes at `data`, continued from `running`. Pass 0 (the
/// default) for a fresh checksum, or a previous Crc32() result to extend it
/// over a split buffer; Crc32(a+b) == Crc32(b, Crc32(a)).
uint32_t Crc32(const void* data, size_t size, uint32_t running = 0);

}  // namespace causalformer

#endif  // CAUSALFORMER_UTIL_CRC32_H_
