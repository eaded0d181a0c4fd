#ifndef VITRI_COMMON_CRC32C_H_
#define VITRI_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace vitri {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected). The same
/// checksum iSCSI, ext4 and LevelDB/RocksDB use for on-disk integrity;
/// chosen over CRC-32 for its better error-detection properties on
/// storage-sized blocks.
///
/// Two backends compute identical values:
///
///   * kTable — portable slicing-by-4 table loop (the reference);
///   * kSse42 — the SSE4.2 `crc32` instruction, 8 bytes at a time.
///
/// The backend is fixed once per process, on first use: kSse42 wherever
/// the CPU has it, unless SIMD is disabled (common/simd_policy.h), which
/// pins kTable.
enum class Crc32cBackend {
  kTable = 0,
  kSse42 = 1,
};

/// Whether this build/CPU can run `backend`.
bool Crc32cBackendAvailable(Crc32cBackend backend);

/// The backend Crc32cExtend runs: kSse42 when available and SIMD is not
/// disabled at first use, else kTable.
Crc32cBackend ActiveCrc32cBackend();

/// Crc32cExtend on an explicitly chosen backend (tests compare backends
/// this way without touching the process-wide choice). The backend must
/// be available.
uint32_t Crc32cExtendWith(Crc32cBackend backend, uint32_t crc,
                          const uint8_t* data, size_t n);

/// Extends `crc` (a previous return value of Crc32c/Crc32cExtend, or 0
/// for a fresh stream) with `n` more bytes. Streaming-composable:
/// Crc32cExtend(Crc32c(a, n), b, m) == Crc32c(concat(a, b), n + m).
uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n);

/// One-shot checksum of a byte buffer.
inline uint32_t Crc32c(const uint8_t* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace vitri

#endif  // VITRI_COMMON_CRC32C_H_
