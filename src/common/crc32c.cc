#include "common/crc32c.h"

#include <array>
#include <cassert>
#include <cstring>

#include "common/simd_policy.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define VITRI_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace vitri {
namespace {

// Slicing-by-4: four 256-entry tables; table[0] is the classic
// byte-at-a-time table, table[k] advances a byte that sits k positions
// earlier in the stream. Generated at compile time.
constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected.

constexpr std::array<std::array<uint32_t, 256>, 4> MakeTables() {
  std::array<std::array<uint32_t, 256>, 4> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 4; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr auto kTables = MakeTables();

uint32_t ExtendTable(uint32_t crc, const uint8_t* data, size_t n) {
  uint32_t c = crc ^ 0xffffffffu;
  while (n >= 4) {
    c ^= static_cast<uint32_t>(data[0]) |
         (static_cast<uint32_t>(data[1]) << 8) |
         (static_cast<uint32_t>(data[2]) << 16) |
         (static_cast<uint32_t>(data[3]) << 24);
    c = kTables[3][c & 0xffu] ^ kTables[2][(c >> 8) & 0xffu] ^
        kTables[1][(c >> 16) & 0xffu] ^ kTables[0][c >> 24];
    data += 4;
    n -= 4;
  }
  while (n > 0) {
    c = (c >> 8) ^ kTables[0][(c ^ *data) & 0xffu];
    ++data;
    --n;
  }
  return c ^ 0xffffffffu;
}

#if VITRI_CRC32C_X86

// The crc32 instruction computes this same reflected Castagnoli CRC,
// folding its operand in memory byte order, so one instruction per
// little-endian 8-byte word equals eight steps of the table loop.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const uint8_t* data,
                                                       size_t n) {
  uint64_t c = crc ^ 0xffffffffu;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
    data += 8;
    n -= 8;
  }
  auto c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, *data);
    ++data;
    --n;
  }
  return c32 ^ 0xffffffffu;
}

bool CpuHasSse42() { return __builtin_cpu_supports("sse4.2"); }

#endif  // VITRI_CRC32C_X86

}  // namespace

bool Crc32cBackendAvailable(Crc32cBackend backend) {
  switch (backend) {
    case Crc32cBackend::kTable:
      return true;
    case Crc32cBackend::kSse42:
#if VITRI_CRC32C_X86
      return CpuHasSse42();
#else
      return false;
#endif
  }
  return false;
}

Crc32cBackend ActiveCrc32cBackend() {
  static const Crc32cBackend active =
      Crc32cBackendAvailable(Crc32cBackend::kSse42) && !SimdDisabled()
          ? Crc32cBackend::kSse42
          : Crc32cBackend::kTable;
  return active;
}

uint32_t Crc32cExtendWith(Crc32cBackend backend, uint32_t crc,
                          const uint8_t* data, size_t n) {
  assert(Crc32cBackendAvailable(backend));
#if VITRI_CRC32C_X86
  if (backend == Crc32cBackend::kSse42) return ExtendSse42(crc, data, n);
#endif
  return ExtendTable(crc, data, n);
}

uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n) {
  return Crc32cExtendWith(ActiveCrc32cBackend(), crc, data, n);
}

}  // namespace vitri
