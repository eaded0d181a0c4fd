#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "common/simd_policy.h"
#include "storage/page_footer.h"

namespace vitri {
namespace {

std::vector<Crc32cBackend> AvailableBackends() {
  std::vector<Crc32cBackend> out;
  for (Crc32cBackend b : {Crc32cBackend::kTable, Crc32cBackend::kSse42}) {
    if (Crc32cBackendAvailable(b)) out.push_back(b);
  }
  return out;
}

// Checks `expected` through the active backend and every available one.
void ExpectCrcOf(const uint8_t* data, size_t n, uint32_t expected) {
  EXPECT_EQ(Crc32c(data, n), expected) << "active backend, " << n << " bytes";
  for (Crc32cBackend b : AvailableBackends()) {
    EXPECT_EQ(Crc32cExtendWith(b, 0, data, n), expected)
        << "backend " << static_cast<int>(b) << ", " << n << " bytes";
  }
}

void ExpectCrcOf(const std::string& s, uint32_t expected) {
  ExpectCrcOf(reinterpret_cast<const uint8_t*>(s.data()), s.size(),
              expected);
}

TEST(Crc32cTest, KnownVectors) {
  // Canonical CRC-32C test vectors (RFC 3720 appendix B.4 style).
  ExpectCrcOf("", 0x00000000u);
  ExpectCrcOf("a", 0xC1D04330u);
  ExpectCrcOf("123456789", 0xE3069283u);
  ExpectCrcOf("The quick brown fox jumps over the lazy dog", 0x22620404u);
}

TEST(Crc32cTest, AllZeroAndAllOneBlocks) {
  std::vector<uint8_t> zeros(32, 0x00);
  ExpectCrcOf(zeros.data(), zeros.size(), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  ExpectCrcOf(ones.data(), ones.size(), 0x62A8AB43u);
}

TEST(Crc32cTest, AscendingAndDescendingBlocks) {
  // The other two RFC 3720 B.4 vectors: bytes 0x00..0x1F and 0x1F..0x00.
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  ExpectCrcOf(ascending.data(), ascending.size(), 0x46DD794Eu);
  ExpectCrcOf(descending.data(), descending.size(), 0x113FDB5Cu);
}

TEST(Crc32cTest, ExtendComposesWithOneShot) {
  const std::string s = "123456789";
  for (size_t split = 0; split <= s.size(); ++split) {
    const uint32_t head =
        Crc32c(reinterpret_cast<const uint8_t*>(s.data()), split);
    const uint32_t full = Crc32cExtend(
        head, reinterpret_cast<const uint8_t*>(s.data()) + split,
        s.size() - split);
    EXPECT_EQ(full, 0xE3069283u) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::vector<uint8_t> buf(4096);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131u);
  }
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t bit : {size_t{0}, size_t{7}, size_t{2048 * 8 + 3},
                     buf.size() * 8 - 1}) {
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << "bit " << bit;
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), base);
}

TEST(Crc32cTest, HardwareMatchesTableOnRandomBuffers) {
  if (!Crc32cBackendAvailable(Crc32cBackend::kSse42)) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  constexpr size_t kMaxLength = 8192;
  constexpr size_t kMaxOffset = 15;
  Rng rng(3720);
  std::vector<uint8_t> buf(kMaxLength + kMaxOffset);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = rng.UniformU64(kMaxLength + 1);
    const uint8_t* data = buf.data() + rng.UniformU64(kMaxOffset + 1);
    const auto seed = static_cast<uint32_t>(rng.NextU64());
    const uint32_t table =
        Crc32cExtendWith(Crc32cBackend::kTable, seed, data, n);
    ASSERT_EQ(Crc32cExtendWith(Crc32cBackend::kSse42, seed, data, n), table)
        << "trial " << trial << ", " << n << " bytes";
    // Any split point, on either backend, extends to the same value.
    const size_t split = rng.UniformU64(n + 1);
    for (Crc32cBackend head : AvailableBackends()) {
      for (Crc32cBackend tail : AvailableBackends()) {
        const uint32_t h = Crc32cExtendWith(head, seed, data, split);
        ASSERT_EQ(Crc32cExtendWith(tail, h, data + split, n - split), table)
            << "trial " << trial << ", split " << split << " of " << n;
      }
    }
  }
}

TEST(Crc32cTest, PageChecksumIsPinnedUnderEveryBackend) {
  // One fixed page: 4096 bytes, byte i = i * 131 mod 256, page id 7. The
  // literal is the on-disk footer value; no backend may change it.
  constexpr uint32_t kExpected = 0xCAD39F69u;
  constexpr storage::PageId kId = 7;
  std::vector<uint8_t> page(4096);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 131u);
  }
  EXPECT_EQ(storage::PageChecksum(page.data(), page.size(), kId), kExpected);

  uint8_t id_bytes[4];
  EncodeU32(id_bytes, kId);
  const size_t payload = page.size() - storage::kPageFooterSize;
  for (Crc32cBackend b : {Crc32cBackend::kTable, Crc32cBackend::kSse42}) {
    if (!Crc32cBackendAvailable(b)) {
      GTEST_SKIP() << "CPU lacks SSE4.2";
    }
    const uint32_t seed = Crc32cExtendWith(b, 0, id_bytes, sizeof(id_bytes));
    EXPECT_EQ(Crc32cExtendWith(b, seed, page.data(), payload), kExpected)
        << "backend " << static_cast<int>(b);
  }
}

TEST(Crc32cTest, ActiveBackendFollowsSimdPolicy) {
  // Under the `simd-off` CI leg (VITRI_DISABLE_SIMD=1) the table loop
  // runs; otherwise the instruction runs wherever the CPU has it.
  if (SimdDisabled() || !Crc32cBackendAvailable(Crc32cBackend::kSse42)) {
    EXPECT_EQ(ActiveCrc32cBackend(), Crc32cBackend::kTable);
  } else {
    EXPECT_EQ(ActiveCrc32cBackend(), Crc32cBackend::kSse42);
  }
}

}  // namespace
}  // namespace vitri
