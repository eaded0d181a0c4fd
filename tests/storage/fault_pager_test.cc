#include "storage/fault_pager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_footer.h"

namespace vitri::storage {
namespace {

constexpr size_t kPage = 128;

std::unique_ptr<FaultInjectingPager> MakeFaulty(uint64_t seed = 7) {
  return std::make_unique<FaultInjectingPager>(
      std::make_unique<MemPager>(kPage), seed);
}

std::vector<uint8_t> Pattern(uint8_t fill) {
  std::vector<uint8_t> v(kPage, fill);
  return v;
}

TEST(FaultInjectingPagerTest, TransientReadErrorFiresOnScheduleThenStops) {
  auto pager = MakeFaulty();
  auto id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  // Fire on the 3rd and 6th read, then never again.
  pager->AddRule(FaultRule{FaultKind::kTransientIoError, FaultOp::kRead,
                           kAnyPage, /*after=*/0, /*every=*/3,
                           /*limit=*/2});
  std::vector<uint8_t> buf(kPage);
  int failures = 0;
  for (int i = 1; i <= 12; ++i) {
    const Status s = pager->Read(*id, buf.data());
    if (!s.ok()) {
      EXPECT_TRUE(s.IsIoError());
      EXPECT_TRUE(i == 3 || i == 6) << "unexpected failure on read " << i;
      ++failures;
    }
  }
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(pager->fault_stats().transient_io_errors, 2u);
}

TEST(FaultInjectingPagerTest, PersistentErrorNeverRecovers) {
  auto pager = MakeFaulty();
  auto id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  auto other = pager->Allocate();
  ASSERT_TRUE(other.ok());
  pager->AddRule(FaultRule{FaultKind::kPersistentIoError, FaultOp::kRead,
                           *id});
  std::vector<uint8_t> buf(kPage);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pager->Read(*id, buf.data()).IsIoError());
  }
  // Only the targeted page is affected.
  EXPECT_TRUE(pager->Read(*other, buf.data()).ok());
  EXPECT_EQ(pager->fault_stats().persistent_io_errors, 5u);
}

TEST(FaultInjectingPagerTest, BitFlipOnWriteCorruptsExactlyOneBit) {
  auto pager = MakeFaulty();
  auto id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  pager->AddRule(FaultRule{FaultKind::kBitFlip, FaultOp::kWrite, *id,
                           /*after=*/0, /*every=*/1, /*limit=*/1});
  const std::vector<uint8_t> src = Pattern(0x5a);
  ASSERT_TRUE(pager->Write(*id, src.data()).ok());
  std::vector<uint8_t> stored(kPage);
  ASSERT_TRUE(pager->Read(*id, stored.data()).ok());
  int differing_bits = 0;
  for (size_t i = 0; i < kPage; ++i) {
    differing_bits += __builtin_popcount(src[i] ^ stored[i]);
  }
  EXPECT_EQ(differing_bits, 1);
  EXPECT_EQ(pager->fault_stats().bit_flips, 1u);
}

TEST(FaultInjectingPagerTest, BitFlipIsDeterministicForASeed) {
  auto flipped_page = [](uint64_t seed) {
    auto pager = MakeFaulty(seed);
    auto id = pager->Allocate();
    EXPECT_TRUE(id.ok());
    pager->AddRule(FaultRule{FaultKind::kBitFlip, FaultOp::kRead, *id});
    std::vector<uint8_t> buf(kPage);
    EXPECT_TRUE(pager->Read(*id, buf.data()).ok());
    return buf;
  };
  EXPECT_EQ(flipped_page(42), flipped_page(42));
  EXPECT_NE(flipped_page(42), flipped_page(43));
}

TEST(FaultInjectingPagerTest, TornWriteKeepsOldTail) {
  auto pager = MakeFaulty();
  auto id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(pager->Write(*id, Pattern(0x11).data()).ok());
  pager->AddRule(FaultRule{FaultKind::kTornWrite, FaultOp::kWrite, *id,
                           /*after=*/0, /*every=*/1, /*limit=*/1});
  // The torn write still reports success.
  ASSERT_TRUE(pager->Write(*id, Pattern(0x22).data()).ok());
  std::vector<uint8_t> stored(kPage);
  ASSERT_TRUE(pager->Read(*id, stored.data()).ok());
  for (size_t i = 0; i < kPage / 2; ++i) EXPECT_EQ(stored[i], 0x22);
  for (size_t i = kPage / 2; i < kPage; ++i) EXPECT_EQ(stored[i], 0x11);
  EXPECT_EQ(pager->fault_stats().torn_writes, 1u);
}

TEST(FaultInjectingPagerTest, ClearRulesStopsInjection) {
  auto pager = MakeFaulty();
  auto id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  pager->AddRule(FaultRule{FaultKind::kPersistentIoError, FaultOp::kRead});
  std::vector<uint8_t> buf(kPage);
  EXPECT_TRUE(pager->Read(*id, buf.data()).IsIoError());
  pager->ClearRules();
  EXPECT_TRUE(pager->Read(*id, buf.data()).ok());
}

TEST(FaultToleranceTest, ChecksumLayerCatchesBitFlipThroughThePool) {
  // Full stack: BufferPool (integrity) over Fault over Mem. A silent
  // bit flip on the stored bytes must surface as Corruption, not as
  // wrong data.
  auto faulty = MakeFaulty();
  FaultInjectingPager* fault_handle = faulty.get();
  BufferPool pool(fault_handle, 2);
  PageId id;
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->mutable_data()[3] = 0xee;
    page->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  fault_handle->AddRule(
      FaultRule{FaultKind::kBitFlip, FaultOp::kRead, id});
  auto fetch = pool.Fetch(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_TRUE(fetch.status().IsCorruption());
  EXPECT_EQ(fault_handle->fault_stats().bit_flips, 1u);
  EXPECT_EQ(pool.corrupt_pages().count(id), 1u);
}

TEST(FaultToleranceTest, ChecksumLayerCatchesTornWrite) {
  auto faulty = MakeFaulty();
  FaultInjectingPager* fault_handle = faulty.get();
  BufferPool pool(fault_handle, 2);
  PageId id;
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    id = page->id();
    std::memset(page->mutable_data(), 0x33, kPage);
    page->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  // Rewrite the page; the write is torn (first half new, tail stale —
  // including the stale footer, which no longer matches).
  fault_handle->AddRule(FaultRule{FaultKind::kTornWrite, FaultOp::kWrite,
                                  id, /*after=*/0, /*every=*/1,
                                  /*limit=*/1});
  {
    auto page = pool.Fetch(id);
    ASSERT_TRUE(page.ok());
    std::memset(page->mutable_data(), 0x44, kPage - kPageFooterSize);
    page->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  auto fetch = pool.Fetch(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_TRUE(fetch.status().IsCorruption());
}

}  // namespace
}  // namespace vitri::storage
