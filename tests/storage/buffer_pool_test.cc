#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "storage/page_footer.h"
#include "storage/pager.h"

namespace vitri::storage {
namespace {

TEST(BufferPoolTest, NewPageIsPinnedAndZeroed) {
  MemPager pager(128);
  BufferPool pool(&pager, 4);
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  for (size_t i = 0; i < 128; ++i) EXPECT_EQ(page->data()[i], 0);
  EXPECT_EQ(pool.stats().allocations, 1u);
}

TEST(BufferPoolTest, FetchCountsLogicalAndPhysical) {
  MemPager pager(128);
  BufferPool pool(&pager, 4);
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  const IoStats before = pool.stats();
  {
    auto page = pool.Fetch(0);
    ASSERT_TRUE(page.ok());
  }
  {
    auto page = pool.Fetch(0);  // Cached now.
    ASSERT_TRUE(page.ok());
  }
  const IoStats delta = pool.stats() - before;
  EXPECT_EQ(delta.logical_reads, 2u);
  EXPECT_EQ(delta.physical_reads, 1u);
  EXPECT_EQ(delta.cache_hits, 1u);
}

TEST(BufferPoolTest, DirtyPageIsWrittenBackOnEviction) {
  MemPager pager(64);
  BufferPool pool(&pager, 2);
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    std::memset(page->mutable_data(), 0xab, 64);
    page->MarkDirty();
  }
  // Fill the pool to force eviction of page 0.
  for (int i = 0; i < 3; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
  }
  std::vector<uint8_t> raw(64);
  ASSERT_TRUE(pager.Read(0, raw.data()).ok());
  // The payload region round-trips; the last bytes hold the stamped
  // integrity footer.
  for (size_t i = 0; i < 64 - kPageFooterSize; ++i) {
    EXPECT_EQ(raw[i], 0xab) << "byte " << i;
  }
  EXPECT_TRUE(PageIsStamped(raw.data(), raw.size()));
  EXPECT_TRUE(VerifyPageFooter(raw.data(), raw.size(), 0).ok());
}

TEST(BufferPoolTest, CorruptedPageFailsFetchAndIsQuarantined) {
  MemPager pager(128);
  BufferPool pool(&pager, 2);
  PageId id;
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->mutable_data()[17] = 99;
    page->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());

  // Flip one payload bit underneath the pool.
  std::vector<uint8_t> raw(128);
  ASSERT_TRUE(pager.Read(id, raw.data()).ok());
  raw[17] ^= 0x01;
  ASSERT_TRUE(pager.Write(id, raw.data()).ok());

  auto fetch = pool.Fetch(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_TRUE(fetch.status().IsCorruption());
  EXPECT_EQ(pool.stats().checksum_failures, 1u);
  ASSERT_EQ(pool.corrupt_pages().size(), 1u);
  EXPECT_EQ(*pool.corrupt_pages().begin(), id);

  pool.ClearCorruptPages();
  EXPECT_TRUE(pool.corrupt_pages().empty());
}

TEST(BufferPoolTest, MisdirectedPageFailsChecksum) {
  // The footer checksum is seeded with the page id, so serving page A's
  // bytes for page B is detected even though the bytes are intact.
  MemPager pager(128);
  BufferPool pool(&pager, 4);
  PageId a, b;
  {
    auto pa = pool.New();
    ASSERT_TRUE(pa.ok());
    a = pa->id();
    pa->mutable_data()[0] = 1;
    pa->MarkDirty();
  }
  {
    auto pb = pool.New();
    ASSERT_TRUE(pb.ok());
    b = pb->id();
    pb->mutable_data()[0] = 2;
    pb->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  std::vector<uint8_t> raw(128);
  ASSERT_TRUE(pager.Read(a, raw.data()).ok());
  ASSERT_TRUE(pager.Write(b, raw.data()).ok());
  auto fetch = pool.Fetch(b);
  ASSERT_FALSE(fetch.ok());
  EXPECT_TRUE(fetch.status().IsCorruption());
}

TEST(BufferPoolTest, UnstampedPagesAreAcceptedUnverified) {
  // Pages allocated directly in the pager (all zero, no footer) must
  // stay readable: they predate the integrity layer.
  MemPager pager(64);
  auto id = pager.Allocate();
  ASSERT_TRUE(id.ok());
  BufferPool pool(&pager, 2);
  auto fetch = pool.Fetch(*id);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(pool.stats().checksum_failures, 0u);
}

TEST(BufferPoolTest, CleanEvictionSkipsWrite) {
  MemPager pager(64);
  BufferPool pool(&pager, 2);
  for (int i = 0; i < 2; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  const uint64_t writes_before = pool.stats().physical_writes;
  // Re-fetch page 0 (clean), then evict it by fetching others.
  { auto p = pool.Fetch(0); ASSERT_TRUE(p.ok()); }
  ASSERT_TRUE(pool.EvictAll().ok());
  EXPECT_EQ(pool.stats().physical_writes, writes_before);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  MemPager pager(64);
  BufferPool pool(&pager, 2);
  auto pinned = pool.New();
  ASSERT_TRUE(pinned.ok());
  auto second = pool.New();
  ASSERT_TRUE(second.ok());
  // Pool full with both pinned: a third page must fail.
  auto third = pool.New();
  EXPECT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsResourceExhausted());
  // Releasing one allows progress.
  second->Release();
  auto fourth = pool.New();
  EXPECT_TRUE(fourth.ok());
}

TEST(BufferPoolTest, ClockEvictsUnreferencedBeforeReferenced) {
  MemPager pager(64);
  BufferPool pool(&pager, 2);
  for (int i = 0; i < 2; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
  }
  // Both candidates carry the referenced bit; the first eviction sweeps
  // them clear (second chance) and claims the frame holding page 0.
  { auto p = pool.New(); ASSERT_TRUE(p.ok()); }  // Page 2 evicts page 0.
  // Page 2's release re-armed its referenced bit; page 1's stayed clear
  // since the sweep. The next victim must be page 1, not the
  // just-referenced page 2.
  { auto p = pool.New(); ASSERT_TRUE(p.ok()); }  // Page 3 evicts page 1.
  const IoStats before = pool.stats();
  { auto p = pool.Fetch(2); ASSERT_TRUE(p.ok()); }
  EXPECT_EQ((pool.stats() - before).cache_hits, 1u);  // 2 still resident.
  const IoStats before2 = pool.stats();
  { auto p = pool.Fetch(1); ASSERT_TRUE(p.ok()); }
  EXPECT_EQ((pool.stats() - before2).physical_reads, 1u);  // 1 was evicted.
  EXPECT_GE((pool.stats() - before).evictions, 1u);
}

TEST(BufferPoolTest, MovePageRefTransfersPin) {
  MemPager pager(64);
  BufferPool pool(&pager, 2);
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  PageRef moved = std::move(*page);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  // After release the frame is evictable; filling the pool succeeds.
  for (int i = 0; i < 3; ++i) {
    auto p = pool.New();
    ASSERT_TRUE(p.ok());
    p->Release();
  }
}

TEST(BufferPoolTest, WritesVisibleAcrossEviction) {
  MemPager pager(32);
  BufferPool pool(&pager, 1);
  PageId id;
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->mutable_data()[5] = 42;
    page->MarkDirty();
  }
  // Evict by allocating another page in a capacity-1 pool.
  {
    auto other = pool.New();
    ASSERT_TRUE(other.ok());
  }
  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[5], 42);
}

/// MemPager with a Sync() call counter, to observe FlushAll's
/// durability behavior.
class SyncCountingPager final : public Pager {
 public:
  explicit SyncCountingPager(size_t page_size) : Pager(page_size),
                                                 base_(page_size) {}
  PageId num_pages() const override { return base_.num_pages(); }
  Result<PageId> Allocate() override { return base_.Allocate(); }
  Status Read(PageId id, uint8_t* out) override {
    return base_.Read(id, out);
  }
  Status Write(PageId id, const uint8_t* src) override {
    return base_.Write(id, src);
  }
  Status Sync() override {
    ++syncs;
    return base_.Sync();
  }
  int syncs = 0;

 private:
  MemPager base_;
};

TEST(BufferPoolTest, FlushAllSyncsThePagerByDefault) {
  SyncCountingPager pager(32);
  BufferPool pool(&pager, 4);
  EXPECT_TRUE(pool.options().sync_on_flush);
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    page->mutable_data()[0] = 1;
    page->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pager.syncs, 1);
}

TEST(BufferPoolTest, SyncOnFlushFalseSkipsPagerSync) {
  SyncCountingPager pager(32);
  BufferPoolOptions options;
  options.sync_on_flush = false;
  BufferPool pool(&pager, 4, options);
  {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    page->mutable_data()[0] = 1;
    page->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // The dirty page still reached the pager; only the sync was skipped.
  EXPECT_EQ(pager.syncs, 0);
  std::vector<uint8_t> buf(32);
  ASSERT_TRUE(pager.Read(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 1);
}

TEST(BufferPoolShardingTest, ExplicitShardCountWinsAndIsClamped) {
  MemPager pager(64);
  BufferPoolOptions options;
  options.shards = 16;
  BufferPool pool(&pager, 4, options);  // More shards than frames.
  EXPECT_EQ(pool.num_shards(), 4u);     // Clamped: every shard owns >= 1.
  BufferPoolOptions two;
  two.shards = 2;
  BufferPool pool2(&pager, 64, two);
  EXPECT_EQ(pool2.num_shards(), 2u);
}

/// Saves/clears VITRI_POOL_SHARDS around a scope, so the auto-resolution
/// tests are deterministic even on the one-shard CI leg that exports it.
class ScopedShardEnv {
 public:
  explicit ScopedShardEnv(const char* value) {
    const char* old = std::getenv("VITRI_POOL_SHARDS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      setenv("VITRI_POOL_SHARDS", value, /*overwrite=*/1);
    } else {
      unsetenv("VITRI_POOL_SHARDS");
    }
  }
  ~ScopedShardEnv() {
    if (had_) {
      setenv("VITRI_POOL_SHARDS", saved_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("VITRI_POOL_SHARDS");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(BufferPoolShardingTest, AutoShardCountKeepsTinyPoolsSingleShard) {
  ScopedShardEnv env(nullptr);
  MemPager pager(64);
  BufferPool small(&pager, 8);
  EXPECT_EQ(small.num_shards(), 1u);
  BufferPool large(&pager, 256);
  EXPECT_EQ(large.num_shards(), 8u);  // capacity/8 clamped to [1, 8].
}

TEST(BufferPoolShardingTest, EnvOverridesAutoButNotExplicitCounts) {
  ScopedShardEnv env("2");
  MemPager pager(64);
  BufferPool auto_pool(&pager, 256);
  EXPECT_EQ(auto_pool.num_shards(), 2u);  // Env replaces the auto pick.
  BufferPoolOptions options;
  options.shards = 4;
  BufferPool explicit_pool(&pager, 256, options);
  EXPECT_EQ(explicit_pool.num_shards(), 4u);  // Explicit always wins.
}

TEST(BufferPoolShardingTest, MalformedEnvFallsBackToAuto) {
  // "-1" must not wrap to a huge count (one frame per shard).
  for (const char* value : {"banana", "-1", "0"}) {
    ScopedShardEnv env(value);
    MemPager pager(64);
    BufferPool pool(&pager, 256);
    EXPECT_EQ(pool.num_shards(), 8u) << value;
  }
}

TEST(BufferPoolShardingTest, PagesLandInTheirHomeShardAndStatsFold) {
  MemPager pager(64);
  BufferPoolOptions options;
  options.shards = 4;
  BufferPool pool(&pager, 16, options);
  for (int i = 0; i < 12; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  for (PageId id = 0; id < 12; ++id) {
    auto page = pool.Fetch(id);
    ASSERT_TRUE(page.ok());
  }
  ASSERT_TRUE(pool.ValidateInvariants().ok());
  // Ids are spread round-robin, so each of the 4 shards served 3 pages.
  const std::vector<IoSnapshot> shards = pool.ShardSnapshots();
  ASSERT_EQ(shards.size(), 4u);
  IoSnapshot folded;
  for (const IoSnapshot& s : shards) {
    EXPECT_EQ(s.logical_reads, 3u);
    EXPECT_EQ(s.physical_reads, 3u);
    folded = folded + s;
  }
  EXPECT_EQ(folded, pool.StatsSnapshot());
  EXPECT_EQ(pool.stats().logical_reads, 12u);
}

}  // namespace
}  // namespace vitri::storage
