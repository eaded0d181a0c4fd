// Concurrency stress tests for the BufferPool, designed to run under
// ThreadSanitizer (tsan preset, CI tsan-stress job): readers and writers
// hammer a pool far smaller than the page set, forcing constant
// eviction, write-back, and re-fetch while pins race with the clock
// replacer. The PoolShard suites force multi-shard pools (explicit
// counts, immune to the VITRI_POOL_SHARDS override) so cross-shard
// traffic and the shard-folded stats reads run under the race detector.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace vitri::storage {
namespace {

constexpr size_t kPageSize = 256;

// Creates `num_pages` pages, each stamped with its id at offset 0, and
// flushes them so every page carries a valid footer.
void SeedPages(BufferPool* pool, size_t num_pages) {
  for (size_t i = 0; i < num_pages; ++i) {
    auto page = pool->New();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EncodeU64(page->mutable_data(), page->id());
    EncodeU64(page->mutable_data() + 8, 0);  // Writer counter.
    page->MarkDirty();
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  ASSERT_TRUE(pool->EvictAll().ok());
}

TEST(BufferPoolConcurrencyTest, ReadersAndWritersUnderEviction) {
  constexpr size_t kPages = 64;
  constexpr size_t kCapacity = 8;  // Small pool: eviction on most fetches.
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kIters = 400;

  MemPager pager(kPageSize);
  BufferPool pool(&pager, kCapacity);
  SeedPages(&pool, kPages);

  std::atomic<uint64_t> exhausted{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&pool, &exhausted, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      for (int i = 0; i < kIters; ++i) {
        const PageId id = static_cast<PageId>(rng.Index(kPages));
        auto page = pool.Fetch(id);
        if (!page.ok()) {
          // A fully pinned pool is a legal transient outcome when every
          // frame is held by a peer; anything else is a real failure.
          ASSERT_TRUE(page.status().IsResourceExhausted())
              << page.status().ToString();
          ++exhausted;
          std::this_thread::yield();
          continue;
        }
        EXPECT_EQ(DecodeU64(page->data()), id);
      }
    });
  }

  // Writers own disjoint pages (writer w mutates pages with
  // id % kWriters == w), so page-content writes never race each other
  // or the id stamp readers check.
  std::vector<uint64_t> writes_done(kWriters, 0);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&pool, &exhausted, &writes_done, w] {
      Rng rng(2000 + static_cast<uint64_t>(w));
      for (int i = 0; i < kIters; ++i) {
        const PageId id = static_cast<PageId>(
            rng.Index(kPages / kWriters) * kWriters +
            static_cast<size_t>(w));
        auto page = pool.Fetch(id);
        if (!page.ok()) {
          ASSERT_TRUE(page.status().IsResourceExhausted())
              << page.status().ToString();
          ++exhausted;
          std::this_thread::yield();
          continue;
        }
        EXPECT_EQ(DecodeU64(page->data()), id);
        EncodeU64(page->mutable_data() + 8,
                  DecodeU64(page->data() + 8) + 1);
        page->MarkDirty();
        ++writes_done[static_cast<size_t>(w)];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(pool.ValidateInvariants().ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  // Every successful write survived eviction/write-back round trips.
  uint64_t counted = 0;
  for (size_t id = 0; id < kPages; ++id) {
    auto page = pool.Fetch(id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_EQ(DecodeU64(page->data()), id);
    counted += DecodeU64(page->data() + 8);
  }
  uint64_t expected = 0;
  for (uint64_t w : writes_done) expected += w;
  EXPECT_EQ(counted, expected);
  EXPECT_TRUE(pool.ValidateInvariants().ok());

  // Stats stayed coherent under contention.
  EXPECT_LE(pool.stats().cache_hits, pool.stats().logical_reads);
}

TEST(BufferPoolConcurrencyTest, PinUnpinRacesOnOnePage) {
  MemPager pager(kPageSize);
  BufferPool pool(&pager, 4);
  SeedPages(&pool, 2);

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kIters; ++i) {
        auto page = pool.Fetch(0);
        ASSERT_TRUE(page.ok()) << page.status().ToString();
        EXPECT_EQ(DecodeU64(page->data()), 0u);
        // Release in the loop body, so pins and unpins interleave.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(pool.ValidateInvariants().ok());
  // The page stayed resident the whole time: one physical read total
  // (New() allocates without reading, so seeding contributes none).
  EXPECT_EQ(pool.stats().physical_reads, 1u);
}

TEST(BufferPoolConcurrencyTest, ConcurrentEvictAllAndFetches) {
  constexpr size_t kPages = 32;
  MemPager pager(kPageSize);
  BufferPool pool(&pager, 8);
  SeedPages(&pool, kPages);

  std::atomic<bool> stop{false};
  std::thread evictor([&pool, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(pool.EvictAll().ok());  // Skips pinned frames.
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&pool, r] {
      Rng rng(3000 + static_cast<uint64_t>(r));
      for (int i = 0; i < 500; ++i) {
        const PageId id = static_cast<PageId>(rng.Index(kPages));
        auto page = pool.Fetch(id);
        if (!page.ok()) {
          ASSERT_TRUE(page.status().IsResourceExhausted())
              << page.status().ToString();
          continue;
        }
        EXPECT_EQ(DecodeU64(page->data()), id);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  evictor.join();
  EXPECT_TRUE(pool.ValidateInvariants().ok());
}

TEST(PoolShardConcurrencyTest, CrossShardReadersAndWritersUnderEviction) {
  constexpr size_t kPages = 64;
  constexpr size_t kCapacity = 16;
  constexpr size_t kShards = 4;
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kIters = 400;

  MemPager pager(kPageSize);
  BufferPoolOptions options;
  options.shards = kShards;
  BufferPool pool(&pager, kCapacity, options);
  ASSERT_EQ(pool.num_shards(), kShards);
  SeedPages(&pool, kPages);

  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&pool, r] {
      Rng rng(5000 + static_cast<uint64_t>(r));
      for (int i = 0; i < kIters; ++i) {
        const PageId id = static_cast<PageId>(rng.Index(kPages));
        auto page = pool.Fetch(id);
        if (!page.ok()) {
          ASSERT_TRUE(page.status().IsResourceExhausted())
              << page.status().ToString();
          std::this_thread::yield();
          continue;
        }
        EXPECT_EQ(DecodeU64(page->data()), id);
      }
    });
  }
  std::vector<uint64_t> writes_done(kWriters, 0);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&pool, &writes_done, w] {
      Rng rng(6000 + static_cast<uint64_t>(w));
      for (int i = 0; i < kIters; ++i) {
        const PageId id = static_cast<PageId>(
            rng.Index(kPages / kWriters) * kWriters +
            static_cast<size_t>(w));
        auto page = pool.Fetch(id);
        if (!page.ok()) {
          ASSERT_TRUE(page.status().IsResourceExhausted())
              << page.status().ToString();
          std::this_thread::yield();
          continue;
        }
        EXPECT_EQ(DecodeU64(page->data()), id);
        EncodeU64(page->mutable_data() + 8,
                  DecodeU64(page->data() + 8) + 1);
        page->MarkDirty();
        ++writes_done[static_cast<size_t>(w)];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(pool.ValidateInvariants().ok());
  uint64_t counted = 0;
  for (size_t id = 0; id < kPages; ++id) {
    auto page = pool.Fetch(id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_EQ(DecodeU64(page->data()), id);
    counted += DecodeU64(page->data() + 8);
  }
  uint64_t expected = 0;
  for (uint64_t w : writes_done) expected += w;
  EXPECT_EQ(counted, expected);
}

// Satellite regression: stats() folds per-shard atomics into plain
// integers, so a reader polling totals while fetchers run must never
// observe a torn or impossible combination (hits > fetches), and the
// final fold must equal the per-shard sum exactly.
TEST(PoolShardConcurrencyTest, StatsFoldNeverTearsUnderConcurrentFetches) {
  constexpr size_t kPages = 32;
  MemPager pager(kPageSize);
  BufferPoolOptions options;
  options.shards = 4;
  BufferPool pool(&pager, 16, options);
  SeedPages(&pool, kPages);

  std::atomic<bool> stop{false};
  std::thread poller([&pool, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const IoSnapshot s = pool.StatsSnapshot();
      EXPECT_LE(s.cache_hits, s.logical_reads);
      const IoStats folded = pool.stats();
      EXPECT_LE(folded.cache_hits, folded.logical_reads);
    }
  });
  std::vector<std::thread> fetchers;
  for (int r = 0; r < 4; ++r) {
    fetchers.emplace_back([&pool, r] {
      Rng rng(8000 + static_cast<uint64_t>(r));
      for (int i = 0; i < 1000; ++i) {
        const PageId id = static_cast<PageId>(rng.Index(kPages));
        auto page = pool.Fetch(id);
        if (!page.ok()) {
          ASSERT_TRUE(page.status().IsResourceExhausted())
              << page.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : fetchers) t.join();
  stop.store(true, std::memory_order_release);
  poller.join();

  // Quiescent: the fold must match the per-shard sum field for field.
  IoSnapshot per_shard_sum;
  for (const IoSnapshot& s : pool.ShardSnapshots()) {
    per_shard_sum = per_shard_sum + s;
  }
  EXPECT_EQ(per_shard_sum, pool.StatsSnapshot());
  EXPECT_EQ(per_shard_sum.logical_reads, 4u * 1000u);
}

}  // namespace
}  // namespace vitri::storage
