#include "storage/io_stats.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vitri::storage {
namespace {

TEST(IoStatsTest, CopyAndSubtractSnapshotCounters) {
  IoStats a;
  a.logical_reads = 10;
  a.cache_hits = 4;
  a.physical_reads = 6;
  a.physical_writes = 3;
  a.allocations = 2;
  a.checksum_failures = 1;
  a.evictions = 5;

  const IoStats copy = a;
  EXPECT_EQ(copy.logical_reads, 10u);
  EXPECT_EQ(copy.evictions, 5u);

  IoStats b = a;
  b.logical_reads += 7;
  b.cache_hits += 2;
  const IoStats delta = b - a;
  EXPECT_EQ(delta.logical_reads, 7u);
  EXPECT_EQ(delta.cache_hits, 2u);
  EXPECT_EQ(delta.physical_reads, 0u);

  b.Reset();
  EXPECT_EQ(b.logical_reads, 0u);
  EXPECT_EQ(b.evictions, 0u);
}

// Counter increments are atomic, so hammering the same IoStats from many
// threads (a shard's counters under concurrent queries) is race-free
// (this test is the tsan canary) and loses no increments.
TEST(IoStatsTest, ConcurrentIncrementsAreAtomicAndLossless) {
  IoStats stats;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ++stats.logical_reads;
        if (i % 2 == 0) ++stats.cache_hits;
        if (i % 16 == 0) ++stats.physical_reads;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(stats.logical_reads, kThreads * kPerThread);
  EXPECT_EQ(stats.cache_hits, kThreads * kPerThread / 2);
  EXPECT_EQ(stats.physical_reads, kThreads * kPerThread / 16);
}

// Copies must also be clean when concurrent *readers* snapshot the
// counters mid-flight (what io_stats() does while a batch runs).
TEST(IoStatsTest, ConcurrentSnapshotsNeverTearOrRace) {
  IoStats stats;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const IoStats snap = stats;
      // Monotone counters: any snapshot field is bounded by the final
      // total, never garbage.
      EXPECT_LE(snap.logical_reads, 100000u);
      (void)(stats - snap);
    }
  });
  for (uint64_t i = 0; i < 100000; ++i) ++stats.logical_reads;
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(stats.logical_reads, 100000u);
}

TEST(IoSnapshotTest, SnapshotCapturesAndSubtracts) {
  IoStats stats;
  stats.logical_reads = 10;
  stats.cache_hits = 4;
  stats.physical_reads = 6;
  stats.physical_writes = 3;
  stats.allocations = 2;
  stats.checksum_failures = 1;
  stats.evictions = 5;

  const IoSnapshot before = stats.Snapshot();
  EXPECT_EQ(before.logical_reads, 10u);
  EXPECT_EQ(before.evictions, 5u);

  stats.logical_reads += 7;
  stats.physical_writes += 1;
  const IoSnapshot delta = stats.Snapshot() - before;
  EXPECT_EQ(delta.logical_reads, 7u);
  EXPECT_EQ(delta.physical_writes, 1u);
  EXPECT_EQ(delta.cache_hits, 0u);
  EXPECT_EQ(delta, delta);
  EXPECT_FALSE(delta == before);
  EXPECT_FALSE(delta.ToString().empty());
}

}  // namespace
}  // namespace vitri::storage
