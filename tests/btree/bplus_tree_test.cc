#include "btree/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace vitri::btree {
namespace {

using storage::BufferPool;
using storage::FilePager;
using storage::MemPager;

constexpr uint32_t kValueSize = 24;

std::vector<uint8_t> MakeValue(uint64_t rid) {
  std::vector<uint8_t> v(kValueSize);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>((rid * 131 + i) & 0xff);
  }
  return v;
}

struct TreeFixture {
  // Small pages so splits happen quickly in tests.
  explicit TreeFixture(size_t page_size = 512, size_t pool_pages = 64)
      : pager(page_size), pool(&pager, pool_pages) {}

  Result<BPlusTree> Create() { return BPlusTree::Create(&pool, kValueSize); }

  MemPager pager;
  BufferPool pool;
};

TEST(BPlusTreeTest, CreateEmptyTree) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_entries(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_TRUE(tree->ValidateInvariants().ok());
}

TEST(BPlusTreeTest, CreateRejectsOversizedValues) {
  MemPager pager(128);
  BufferPool pool(&pager, 8);
  EXPECT_FALSE(BPlusTree::Create(&pool, 1000).ok());
}

TEST(BPlusTreeTest, CreateRejectsNonEmptyPager) {
  MemPager pager(512);
  ASSERT_TRUE(pager.Allocate().ok());
  BufferPool pool(&pager, 8);
  EXPECT_FALSE(BPlusTree::Create(&pool, kValueSize).ok());
}

TEST(BPlusTreeTest, InsertAndLookupSingle) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(3.25, 7, MakeValue(7)).ok());
  EXPECT_EQ(tree->num_entries(), 1u);
  std::vector<uint8_t> value;
  auto found = tree->Lookup(3.25, 7, &value);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(value, MakeValue(7));
}

TEST(BPlusTreeTest, LookupMissingReturnsFalse) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(1.0, 1, MakeValue(1)).ok());
  auto found = tree->Lookup(1.0, 2, nullptr);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
  found = tree->Lookup(2.0, 1, nullptr);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
}

TEST(BPlusTreeTest, DuplicateCompositeKeyRejected) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(1.0, 1, MakeValue(1)).ok());
  EXPECT_TRUE(tree->Insert(1.0, 1, MakeValue(1)).IsInvalidArgument());
  // Same key with a different rid is fine (duplicate raw keys).
  EXPECT_TRUE(tree->Insert(1.0, 2, MakeValue(2)).ok());
}

TEST(BPlusTreeTest, ValueSizeMismatchRejected) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  std::vector<uint8_t> wrong(kValueSize - 1);
  EXPECT_TRUE(tree->Insert(1.0, 1, wrong).IsInvalidArgument());
}

TEST(BPlusTreeTest, AscendingInsertsSplitCorrectly) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree->Insert(i, i, MakeValue(i)).ok()) << i;
  }
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(kN));
  EXPECT_GT(tree->height(), 1u);
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  for (int i = 0; i < kN; ++i) {
    auto found = tree->Lookup(i, i, nullptr);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(*found) << i;
  }
}

TEST(BPlusTreeTest, DescendingInsertsSplitCorrectly) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  constexpr int kN = 500;
  for (int i = kN - 1; i >= 0; --i) {
    ASSERT_TRUE(tree->Insert(i, i, MakeValue(i)).ok()) << i;
  }
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  for (int i = 0; i < kN; ++i) {
    auto found = tree->Lookup(i, i, nullptr);
    ASSERT_TRUE(found.ok() && *found) << i;
  }
}

TEST(BPlusTreeTest, RandomInsertsMatchReference) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  Rng rng(42);
  std::map<std::pair<double, uint64_t>, uint64_t> reference;
  for (int i = 0; i < 800; ++i) {
    const double key = rng.Uniform(0.0, 100.0);
    const uint64_t rid = i;
    ASSERT_TRUE(tree->Insert(key, rid, MakeValue(rid)).ok());
    reference[{key, rid}] = rid;
  }
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  // Full scan must enumerate exactly the reference, in order.
  std::vector<std::pair<double, uint64_t>> scanned;
  auto visited = tree->RangeScan(
      -1e300, 1e300, [&](double k, uint64_t r, std::span<const uint8_t> v) {
        scanned.emplace_back(k, r);
        EXPECT_EQ(std::vector<uint8_t>(v.begin(), v.end()), MakeValue(r));
        return true;
      });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, reference.size());
  ASSERT_EQ(scanned.size(), reference.size());
  size_t i = 0;
  for (const auto& [k, v] : reference) {
    EXPECT_EQ(scanned[i], k) << i;
    ++i;
  }
}

TEST(BPlusTreeTest, RangeScanSubrange) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree->Insert(i, i, MakeValue(i)).ok());
  }
  std::vector<double> keys;
  auto visited = tree->RangeScan(
      49.5, 60.0, [&](double k, uint64_t, std::span<const uint8_t>) {
        keys.push_back(k);
        return true;
      });
  ASSERT_TRUE(visited.ok());
  ASSERT_EQ(keys.size(), 11u);  // 50..60 inclusive.
  EXPECT_EQ(keys.front(), 50.0);
  EXPECT_EQ(keys.back(), 60.0);
}

TEST(BPlusTreeTest, RangeScanBoundsInclusive) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree->Insert(i, i, MakeValue(i)).ok());
  }
  std::vector<double> keys;
  ASSERT_TRUE(tree
                  ->RangeScan(10.0, 12.0,
                              [&](double k, uint64_t,
                                  std::span<const uint8_t>) {
                                keys.push_back(k);
                                return true;
                              })
                  .ok());
  EXPECT_EQ(keys, (std::vector<double>{10.0, 11.0, 12.0}));
}

TEST(BPlusTreeTest, RangeScanEmptyAndInverted) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(5.0, 1, MakeValue(1)).ok());
  auto visited = tree->RangeScan(6.0, 7.0, [](double, uint64_t,
                                              std::span<const uint8_t>) {
    return true;
  });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, 0u);
  visited = tree->RangeScan(7.0, 6.0, [](double, uint64_t,
                                         std::span<const uint8_t>) {
    return true;
  });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, 0u);
  // A NaN bound compares false with every key, so it names no range: the
  // scan visits nothing instead of walking from its descent point to the
  // end of the leaf chain.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [lo, hi] : {std::pair{kNan, 6.0}, std::pair{4.0, kNan},
                               std::pair{kNan, kNan}}) {
    visited = tree->RangeScan(
        lo, hi, [](double, uint64_t, std::span<const uint8_t>) {
          return true;
        });
    ASSERT_TRUE(visited.ok());
    EXPECT_EQ(*visited, 0u) << "[" << lo << ", " << hi << "]";
  }
}

TEST(BPlusTreeTest, RangeScanEarlyStop) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree->Insert(i, i, MakeValue(i)).ok());
  }
  int count = 0;
  auto visited = tree->RangeScan(
      0.0, 99.0, [&](double, uint64_t, std::span<const uint8_t>) {
        return ++count < 10;
      });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, 10u);
}

TEST(BPlusTreeTest, DuplicateRawKeysAllScanned) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  // 300 entries with only 3 distinct raw keys.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree->Insert(i % 3, i, MakeValue(i)).ok());
  }
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  for (int key = 0; key < 3; ++key) {
    int count = 0;
    ASSERT_TRUE(tree
                    ->RangeScan(key, key,
                                [&](double, uint64_t,
                                    std::span<const uint8_t>) {
                                  ++count;
                                  return true;
                                })
                    .ok());
    EXPECT_EQ(count, 100) << "key=" << key;
  }
}

TEST(BPlusTreeTest, BulkLoadMatchesScan) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  std::vector<Entry> entries;
  for (int i = 0; i < 1000; ++i) {
    Entry e;
    e.key = i * 0.5;
    e.rid = i;
    e.value = MakeValue(i);
    entries.push_back(std::move(e));
  }
  ASSERT_TRUE(tree->BulkLoad(entries).ok());
  EXPECT_EQ(tree->num_entries(), 1000u);
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  size_t i = 0;
  auto visited = tree->RangeScan(
      -1e300, 1e300, [&](double k, uint64_t r, std::span<const uint8_t>) {
        EXPECT_EQ(k, entries[i].key);
        EXPECT_EQ(r, entries[i].rid);
        ++i;
        return true;
      });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, 1000u);
}

TEST(BPlusTreeTest, BulkLoadRejectsUnsorted) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  std::vector<Entry> entries(2);
  entries[0] = Entry{2.0, 0, MakeValue(0)};
  entries[1] = Entry{1.0, 1, MakeValue(1)};
  EXPECT_TRUE(tree->BulkLoad(entries).IsInvalidArgument());
}

TEST(BPlusTreeTest, BulkLoadRejectsNonEmptyTree) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(1.0, 1, MakeValue(1)).ok());
  std::vector<Entry> entries = {Entry{2.0, 2, MakeValue(2)}};
  EXPECT_TRUE(tree->BulkLoad(entries).IsInvalidArgument());
}

TEST(BPlusTreeTest, BulkLoadThenInsertAndDelete) {
  TreeFixture fx;
  auto tree = fx.Create();
  ASSERT_TRUE(tree.ok());
  std::vector<Entry> entries;
  for (int i = 0; i < 300; ++i) {
    entries.push_back(Entry{static_cast<double>(2 * i), static_cast<uint64_t>(i),
                            MakeValue(i)});
  }
  ASSERT_TRUE(tree->BulkLoad(entries).ok());
  // Insert odd keys into the gaps.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        tree->Insert(2 * i + 1, 1000 + i, MakeValue(1000 + i)).ok());
  }
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  EXPECT_EQ(tree->num_entries(), 600u);
}

TEST(BPlusTreeTest, PersistsAcrossReopenWithFilePager) {
  const std::string path =
      std::string(::testing::TempDir()) + "/bptree_persist.db";
  std::remove(path.c_str());
  {
    auto pager = FilePager::Open(path, 512);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 64);
    auto tree = BPlusTree::Create(&pool, kValueSize);
    ASSERT_TRUE(tree.ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(tree->Insert(i, i, MakeValue(i)).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  {
    auto pager = FilePager::Open(path, 512);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 64);
    auto tree = BPlusTree::Open(&pool);
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(tree->num_entries(), 300u);
    ASSERT_TRUE(tree->ValidateInvariants().ok());
    for (int i = 0; i < 300; ++i) {
      std::vector<uint8_t> value;
      auto found = tree->Lookup(i, i, &value);
      ASSERT_TRUE(found.ok() && *found) << i;
      EXPECT_EQ(value, MakeValue(i));
    }
  }
  std::remove(path.c_str());
}

TEST(BPlusTreeTest, OpenRejectsGarbage) {
  MemPager pager(512);
  ASSERT_TRUE(pager.Allocate().ok());
  BufferPool pool(&pager, 8);
  auto tree = BPlusTree::Open(&pool);
  EXPECT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCorruption());
}

TEST(BPlusTreeTest, OpenRejectsAMetaPageNamingAFreePage) {
  // The tree never frees a page, so its meta page's free-list slot
  // (byte 32) must hold kInvalidPageId.
  TreeFixture fx;
  {
    auto tree = fx.Create();
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(tree->Insert(1.0, 1, MakeValue(1)).ok());
  }
  {
    auto meta = fx.pool.Fetch(0);
    ASSERT_TRUE(meta.ok());
    EncodeU32(meta->mutable_data() + 32, 1);
    meta->MarkDirty();
  }
  auto tree = BPlusTree::Open(&fx.pool);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCorruption()) << tree.status().ToString();
}

TEST(BPlusTreeTest, WorksWithTinyBufferPool) {
  // Pool barely larger than the tree height: exercises eviction under
  // pinned paths.
  MemPager pager(512);
  BufferPool pool(&pager, 8);
  auto tree = BPlusTree::Create(&pool, kValueSize);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree->Insert(i, i, MakeValue(i)).ok()) << i;
  }
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  int count = 0;
  ASSERT_TRUE(tree
                  ->RangeScan(-1e300, 1e300,
                              [&](double, uint64_t, std::span<const uint8_t>) {
                                ++count;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(count, 2000);
}

}  // namespace
}  // namespace vitri::btree
