// Edge cases of the B+-tree that the main unit and differential tests
// do not isolate: special float keys, empty bulk loads, reopen with the
// wrong pager, and scan boundaries exactly on separators.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "btree/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace vitri::btree {
namespace {

using storage::BufferPool;
using storage::MemPager;

constexpr uint32_t kValueSize = 16;

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(kValueSize, fill);
}

struct Fixture {
  explicit Fixture(size_t page_size = 256)
      : pager(page_size), pool(&pager, 64) {}
  MemPager pager;
  BufferPool pool;
};

TEST(BPlusTreeEdgeTest, EmptyBulkLoadLeavesTreeUsable) {
  Fixture fx;
  auto tree = BPlusTree::Create(&fx.pool, kValueSize);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->BulkLoad({}).ok());
  EXPECT_EQ(tree->num_entries(), 0u);
  ASSERT_TRUE(tree->Insert(1.0, 1, Value(1)).ok());
  ASSERT_TRUE(tree->ValidateInvariants().ok());
}

TEST(BPlusTreeEdgeTest, NegativeZeroAndPositiveZeroKeys) {
  Fixture fx;
  auto tree = BPlusTree::Create(&fx.pool, kValueSize);
  ASSERT_TRUE(tree.ok());
  // -0.0 == 0.0 in IEEE comparisons: same raw key, distinct rids.
  ASSERT_TRUE(tree->Insert(0.0, 1, Value(1)).ok());
  ASSERT_TRUE(tree->Insert(-0.0, 2, Value(2)).ok());
  int count = 0;
  ASSERT_TRUE(tree->RangeScan(0.0, 0.0,
                              [&](double, uint64_t, std::span<const uint8_t>) {
                                ++count;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(count, 2);
}

TEST(BPlusTreeEdgeTest, ExtremeFiniteKeys) {
  Fixture fx;
  auto tree = BPlusTree::Create(&fx.pool, kValueSize);
  ASSERT_TRUE(tree.ok());
  const double lowest = std::numeric_limits<double>::lowest();
  const double highest = std::numeric_limits<double>::max();
  ASSERT_TRUE(tree->Insert(lowest, 1, Value(1)).ok());
  ASSERT_TRUE(tree->Insert(highest, 2, Value(2)).ok());
  ASSERT_TRUE(tree->Insert(0.0, 3, Value(3)).ok());
  std::vector<double> keys;
  ASSERT_TRUE(tree->RangeScan(lowest, highest,
                              [&](double k, uint64_t, std::span<const uint8_t>) {
                                keys.push_back(k);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys.front(), lowest);
  EXPECT_EQ(keys.back(), highest);
}

TEST(BPlusTreeEdgeTest, ScanBoundsExactlyOnSeparators) {
  // Fill enough that internal separators exist, then scan with bounds
  // equal to keys that are also separators.
  Fixture fx;
  auto tree = BPlusTree::Create(&fx.pool, kValueSize);
  ASSERT_TRUE(tree.ok());
  constexpr int kN = 300;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree->Insert(i, i, Value(static_cast<uint8_t>(i))).ok());
  }
  ASSERT_GT(tree->height(), 1u);
  for (int lo = 0; lo < kN; lo += 37) {
    for (int hi = lo; hi < kN; hi += 53) {
      int count = 0;
      ASSERT_TRUE(tree->RangeScan(lo, hi,
                                  [&](double, uint64_t,
                                      std::span<const uint8_t>) {
                                    ++count;
                                    return true;
                                  })
                      .ok());
      EXPECT_EQ(count, hi - lo + 1) << lo << ".." << hi;
    }
  }
}

TEST(BPlusTreeEdgeTest, LookupOnEveryTreeHeight) {
  // Exercise lookups as the tree grows through heights 1, 2, 3.
  Fixture fx(256);
  auto tree = BPlusTree::Create(&fx.pool, kValueSize);
  ASSERT_TRUE(tree.ok());
  uint32_t last_height = tree->height();
  std::vector<uint32_t> heights_seen = {last_height};
  for (int i = 0; i < 3000 && heights_seen.size() < 3; ++i) {
    ASSERT_TRUE(tree->Insert(i * 0.5, i, Value(1)).ok());
    if (tree->height() != last_height) {
      last_height = tree->height();
      heights_seen.push_back(last_height);
      // Spot-check lookups right after each height change.
      for (int j = 0; j <= i; j += std::max(1, i / 7)) {
        auto found = tree->Lookup(j * 0.5, j, nullptr);
        ASSERT_TRUE(found.ok());
        EXPECT_TRUE(*found) << "height " << last_height << " key " << j;
      }
    }
  }
  EXPECT_GE(heights_seen.size(), 3u);
}

}  // namespace
}  // namespace vitri::btree
