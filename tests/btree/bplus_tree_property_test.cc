#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace vitri::btree {
namespace {

using storage::BufferPool;
using storage::MemPager;

// Randomized differential test: the tree must behave exactly like a
// std::map over composite keys under a mixed insert/scan workload,
// across page sizes, value sizes, and workload shapes.
class BPlusTreeDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<size_t /*page_size*/, uint32_t /*value_size*/,
                     int /*ops*/, double /*scan_ratio*/,
                     uint64_t /*seed*/>> {};

std::vector<uint8_t> ValueFor(uint64_t rid, uint32_t size) {
  std::vector<uint8_t> v(size);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>((rid * 2654435761u + i * 97) & 0xff);
  }
  return v;
}

// Scans [lo, hi] and expects exactly the model's entries in that range,
// in order, with their values.
void ExpectScanMatchesModel(
    const BPlusTree& tree,
    const std::map<std::pair<double, uint64_t>, std::vector<uint8_t>>& model,
    double lo, double hi) {
  std::vector<std::pair<double, uint64_t>> got;
  ASSERT_TRUE(tree.RangeScan(lo, hi,
                             [&](double k, uint64_t r,
                                 std::span<const uint8_t> v) {
                               got.emplace_back(k, r);
                               EXPECT_EQ(std::vector<uint8_t>(v.begin(),
                                                              v.end()),
                                         model.at({k, r}));
                               return true;
                             })
                  .ok());
  std::vector<std::pair<double, uint64_t>> expected;
  for (auto it = model.lower_bound({lo, 0});
       it != model.end() && it->first.first <= hi; ++it) {
    expected.push_back(it->first);
  }
  EXPECT_EQ(got, expected) << "scan [" << lo << "," << hi << "]";
}

TEST_P(BPlusTreeDifferentialTest, MatchesReferenceModel) {
  const auto [page_size, value_size, ops, scan_ratio, seed] = GetParam();
  MemPager pager(page_size);
  BufferPool pool(&pager, 64);
  auto tree = BPlusTree::Create(&pool, value_size);
  ASSERT_TRUE(tree.ok());

  Rng rng(seed);
  std::map<std::pair<double, uint64_t>, std::vector<uint8_t>> model;
  uint64_t next_rid = 0;

  for (int op = 0; op < ops; ++op) {
    // Every 97th op scans too, so insert-only workloads are checked
    // mid-run as well.
    if (!model.empty() && (op % 97 == 96 || rng.Bernoulli(scan_ratio))) {
      // A random range scan must agree with the model exactly.
      double lo = rng.Uniform(-1.0, 11.0);
      double hi = rng.Uniform(-1.0, 11.0);
      if (lo > hi) std::swap(lo, hi);
      ExpectScanMatchesModel(*tree, model, lo, hi);
    } else {
      // Keys drawn from a small domain to force duplicates and skew.
      const double key = std::floor(rng.Uniform(0.0, 40.0)) * 0.25;
      const uint64_t rid = next_rid++;
      const auto value = ValueFor(rid, value_size);
      ASSERT_TRUE(tree->Insert(key, rid, value).ok());
      model[{key, rid}] = value;
    }
    EXPECT_EQ(tree->num_entries(), model.size());

    if (op % 64 == 63) {
      ASSERT_TRUE(tree->ValidateInvariants().ok()) << "op " << op;
    }
  }

  // Final full check.
  ASSERT_TRUE(tree->ValidateInvariants().ok());
  std::vector<std::pair<double, uint64_t>> all;
  ASSERT_TRUE(tree->RangeScan(-1e300, 1e300,
                              [&](double k, uint64_t r,
                                  std::span<const uint8_t>) {
                                all.emplace_back(k, r);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(all.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(all[i], k);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BPlusTreeDifferentialTest,
    ::testing::Values(
        // Small pages, small values: deep trees, frequent splits.
        std::make_tuple(size_t{256}, uint32_t{8}, 1500, 0.35, uint64_t{1}),
        std::make_tuple(size_t{256}, uint32_t{8}, 1500, 0.55, uint64_t{2}),
        // Mid pages, medium values.
        std::make_tuple(size_t{512}, uint32_t{40}, 1200, 0.30, uint64_t{3}),
        std::make_tuple(size_t{512}, uint32_t{40}, 1200, 0.50, uint64_t{4}),
        // 4K pages with ViTri-sized payloads (64-d): low leaf fan-out.
        std::make_tuple(size_t{4096}, uint32_t{528}, 900, 0.30, uint64_t{5}),
        std::make_tuple(size_t{4096}, uint32_t{528}, 900, 0.60, uint64_t{6}),
        // Insert-only and scan-heavy extremes.
        std::make_tuple(size_t{512}, uint32_t{16}, 2000, 0.0, uint64_t{7}),
        std::make_tuple(size_t{512}, uint32_t{16}, 1600, 0.75, uint64_t{8})));

// Bulk-load equivalence: loading N sorted entries gives the same logical
// contents as inserting them one by one.
class BulkLoadEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BulkLoadEquivalenceTest, SameContentsAsIncrementalInsert) {
  const auto [n, fill] = GetParam();
  constexpr uint32_t kValueSize = 32;

  std::vector<Entry> entries;
  Rng rng(99);
  double key = 0.0;
  for (int i = 0; i < n; ++i) {
    key += rng.Uniform(0.0, 1.0);
    entries.push_back(
        Entry{key, static_cast<uint64_t>(i), ValueFor(i, kValueSize)});
  }

  MemPager pager_a(512);
  BufferPool pool_a(&pager_a, 64);
  auto bulk = BPlusTree::Create(&pool_a, kValueSize);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE(bulk->BulkLoad(entries, fill).ok());
  ASSERT_TRUE(bulk->ValidateInvariants().ok());

  MemPager pager_b(512);
  BufferPool pool_b(&pager_b, 64);
  auto incremental = BPlusTree::Create(&pool_b, kValueSize);
  ASSERT_TRUE(incremental.ok());
  for (const Entry& e : entries) {
    ASSERT_TRUE(incremental->Insert(e.key, e.rid, e.value).ok());
  }

  std::vector<std::pair<double, uint64_t>> from_bulk, from_incremental;
  ASSERT_TRUE(bulk->RangeScan(-1e300, 1e300,
                              [&](double k, uint64_t r,
                                  std::span<const uint8_t>) {
                                from_bulk.emplace_back(k, r);
                                return true;
                              })
                  .ok());
  ASSERT_TRUE(incremental
                  ->RangeScan(-1e300, 1e300,
                              [&](double k, uint64_t r,
                                  std::span<const uint8_t>) {
                                from_incremental.emplace_back(k, r);
                                return true;
                              })
                  .ok());
  EXPECT_EQ(from_bulk, from_incremental);
  // Bulk load should build the shallower (or equal) tree.
  EXPECT_LE(bulk->height(), incremental->height());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BulkLoadEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 17, 300, 2500),
                       ::testing::Values(0.7, 0.9, 1.0)));

}  // namespace
}  // namespace vitri::btree
