// Corruption-seeding tests for BPlusTree::ValidateInvariants: each test
// breaks exactly one structural invariant — by hand-editing node pages
// through the buffer pool, or by flipping on-disk bits through a
// FaultInjectingPager — and asserts the validator reports that specific
// violation.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/coding.h"
#include "storage/buffer_pool.h"
#include "storage/fault_pager.h"
#include "storage/pager.h"

namespace vitri::btree {
namespace {

using storage::BufferPool;
using storage::kInvalidPageId;
using storage::MemPager;
using storage::PageId;

// Mirrors of the on-page layout in bplus_tree.cc (the tests must forge
// pages without the tree's help).
constexpr uint8_t kLeafType = 1;
constexpr size_t kNodeType = 0;
constexpr size_t kNodeCount = 2;
constexpr size_t kLeafNext = 4;
constexpr size_t kLeafPrev = 8;
constexpr size_t kLeafHeader = 12;

class BPlusTreeInvariantsTest : public ::testing::Test {
 protected:
  static constexpr size_t kPageSize = 512;
  static constexpr uint32_t kValueSize = 8;
  static constexpr size_t kLeafEntrySize = 16 + kValueSize;

  void SetUp() override {
    pager_ = std::make_unique<MemPager>(kPageSize);
    pool_ = std::make_unique<BufferPool>(pager_.get(), 64);
    auto tree = BPlusTree::Create(pool_.get(), kValueSize);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::make_unique<BPlusTree>(std::move(*tree));

    std::vector<Entry> entries;
    for (uint64_t i = 0; i < 200; ++i) {
      Entry e;
      e.key = static_cast<double>(i);
      e.rid = i;
      e.value.assign(kValueSize, static_cast<uint8_t>(i));
      entries.push_back(std::move(e));
    }
    ASSERT_TRUE(tree_->BulkLoad(entries, 0.9).ok());
    ASSERT_GE(tree_->height(), 2u) << "fixture must span multiple levels";
    ASSERT_TRUE(tree_->ValidateInvariants().ok());
  }

  // Applies `mutate` to the raw bytes of page `id` through the pool.
  void MutatePage(PageId id, const std::function<void(uint8_t*)>& mutate) {
    auto page = pool_->Fetch(id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    mutate(page->mutable_data());
    page->MarkDirty();
  }

  // All pages currently holding a node of `type`.
  std::vector<PageId> PagesOfType(uint8_t type) {
    std::vector<PageId> out;
    for (PageId id = 0; id < pager_->num_pages(); ++id) {
      auto page = pool_->Fetch(id);
      EXPECT_TRUE(page.ok());
      if (page.ok() && page->data()[kNodeType] == type) out.push_back(id);
    }
    return out;
  }

  // The leaf whose prev link is null (head of the chain) and the leaf
  // whose next link is null (tail).
  PageId ChainHead() { return ChainEnd(kLeafPrev); }
  PageId ChainTail() { return ChainEnd(kLeafNext); }
  PageId ChainEnd(size_t link_offset) {
    for (PageId id : PagesOfType(kLeafType)) {
      auto page = pool_->Fetch(id);
      EXPECT_TRUE(page.ok());
      if (page.ok() &&
          DecodeU32(page->data() + link_offset) == kInvalidPageId) {
        return id;
      }
    }
    ADD_FAILURE() << "no chain end found";
    return kInvalidPageId;
  }

  void ExpectViolation(const std::string& fragment) {
    const Status status = tree_->ValidateInvariants();
    ASSERT_FALSE(status.ok()) << "validator missed the seeded corruption";
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_NE(status.ToString().find(fragment), std::string::npos)
        << status.ToString();
  }

  std::unique_ptr<MemPager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BPlusTreeInvariantsTest, HealthyTreeValidatesAfterMutations) {
  std::vector<uint8_t> value(kValueSize, 0xAB);
  ASSERT_TRUE(tree_->Insert(1000.5, 1000, value).ok());
  EXPECT_TRUE(tree_->ValidateInvariants().ok());
  // Enough inserts into one packed leaf to split it: the new pages
  // must be reachable, or the page accounting fails.
  const PageId pages_before = pager_->num_pages();
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(tree_->Insert(100.5, 2000 + i, value).ok());
  }
  ASSERT_GT(pager_->num_pages(), pages_before);
  EXPECT_TRUE(tree_->ValidateInvariants().ok());
}

TEST_F(BPlusTreeInvariantsTest, CatchesLeafKeysOutOfOrder) {
  // Corrupt the chain tail: it has no upper separator bound, so the
  // oversized key must surface as an intra-leaf ordering violation.
  const PageId tail = ChainTail();
  MutatePage(tail, [](uint8_t* p) {
    EncodeDouble(p + kLeafHeader, 1e30);
  });
  ExpectViolation("leaf keys out of order");
}

TEST_F(BPlusTreeInvariantsTest, CatchesKeyOutsideSeparatorBounds) {
  // Corrupt the chain head: pushing its first key above every separator
  // violates the subtree bound its parent promises.
  const PageId head = ChainHead();
  ASSERT_NE(head, ChainTail());
  MutatePage(head, [](uint8_t* p) {
    EncodeDouble(p + kLeafHeader, 1e30);
  });
  ExpectViolation("subtree bound");
}

TEST_F(BPlusTreeInvariantsTest, CatchesCountBeyondCapacity) {
  // A corrupted count must be rejected before the validator walks the
  // entries, or it would read past the end of the page.
  MutatePage(ChainHead(), [](uint8_t* p) {
    EncodeU16(p + kNodeCount, 0xFFFF);
  });
  ExpectViolation("count exceeds capacity");
}

TEST_F(BPlusTreeInvariantsTest, CatchesLeafUnderflow) {
  MutatePage(ChainHead(), [](uint8_t* p) {
    EncodeU16(p + kNodeCount, 1);
  });
  ExpectViolation("below minimum fill");
}

TEST_F(BPlusTreeInvariantsTest, CatchesBrokenSiblingLink) {
  const PageId head = ChainHead();
  MutatePage(head, [&](uint8_t* p) {
    // The head's prev must be null; pointing it anywhere else breaks
    // the doubly linked chain.
    EncodeU32(p + kLeafPrev, head);
  });
  ExpectViolation("bad prev link");
}

TEST_F(BPlusTreeInvariantsTest, CatchesChainOrderMismatch) {
  const PageId head = ChainHead();
  MutatePage(head, [&](uint8_t* p) {
    // Short-circuit the chain: the walk no longer matches the tree's
    // left-to-right leaf order.
    EncodeU32(p + kLeafNext, kInvalidPageId);
  });
  ExpectViolation("leaf chain");
}

TEST_F(BPlusTreeInvariantsTest, CatchesPageOutsideTheTree) {
  // Every pager page is a reachable node; a page the tree cannot reach
  // breaks the exact accounting.
  ASSERT_TRUE(pool_->New().ok());
  ExpectViolation("page accounting mismatch");
}

TEST(BPlusTreeBitFlipTest, ChecksumSurfacesFlippedBitAsCorruption) {
  // A single bit flipped on the storage medium is invisible to the
  // structural walk until the page is re-read; the buffer pool's
  // checksum verification must turn it into Corruption.
  auto fault_pager = std::make_unique<storage::FaultInjectingPager>(
      std::make_unique<MemPager>(512), /*seed=*/2005);
  auto* faults = fault_pager.get();
  BufferPool pool(fault_pager.get(), 64);
  auto tree = BPlusTree::Create(&pool, 8);
  ASSERT_TRUE(tree.ok());
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 200; ++i) {
    Entry e;
    e.key = static_cast<double>(i);
    e.rid = i;
    e.value.assign(8, 0);
    entries.push_back(std::move(e));
  }
  ASSERT_TRUE(tree->BulkLoad(entries, 0.9).ok());
  ASSERT_TRUE(tree->ValidateInvariants().ok());

  // Persist, drop the cache, and flip one bit of the next page read.
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  storage::FaultRule rule;
  rule.kind = storage::FaultKind::kBitFlip;
  rule.op = storage::FaultOp::kRead;
  rule.limit = 1;
  faults->AddRule(rule);

  const Status status = tree->ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(faults->fault_stats().bit_flips, 1u);

  // The flip hit the read path only; clearing rules and dropping the
  // poisoned quarantine restores a valid tree.
  faults->ClearRules();
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ClearCorruptPages();
  EXPECT_TRUE(tree->ValidateInvariants().ok());
}

}  // namespace
}  // namespace vitri::btree
