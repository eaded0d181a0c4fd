#include "btree/bplus_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/coding.h"
#include "common/metrics.h"

namespace vitri::btree {

using storage::BufferPool;
using storage::kInvalidPageId;
using storage::PageId;
using storage::PageRef;

namespace {

// ---- On-page layout ---------------------------------------------------
//
// Every page is a node; the last storage::kPageFooterSize bytes of each
// are reserved for the pool's integrity footer.
//
// Interior node:
//   [0] u8 type=2  [1] pad  [2] u16 count
//   [4] u32 child0
//   [8] count * { f64 key, u64 rid, u32 child }          (20 bytes each)
//   child[i] holds composites in [sep[i-1], sep[i]).
//
// Leaf node:
//   [0] u8 type=1  [1] pad  [2] u16 count
//   [4] u32 next leaf  [8] u32 prev leaf
//   [12] count * { f64 key, u64 rid, value_size bytes }

constexpr uint8_t kLeafType = 1;
constexpr uint8_t kInternalType = 2;

// Occupancy floor of every non-root node: safely below both a split's
// half-full halves and a BulkLoad at fill factors >= 0.5.
constexpr double kMinFill = 0.25;

constexpr size_t kNodeType = 0;
constexpr size_t kNodeCount = 2;
constexpr size_t kLeafNext = 4;
constexpr size_t kLeafPrev = 8;
constexpr size_t kLeafHeader = 12;
constexpr size_t kInternalChild0 = 4;
constexpr size_t kInternalHeader = 8;
constexpr size_t kInternalEntry = 20;  // key + rid + child.

bool CompositeLess(double k1, uint64_t r1, double k2, uint64_t r2) {
  return k1 < k2 || (k1 == k2 && r1 < r2);
}

bool CompositeEq(double k1, uint64_t r1, double k2, uint64_t r2) {
  return k1 == k2 && r1 == r2;
}

// Typed view over a node page's raw bytes.
class NodeView {
 public:
  NodeView(uint8_t* data, uint32_t value_size)
      : p_(data), value_size_(value_size) {}

  bool is_leaf() const { return p_[kNodeType] == kLeafType; }
  uint8_t type() const { return p_[kNodeType]; }
  void set_type(uint8_t t) { p_[kNodeType] = t; }

  uint16_t count() const { return DecodeU16(p_ + kNodeCount); }
  void set_count(uint16_t c) { EncodeU16(p_ + kNodeCount, c); }

  // --- leaf accessors ---
  PageId next() const { return DecodeU32(p_ + kLeafNext); }
  void set_next(PageId id) { EncodeU32(p_ + kLeafNext, id); }
  PageId prev() const { return DecodeU32(p_ + kLeafPrev); }
  void set_prev(PageId id) { EncodeU32(p_ + kLeafPrev, id); }

  size_t leaf_entry_size() const { return 16 + value_size_; }
  uint8_t* leaf_entry(size_t i) {
    return p_ + kLeafHeader + i * leaf_entry_size();
  }
  const uint8_t* leaf_entry(size_t i) const {
    return p_ + kLeafHeader + i * leaf_entry_size();
  }
  double leaf_key(size_t i) const { return DecodeDouble(leaf_entry(i)); }
  uint64_t leaf_rid(size_t i) const { return DecodeU64(leaf_entry(i) + 8); }
  const uint8_t* leaf_value(size_t i) const { return leaf_entry(i) + 16; }
  void WriteLeafEntry(size_t i, double key, uint64_t rid,
                      const uint8_t* value) {
    uint8_t* e = leaf_entry(i);
    EncodeDouble(e, key);
    EncodeU64(e + 8, rid);
    std::memcpy(e + 16, value, value_size_);
  }
  // First slot whose composite is >= (key, rid).
  size_t LeafLowerBound(double key, uint64_t rid) const {
    size_t lo = 0, hi = count();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (CompositeLess(leaf_key(mid), leaf_rid(mid), key, rid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  void LeafInsertAt(size_t i, double key, uint64_t rid,
                    const uint8_t* value) {
    const size_t n = count();
    std::memmove(leaf_entry(i + 1), leaf_entry(i),
                 (n - i) * leaf_entry_size());
    WriteLeafEntry(i, key, rid, value);
    set_count(static_cast<uint16_t>(n + 1));
  }

  // --- interior accessors ---
  PageId child(size_t i) const {
    if (i == 0) return DecodeU32(p_ + kInternalChild0);
    return DecodeU32(internal_entry(i - 1) + 16);
  }
  void set_child(size_t i, PageId id) {
    if (i == 0) {
      EncodeU32(p_ + kInternalChild0, id);
    } else {
      EncodeU32(internal_entry(i - 1) + 16, id);
    }
  }
  uint8_t* internal_entry(size_t i) {
    return p_ + kInternalHeader + i * kInternalEntry;
  }
  const uint8_t* internal_entry(size_t i) const {
    return p_ + kInternalHeader + i * kInternalEntry;
  }
  double sep_key(size_t i) const { return DecodeDouble(internal_entry(i)); }
  uint64_t sep_rid(size_t i) const {
    return DecodeU64(internal_entry(i) + 8);
  }
  void set_sep(size_t i, double key, uint64_t rid) {
    EncodeDouble(internal_entry(i), key);
    EncodeU64(internal_entry(i) + 8, rid);
  }
  // First separator strictly greater than (key, rid); the child to
  // descend into for both point and leftmost-range searches (all
  // earlier subtrees hold composites < (key, rid)).
  size_t InternalDescendIndex(double key, uint64_t rid) const {
    size_t lo = 0, hi = count();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (CompositeLess(key, rid, sep_key(mid), sep_rid(mid))) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }
  // Inserts separator (key,rid) at slot i with right child `right`.
  void InternalInsertAt(size_t i, double key, uint64_t rid, PageId right) {
    const size_t n = count();
    std::memmove(internal_entry(i + 1), internal_entry(i),
                 (n - i) * kInternalEntry);
    set_sep(i, key, rid);
    EncodeU32(internal_entry(i) + 16, right);
    set_count(static_cast<uint16_t>(n + 1));
  }

 private:
  uint8_t* p_;
  uint32_t value_size_;
};

}  // namespace

struct BPlusTree::SplitResult {
  bool split = false;
  double sep_key = 0.0;
  uint64_t sep_rid = 0;
  PageId right = kInvalidPageId;
};

// ---- construction ------------------------------------------------------

Result<BPlusTree> BPlusTree::Create(BufferPool* pool, uint32_t value_size) {
  const size_t page_size = pool->pager()->page_size();
  if (page_size < storage::kPageFooterSize + kLeafHeader) {
    return Status::InvalidArgument("page size too small for a node");
  }
  const size_t usable = page_size - storage::kPageFooterSize;
  const size_t leaf_entry = 16 + value_size;
  const size_t leaf_cap = (usable - kLeafHeader) / leaf_entry;
  const size_t internal_cap = (usable - kInternalHeader) / kInternalEntry;
  if (leaf_cap < 2 || internal_cap < 3) {
    return Status::InvalidArgument(
        "value_size too large for the page size (need >=2 leaf entries)");
  }
  if (pool->pager()->num_pages() != 0) {
    return Status::InvalidArgument("Create requires an empty pager");
  }
  BPlusTree tree(pool);
  tree.value_size_ = value_size;
  tree.leaf_capacity_ = static_cast<uint32_t>(leaf_cap);
  tree.internal_capacity_ = static_cast<uint32_t>(internal_cap);
  {
    // The tree is still private to this thread; taking its latch here
    // is uncontended and lets InitEmpty keep its REQUIRES contract.
    WriterLock lock(*tree.latch_);
    VITRI_RETURN_IF_ERROR(tree.InitEmpty());
  }
  return tree;
}

Status BPlusTree::InitEmpty() {
  VITRI_ASSIGN_OR_RETURN(PageRef root, pool_->New());
  NodeView view(root.mutable_data(), value_size_);
  view.set_type(kLeafType);
  view.set_count(0);
  view.set_next(kInvalidPageId);
  view.set_prev(kInvalidPageId);
  root.MarkDirty();
  root_ = root.id();
  first_leaf_ = root.id();
  height_ = 1;
  num_entries_ = 0;
  return Status::OK();
}

// ---- insert -------------------------------------------------------------

Status BPlusTree::Insert(double key, uint64_t rid,
                         std::span<const uint8_t> value) {
  WriterLock lock(*latch_);
  if (value.size() != value_size_) {
    return Status::InvalidArgument("value size mismatch");
  }
  VITRI_ASSIGN_OR_RETURN(SplitResult split, InsertRec(root_, key, rid, value));
  if (split.split) {
    // Grow a new root above the old one.
    VITRI_ASSIGN_OR_RETURN(PageRef new_root, pool_->New());
    NodeView view(new_root.mutable_data(), value_size_);
    view.set_type(kInternalType);
    view.set_count(0);
    view.set_child(0, root_);
    view.InternalInsertAt(0, split.sep_key, split.sep_rid, split.right);
    new_root.MarkDirty();
    root_ = new_root.id();
    ++height_;
  }
  ++num_entries_;
  VITRI_METRIC_COUNTER("btree.inserts")->Increment();
  VITRI_DCHECK_OK(ValidateInvariantsLocked(kMinFill));
  return Status::OK();
}

Result<BPlusTree::SplitResult> BPlusTree::InsertRec(
    PageId node_id, double key, uint64_t rid,
    std::span<const uint8_t> value) {
  VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(node_id));
  NodeView node(page.mutable_data(), value_size_);

  if (node.is_leaf()) {
    const size_t pos = node.LeafLowerBound(key, rid);
    if (pos < node.count() &&
        CompositeEq(node.leaf_key(pos), node.leaf_rid(pos), key, rid)) {
      return Status::InvalidArgument("duplicate (key, rid)");
    }
    if (node.count() < leaf_capacity_) {
      node.LeafInsertAt(pos, key, rid, value.data());
      page.MarkDirty();
      return SplitResult{};
    }

    // Overflowing leaf: gather all entries plus the new one, then split.
    struct TmpEntry {
      double key;
      uint64_t rid;
      std::vector<uint8_t> value;
    };
    std::vector<TmpEntry> all;
    all.reserve(node.count() + 1);
    for (size_t i = 0; i < node.count(); ++i) {
      if (i == pos) {
        all.push_back({key, rid,
                       std::vector<uint8_t>(value.begin(), value.end())});
      }
      all.push_back({node.leaf_key(i), node.leaf_rid(i),
                     std::vector<uint8_t>(node.leaf_value(i),
                                          node.leaf_value(i) + value_size_)});
    }
    if (pos == node.count()) {
      all.push_back(
          {key, rid, std::vector<uint8_t>(value.begin(), value.end())});
    }

    VITRI_ASSIGN_OR_RETURN(PageRef right_page, pool_->New());
    NodeView right(right_page.mutable_data(), value_size_);
    right.set_type(kLeafType);
    right.set_count(0);

    const size_t mid = all.size() / 2;
    node.set_count(0);
    for (size_t i = 0; i < mid; ++i) {
      node.WriteLeafEntry(i, all[i].key, all[i].rid, all[i].value.data());
    }
    node.set_count(static_cast<uint16_t>(mid));
    for (size_t i = mid; i < all.size(); ++i) {
      right.WriteLeafEntry(i - mid, all[i].key, all[i].rid,
                           all[i].value.data());
    }
    right.set_count(static_cast<uint16_t>(all.size() - mid));

    // Stitch the leaf chain: node <-> right <-> old next.
    right.set_next(node.next());
    right.set_prev(node_id);
    if (node.next() != kInvalidPageId) {
      VITRI_ASSIGN_OR_RETURN(PageRef after, pool_->Fetch(node.next()));
      NodeView after_view(after.mutable_data(), value_size_);
      after_view.set_prev(right_page.id());
      after.MarkDirty();
    }
    node.set_next(right_page.id());

    page.MarkDirty();
    right_page.MarkDirty();

    VITRI_METRIC_COUNTER("btree.leaf_splits")->Increment();
    SplitResult out;
    out.split = true;
    out.sep_key = right.leaf_key(0);
    out.sep_rid = right.leaf_rid(0);
    out.right = right_page.id();
    return out;
  }

  // Interior node.
  const size_t idx = node.InternalDescendIndex(key, rid);
  const PageId child_id = node.child(idx);
  VITRI_ASSIGN_OR_RETURN(SplitResult child_split,
                         InsertRec(child_id, key, rid, value));
  if (!child_split.split) return SplitResult{};

  if (node.count() < internal_capacity_) {
    node.InternalInsertAt(idx, child_split.sep_key, child_split.sep_rid,
                          child_split.right);
    page.MarkDirty();
    return SplitResult{};
  }

  // Overflowing interior node: gather (separators, children), split and
  // promote the middle separator.
  struct Sep {
    double key;
    uint64_t rid;
    PageId right_child;
  };
  std::vector<Sep> seps;
  seps.reserve(node.count() + 1);
  for (size_t i = 0; i < node.count(); ++i) {
    if (i == idx) {
      seps.push_back({child_split.sep_key, child_split.sep_rid,
                      child_split.right});
    }
    seps.push_back({node.sep_key(i), node.sep_rid(i), node.child(i + 1)});
  }
  if (idx == node.count()) {
    seps.push_back(
        {child_split.sep_key, child_split.sep_rid, child_split.right});
  }
  const PageId child0 = node.child(0);

  VITRI_ASSIGN_OR_RETURN(PageRef right_page, pool_->New());
  NodeView right(right_page.mutable_data(), value_size_);
  right.set_type(kInternalType);
  right.set_count(0);

  const size_t mid = seps.size() / 2;  // Promoted separator.
  node.set_count(0);
  node.set_child(0, child0);
  for (size_t i = 0; i < mid; ++i) {
    node.InternalInsertAt(i, seps[i].key, seps[i].rid, seps[i].right_child);
  }
  right.set_child(0, seps[mid].right_child);
  for (size_t i = mid + 1; i < seps.size(); ++i) {
    right.InternalInsertAt(i - mid - 1, seps[i].key, seps[i].rid,
                           seps[i].right_child);
  }
  page.MarkDirty();
  right_page.MarkDirty();

  VITRI_METRIC_COUNTER("btree.internal_splits")->Increment();
  SplitResult out;
  out.split = true;
  out.sep_key = seps[mid].key;
  out.sep_rid = seps[mid].rid;
  out.right = right_page.id();
  return out;
}

// ---- lookup / scan ------------------------------------------------------

Result<bool> BPlusTree::Lookup(double key, uint64_t rid,
                               std::vector<uint8_t>* value) const {
  ReaderLock lock(*latch_);
  VITRI_METRIC_COUNTER("btree.lookups")->Increment();
  PageId node_id = root_;
  for (uint32_t level = 0; level + 1 < height_; ++level) {
    VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(node_id));
    NodeView node(const_cast<uint8_t*>(page.data()), value_size_);
    node_id = node.child(node.InternalDescendIndex(key, rid));
  }
  VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(node_id));
  NodeView leaf(const_cast<uint8_t*>(page.data()), value_size_);
  const size_t pos = leaf.LeafLowerBound(key, rid);
  if (pos < leaf.count() &&
      CompositeEq(leaf.leaf_key(pos), leaf.leaf_rid(pos), key, rid)) {
    if (value != nullptr) {
      value->assign(leaf.leaf_value(pos), leaf.leaf_value(pos) + value_size_);
    }
    return true;
  }
  return false;
}

Result<uint64_t> BPlusTree::RangeScan(double lo, double hi,
                                      const ScanCallback& callback,
                                      storage::IoTally* tally) const {
  ReaderLock lock(*latch_);
  VITRI_METRIC_COUNTER("btree.range_scans")->Increment();
  // Also empty when a bound is NaN: no key compares within it, and the
  // leaf walk below would never meet its `k > hi` stop test.
  if (!(lo <= hi)) return static_cast<uint64_t>(0);
  // Descend toward the leftmost composite >= (lo, 0).
  PageId node_id = root_;
  for (uint32_t level = 0; level + 1 < height_; ++level) {
    VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(node_id, tally));
    NodeView node(const_cast<uint8_t*>(page.data()), value_size_);
    node_id = node.child(node.InternalDescendIndex(lo, 0));
  }

  uint64_t visited = 0;
  PageId leaf_id = node_id;
  bool first_leaf_of_scan = true;
  while (leaf_id != kInvalidPageId) {
    VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(leaf_id, tally));
    NodeView leaf(const_cast<uint8_t*>(page.data()), value_size_);
    size_t pos = first_leaf_of_scan ? leaf.LeafLowerBound(lo, 0) : 0;
    first_leaf_of_scan = false;
    for (; pos < leaf.count(); ++pos) {
      const double k = leaf.leaf_key(pos);
      if (k > hi) return visited;
      ++visited;
      if (!callback(k, leaf.leaf_rid(pos),
                    std::span<const uint8_t>(leaf.leaf_value(pos),
                                             value_size_))) {
        return visited;
      }
    }
    leaf_id = leaf.next();
  }
  return visited;
}

// ---- bulk load ----------------------------------------------------------

Status BPlusTree::BulkLoad(const std::vector<Entry>& entries,
                           double fill_factor) {
  WriterLock lock(*latch_);
  if (num_entries_ != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  VITRI_METRIC_COUNTER("btree.bulk_loads")->Increment();
  if (fill_factor <= 0.0 || fill_factor > 1.0) {
    return Status::InvalidArgument("fill_factor must be in (0, 1]");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].value.size() != value_size_) {
      return Status::InvalidArgument("value size mismatch in bulk load");
    }
    if (i > 0 && !CompositeLess(entries[i - 1].key, entries[i - 1].rid,
                                entries[i].key, entries[i].rid)) {
      return Status::InvalidArgument(
          "bulk-load entries must be strictly sorted by (key, rid)");
    }
  }
  if (entries.empty()) return Status::OK();

  const size_t per_leaf = std::max<size_t>(
      1, static_cast<size_t>(fill_factor * leaf_capacity_));
  const size_t per_internal = std::max<size_t>(
      2, static_cast<size_t>(fill_factor * internal_capacity_));

  struct ChildRef {
    double key;
    uint64_t rid;
    PageId page;
  };

  // Level 0: pack leaves. An empty tree is one empty root leaf; the
  // first packed leaf overwrites it in place and the rest are new pages,
  // so the chain runs in page-id order.
  std::vector<ChildRef> level;
  PageId prev_leaf = kInvalidPageId;
  size_t i = 0;
  while (i < entries.size()) {
    size_t take = std::min(per_leaf, entries.size() - i);
    // Split the tail evenly rather than leave a last leaf under half
    // of per_leaf.
    const size_t remaining_after = entries.size() - i - take;
    if (remaining_after > 0 && remaining_after < per_leaf / 2) {
      take = (entries.size() - i + 1) / 2;
    }
    VITRI_ASSIGN_OR_RETURN(PageRef page, prev_leaf == kInvalidPageId
                                             ? pool_->Fetch(root_)
                                             : pool_->New());
    NodeView leaf(page.mutable_data(), value_size_);
    leaf.set_type(kLeafType);
    leaf.set_count(0);
    leaf.set_prev(prev_leaf);
    leaf.set_next(kInvalidPageId);
    for (size_t j = 0; j < take; ++j) {
      leaf.WriteLeafEntry(j, entries[i + j].key, entries[i + j].rid,
                          entries[i + j].value.data());
    }
    leaf.set_count(static_cast<uint16_t>(take));
    page.MarkDirty();
    if (prev_leaf != kInvalidPageId) {
      VITRI_ASSIGN_OR_RETURN(PageRef prev_page, pool_->Fetch(prev_leaf));
      NodeView prev_view(prev_page.mutable_data(), value_size_);
      prev_view.set_next(page.id());
      prev_page.MarkDirty();
    } else {
      first_leaf_ = page.id();
    }
    level.push_back({entries[i].key, entries[i].rid, page.id()});
    prev_leaf = page.id();
    i += take;
  }

  // Build interior levels bottom-up until one node remains.
  height_ = 1;
  while (level.size() > 1) {
    std::vector<ChildRef> next_level;
    size_t j = 0;
    while (j < level.size()) {
      size_t take = std::min(per_internal + 1, level.size() - j);
      const size_t remaining_after = level.size() - j - take;
      if (remaining_after > 0 && remaining_after < (per_internal + 1) / 2) {
        take = (level.size() - j + 1) / 2;
      }
      VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->New());
      NodeView inner(page.mutable_data(), value_size_);
      inner.set_type(kInternalType);
      inner.set_count(0);
      inner.set_child(0, level[j].page);
      for (size_t c = 1; c < take; ++c) {
        inner.InternalInsertAt(c - 1, level[j + c].key, level[j + c].rid,
                               level[j + c].page);
      }
      page.MarkDirty();
      next_level.push_back({level[j].key, level[j].rid, page.id()});
      j += take;
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = level[0].page;
  num_entries_ = entries.size();
  // Low fill factors legitimately pack below the default occupancy
  // floor, so the post-bulk-load self-check scales its bound down.
  VITRI_DCHECK_OK(
      ValidateInvariantsLocked(std::min(kMinFill, fill_factor / 4.0)));
  return Status::OK();
}

// ---- validation ---------------------------------------------------------

Status BPlusTree::ValidateInvariants() const {
  WriterLock lock(*latch_);
  return ValidateInvariantsLocked(kMinFill);
}

Status BPlusTree::ValidateInvariantsLocked(double min_fill) const {
  uint64_t entry_count = 0;
  uint64_t node_count = 0;
  std::vector<PageId> leaves;
  VITRI_RETURN_IF_ERROR(ValidateNode(min_fill, root_, 0, false, 0.0, 0,
                                     false, 0.0, 0, &entry_count,
                                     &node_count, &leaves));
  if (entry_count != num_entries_) {
    return Status::Corruption(
        "entry count mismatch: tree holds " + std::to_string(entry_count) +
        ", header claims " + std::to_string(num_entries_));
  }

  // Leaf chain must enumerate the same leaves, in order, doubly linked.
  PageId id = first_leaf_;
  PageId prev = kInvalidPageId;
  size_t chain_idx = 0;
  while (id != kInvalidPageId) {
    VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(id));
    NodeView leaf(const_cast<uint8_t*>(page.data()), value_size_);
    if (!leaf.is_leaf()) return Status::Corruption("chain hits non-leaf");
    if (leaf.prev() != prev) {
      return Status::Corruption("bad prev link in leaf " +
                                std::to_string(id));
    }
    if (chain_idx >= leaves.size() || leaves[chain_idx] != id) {
      return Status::Corruption("leaf chain order mismatch");
    }
    prev = id;
    id = leaf.next();
    ++chain_idx;
  }
  if (chain_idx != leaves.size()) {
    return Status::Corruption("leaf chain shorter than the tree");
  }

  // Exact page accounting: nothing is ever freed, so the reachable
  // nodes cover the pager.
  const uint64_t total_pages = pool_->pager()->num_pages();
  if (node_count != total_pages) {
    return Status::Corruption(
        "page accounting mismatch: " + std::to_string(node_count) +
        " nodes != " + std::to_string(total_pages) + " pager pages");
  }
  return Status::OK();
}

Status BPlusTree::ValidateNode(double min_fill, PageId node_id,
                               uint32_t depth, bool has_lo,
                               double lo_key, uint64_t lo_rid, bool has_hi,
                               double hi_key, uint64_t hi_rid,
                               uint64_t* entry_count, uint64_t* node_count,
                               std::vector<PageId>* leaves_in_order) const {
  if (++*node_count > pool_->pager()->num_pages()) {
    return Status::Corruption("node graph has more nodes than pages "
                              "(child cycle)");
  }
  VITRI_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(node_id));
  NodeView node(const_cast<uint8_t*>(page.data()), value_size_);

  if (node.is_leaf()) {
    if (depth + 1 != height_) {
      return Status::Corruption("leaf at wrong depth");
    }
    // Bound the count before touching entries: a corrupted count would
    // otherwise walk past the end of the page.
    if (node.count() > leaf_capacity_) {
      return Status::Corruption("leaf " + std::to_string(node_id) +
                                " count exceeds capacity");
    }
    const auto min_entries = std::max(
        1u, static_cast<uint32_t>(min_fill *
                                  static_cast<double>(leaf_capacity_)));
    if (node_id != root_ && node.count() < min_entries) {
      return Status::Corruption("leaf " + std::to_string(node_id) +
                                " below minimum fill: " +
                                std::to_string(node.count()) + " < " +
                                std::to_string(min_entries));
    }
    for (size_t i = 0; i < node.count(); ++i) {
      const double k = node.leaf_key(i);
      const uint64_t r = node.leaf_rid(i);
      if (i > 0 && !CompositeLess(node.leaf_key(i - 1), node.leaf_rid(i - 1),
                                  k, r)) {
        return Status::Corruption("leaf keys out of order");
      }
      if (has_lo && CompositeLess(k, r, lo_key, lo_rid)) {
        return Status::Corruption("leaf key below subtree bound");
      }
      if (has_hi && !CompositeLess(k, r, hi_key, hi_rid)) {
        return Status::Corruption("leaf key above subtree bound");
      }
    }
    *entry_count += node.count();
    leaves_in_order->push_back(node_id);
    return Status::OK();
  }

  if (node.type() != kInternalType) {
    return Status::Corruption("unexpected node type");
  }
  if (node.count() == 0 && node_id != root_) {
    return Status::Corruption("empty interior node");
  }
  if (node.count() > internal_capacity_) {
    return Status::Corruption("interior node " + std::to_string(node_id) +
                              " count exceeds capacity");
  }
  // Interior occupancy counts children (count + 1): bulk load packs
  // children per node, so the guaranteed floor is on fan-out, not on
  // separators.
  const auto min_children = std::max(
      2u, static_cast<uint32_t>(
              min_fill * static_cast<double>(internal_capacity_ + 1)));
  if (node_id != root_ && node.count() + 1u < min_children) {
    return Status::Corruption("interior node " + std::to_string(node_id) +
                              " below minimum fill: " +
                              std::to_string(node.count() + 1u) + " < " +
                              std::to_string(min_children) + " children");
  }
  for (size_t i = 0; i + 1 < node.count(); ++i) {
    if (!CompositeLess(node.sep_key(i), node.sep_rid(i),
                       node.sep_key(i + 1), node.sep_rid(i + 1))) {
      return Status::Corruption("separators out of order");
    }
  }
  for (size_t i = 0; i <= node.count(); ++i) {
    const bool child_has_lo = (i > 0) || has_lo;
    const double child_lo_key = (i > 0) ? node.sep_key(i - 1) : lo_key;
    const uint64_t child_lo_rid = (i > 0) ? node.sep_rid(i - 1) : lo_rid;
    const bool child_has_hi = (i < node.count()) || has_hi;
    const double child_hi_key = (i < node.count()) ? node.sep_key(i) : hi_key;
    const uint64_t child_hi_rid =
        (i < node.count()) ? node.sep_rid(i) : hi_rid;
    VITRI_RETURN_IF_ERROR(ValidateNode(
        min_fill, node.child(i), depth + 1, child_has_lo, child_lo_key,
        child_lo_rid, child_has_hi, child_hi_key, child_hi_rid, entry_count,
        node_count, leaves_in_order));
  }
  return Status::OK();
}

}  // namespace vitri::btree
