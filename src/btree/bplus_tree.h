#ifndef VITRI_BTREE_BPLUS_TREE_H_
#define VITRI_BTREE_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/annotated_lock.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace vitri::btree {

/// One entry handed to bulk-load / returned by scans.
struct Entry {
  /// Search key — the one-dimensional transform value of a ViTri.
  double key = 0.0;
  /// Record id, unique per entry; tie-breaks equal keys so the tree
  /// stores strictly ordered composite keys (key, rid).
  uint64_t rid = 0;
  /// Fixed-size opaque payload (the serialized ViTri).
  std::vector<uint8_t> value;
};

/// Callback for range scans: return false to stop early. `value` points
/// into the pinned page and is only valid during the call.
using ScanCallback = std::function<bool(double key, uint64_t rid,
                                        std::span<const uint8_t> value)>;

/// Paged B+-tree over composite keys (double, uint64) with fixed-size
/// values, built on a BufferPool. Insert-only, like the paper's index:
/// it is bulk-loaded, grows by inserts with splits, and is rebuilt
/// rather than shrunk, so it never frees a page. It is in-memory by
/// construction: the header fields (root, first leaf, height, entry
/// count) live in members only, and the index it serves is made durable
/// by the snapshot and the WAL (DESIGN.md §13), never by its pages.
///
/// Thread-safety: the tree carries a reader-writer latch. Lookup() and
/// RangeScan() take it shared and may run concurrently from any number
/// of threads; Insert(), BulkLoad(), and ValidateInvariants() take it
/// exclusive, so one writer proceeds alone while readers drain. This is
/// a deliberately coarse scheme: the owning ViTriIndex already
/// serializes writers against queries with its own latch, so per-node
/// latch crabbing would buy no concurrency until that index-level
/// latch is relaxed. One caveat: a RangeScan callback runs under the
/// shared latch and must not call back into the tree at all — a
/// mutating operation self-deadlocks, and even num_entries()/height()
/// would re-enter the shared latch, which std::shared_mutex does not
/// permit recursively.
/// See DESIGN.md §13 and the lock catalog in §14.
///
/// Every pager page is a node: interior pages hold (separator, child)
/// arrays, leaves hold (key, rid, value) records and are doubly linked
/// for ordered scans. Create() makes the empty root leaf page 0.
/// Page-access counts (what the paper reports as I/O cost) are what a
/// RangeScan's fetches add to the caller's IoTally.
class BPlusTree {
 public:
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept = default;
  BPlusTree& operator=(BPlusTree&&) noexcept = default;

  /// Creates a fresh tree in an *empty* pager behind `pool`. `value_size`
  /// is the byte size of every record payload and must fit a page.
  static Result<BPlusTree> Create(storage::BufferPool* pool,
                                  uint32_t value_size);

  /// Inserts one record. (key, rid) pairs must be unique; inserting a
  /// duplicate composite key fails with InvalidArgument.
  Status Insert(double key, uint64_t rid,
                std::span<const uint8_t> value);

  /// Looks up a single record; returns false if absent. On success the
  /// payload is copied into *value (resized). Safe to call concurrently
  /// with other read-only operations.
  Result<bool> Lookup(double key, uint64_t rid,
                      std::vector<uint8_t>* value) const;

  /// Visits every record with lo <= key <= hi in ascending (key, rid)
  /// order; a NaN bound makes the range empty. Returns the number of
  /// records visited. Safe to call concurrently with other read-only
  /// operations; the callback runs without any pool latch held (only a
  /// pin on the current leaf). The scan's page fetches count in `tally`
  /// when non-null (BufferPool::Fetch), the caller's own I/O.
  Result<uint64_t> RangeScan(double lo, double hi,
                             const ScanCallback& callback,
                             storage::IoTally* tally = nullptr) const;

  /// Bulk-loads `entries` (must be sorted by (key, rid), strictly
  /// increasing, all values of value_size bytes) into an empty tree,
  /// packing leaves to `fill_factor` occupancy. The first leaf takes the
  /// empty root's page.
  Status BulkLoad(const std::vector<Entry>& entries,
                  double fill_factor = 0.9);

  /// Number of records in the tree. Takes the latch shared, so it is
  /// safe to read concurrently with a writer (PR 6 left these unlatched
  /// with a "don't read while writing" caveat; the annotation pass
  /// closed that hole).
  uint64_t num_entries() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return num_entries_;
  }
  /// Levels, counting the root: an empty tree (single leaf root) has
  /// height 1. Latched shared, like num_entries().
  uint32_t height() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return height_;
  }
  /// Records per full leaf.
  uint32_t leaf_capacity() const { return leaf_capacity_; }
  /// Separators per full interior node.
  uint32_t internal_capacity() const { return internal_capacity_; }
  uint32_t value_size() const { return value_size_; }

  storage::BufferPool* pool() const { return pool_; }

  /// Exhaustively checks every structural invariant of the tree:
  ///  * composite keys strictly ordered within and across nodes, with
  ///    separator bounds propagated to every subtree;
  ///  * node occupancy within [capacity / 4, capacity] for all non-root
  ///    nodes, and counts that fit on the page;
  ///  * all leaves at the same depth (== height) and the doubly linked
  ///    leaf chain enumerating exactly the tree's leaves in key order;
  ///  * the entry count agreeing with the records in the leaves;
  ///  * page accounting exact: reachable nodes = pager pages.
  /// Pages faulted in during the walk are checksum-verified by the
  /// BufferPool as usual, so a corrupted page surfaces as Corruption.
  /// Its fetches count in the pool's cumulative IoStats like any other
  /// read; no query's costs include them (queries count their own
  /// IoTally). Runs after every mutating operation in debug builds
  /// (VITRI_DCHECK), in tests, and via `vitri check`.
  Status ValidateInvariants() const;

 private:
  explicit BPlusTree(storage::BufferPool* pool) : pool_(pool) {}

  // --- internal helpers, defined in the .cc ---
  struct SplitResult;

  // Every internal helper below runs inside a writer's (or, for the
  // const walkers, at least a reader's) critical section; REQUIRES makes
  // that a compile-time contract instead of a comment.
  Status InitEmpty() VITRI_REQUIRES(*latch_);
  Result<SplitResult> InsertRec(storage::PageId node_id, double key,
                                uint64_t rid,
                                std::span<const uint8_t> value)
      VITRI_REQUIRES(*latch_);
  // ValidateInvariants minus the latch, for self-checks already inside
  // a writer's critical section. Every non-root node must hold at least
  // `min_fill` of its capacity: a quarter, except in BulkLoad's own
  // self-check, which lowers it for fill factors below one half.
  Status ValidateInvariantsLocked(double min_fill) const
      VITRI_REQUIRES(*latch_);
  Status ValidateNode(double min_fill, storage::PageId node_id,
                      uint32_t depth, bool has_lo, double lo_key,
                      uint64_t lo_rid, bool has_hi, double hi_key,
                      uint64_t hi_rid, uint64_t* entry_count,
                      uint64_t* node_count,
                      std::vector<storage::PageId>* leaves_in_order) const
      VITRI_REQUIRES(*latch_);

  storage::BufferPool* pool_ = nullptr;
  /// Reader-writer latch (see the class comment). Heap-allocated so the
  /// tree stays movable; never null after construction. Acquired after
  /// the ViTriIndex latch and before any BufferPool latch (DESIGN.md
  /// §14 acquisition order).
  mutable std::unique_ptr<SharedMutex> latch_ = std::make_unique<SharedMutex>();
  /// value_size_/leaf_capacity_/internal_capacity_ are fixed by Create
  /// before the tree is visible to other threads and never change, so
  /// they are deliberately unguarded.
  uint32_t value_size_ = 0;
  storage::PageId root_ VITRI_GUARDED_BY(*latch_) = storage::kInvalidPageId;
  storage::PageId first_leaf_ VITRI_GUARDED_BY(*latch_) =
      storage::kInvalidPageId;
  uint32_t height_ VITRI_GUARDED_BY(*latch_) = 0;
  uint64_t num_entries_ VITRI_GUARDED_BY(*latch_) = 0;
  uint32_t leaf_capacity_ = 0;
  uint32_t internal_capacity_ = 0;
};

}  // namespace vitri::btree

#endif  // VITRI_BTREE_BPLUS_TREE_H_
