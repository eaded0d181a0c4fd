#ifndef VITRI_STORAGE_BUFFER_POOL_H_
#define VITRI_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotated_lock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/replacer.h"

namespace vitri::storage {

class BufferPool;

/// RAII pin on a cached page. Unpins on destruction. Mark dirty after
/// mutating the buffer. Movable, not copyable. A PageRef may be created,
/// used, and released on any thread, but a single PageRef object must
/// not be shared between threads without external synchronization, and
/// mutating the page bytes of a given page requires exclusive ownership
/// of that page (the pool latches its bookkeeping, not page contents).
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { MoveFrom(other); }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }

  /// Read-only view of the page bytes.
  const uint8_t* data() const { return data_; }

  /// Mutable view; call MarkDirty() after writing.
  uint8_t* mutable_data() { return data_; }

  /// Flags the page for write-back on eviction/flush.
  void MarkDirty();

  /// Explicit early unpin (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, PageId id, uint8_t* data)
      : pool_(pool), id_(id), data_(data) {}

  void MoveFrom(PageRef& other) {
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_latch_ = other.dirty_latch_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.id_ = kInvalidPageId;
    other.dirty_latch_ = false;
  }

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  uint8_t* data_ = nullptr;
  bool dirty_latch_ = false;
};

/// Knobs for a BufferPool.
struct BufferPoolOptions {
  /// Finish FlushAll() (and therefore destruction) with Pager::Sync(),
  /// making the flush a durability point rather than just a write-back
  /// into the OS page cache. How strong that point is depends on the
  /// pager's own sync mode (FilePager::Open's FileSyncMode). Disable
  /// for throwaway benchmark pools where the file is never reopened.
  bool sync_on_flush = true;

  /// Number of independently latched sub-pools the frames are split
  /// into (page id modulo shard count picks the shard). 0 = auto:
  /// capacity/8 clamped to [1, 8], so small test pools stay one shard
  /// (single-latch behavior, byte-identical results) and big pools
  /// spread contention. The VITRI_POOL_SHARDS environment variable
  /// overrides *auto* only — an explicit count here always wins — which
  /// is how the one-shard CI leg pins the whole suite to one shard.
  /// Always clamped to [1, capacity] so every shard owns >= 1 frame.
  size_t shards = 0;
};

/// Sharded buffer pool over a Pager, with clock (second-chance)
/// replacement per shard. Pages load on demand only: a Fetch is the one
/// way a page enters a frame, so every physical read is some caller's
/// demand fetch. Pages map to shards by id; each shard owns a
/// fixed set of frames, its own page table, replacer, and latch, so
/// fetches of pages in different shards never contend. Counts logical
/// fetches, cache hits, and physical transfers cumulatively in
/// per-shard IoStats, folded together on read (stats()), and per
/// request in the IoTally a caller hands to Fetch — the counts a query
/// reports as the paper's "I/O cost".
///
/// The pool is also the page-integrity boundary: every page written back
/// is stamped with a checksum footer (storage/page_footer.h) and every
/// page read from the pager is verified. A mismatch fails the Fetch with
/// Status::Corruption and quarantines the page id in corrupt_pages().
///
/// Thread-safety: all public operations are safe to call concurrently.
/// Each shard's latch guards that shard's bookkeeping only; pager I/O
/// runs *outside* the latch, with per-frame load/evict states keeping
/// concurrent fetches of the same page from racing (duplicate loads
/// park on the shard's condvar; a page mid-writeback is fetched only
/// after the write lands, so readers never see stale bytes). Shard
/// latches are leaves of the lock order (DESIGN.md §14, §16) and are
/// never held two at a time. The backing pager must honor the Pager
/// concurrency contract (pager.h). Page *contents* are not latched:
/// concurrent readers of a page are fine, but a writer needs exclusive
/// ownership of that page. FlushAll()/EvictAll() write back pinned
/// dirty frames too, so they must not run concurrently with writers
/// mutating pinned pages.
class BufferPool {
 public:
  /// `capacity` is the number of resident frames (>= 1), split across
  /// the shards. The pool does not own the pager.
  BufferPool(Pager* pager, size_t capacity);
  BufferPool(Pager* pager, size_t capacity, const BufferPoolOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  /// Fetches (pinning) an existing page. A non-null `tally` receives
  /// every event this fetch counts in the shard's IoStats — the logical
  /// read, the hit or the physical read, the claimed slot's eviction
  /// and write-back, a checksum failure — so a query reads its exact
  /// page counts from its own tally while other queries share the pool.
  /// A timed tally also sums this call's wall time.
  Result<PageRef> Fetch(PageId id, IoTally* tally = nullptr);

  /// Allocates a new page in the pager and returns it pinned and dirty.
  Result<PageRef> New();

  /// Writes back all dirty frames (pages stay cached).
  Status FlushAll();

  /// Drops every unpinned frame after flushing it; simulates a cold
  /// cache for benchmark repeatability.
  Status EvictAll();

  /// Cumulative counters, folded across the shards (plus the external
  /// sink) at call time. Each field is a sum of atomic loads, so totals
  /// never tear even while other threads fetch. Returned by value: with
  /// sharded counters there is no single live struct to reference.
  IoStats stats() const;
  /// Same fold as plain integers — the cheap form for deltas.
  IoSnapshot StatsSnapshot() const;
  /// One snapshot per shard (index = shard number), for per-shard
  /// hit-rate / balance reporting. Excludes the external sink.
  std::vector<IoSnapshot> ShardSnapshots() const;

  /// Counter sink for pager decorators (RetryingPager::set_stats_sink):
  /// an extra IoStats folded into stats() that does not belong to any
  /// shard. Writing other fields through it (tests) is fine too.
  IoStats* external_stats() { return &external_stats_; }

  /// Page ids whose checksum verification failed since construction (or
  /// the last ClearCorruptPages). Ordered for stable reporting; returns
  /// a copy so the caller's view cannot race with concurrent fetches.
  std::set<PageId> corrupt_pages() const;
  void ClearCorruptPages();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  const BufferPoolOptions& options() const { return options_; }
  size_t resident() const;
  /// The pointer itself is set at construction and immutable; the
  /// pointee is thread-safe per the Pager contract.
  Pager* pager() const { return pager_; }

  /// Deep self-check of the pool's bookkeeping, shard by shard: every
  /// frame slot is exactly one of free / table-mapped, every table
  /// entry names a frame that agrees on its page id AND lives in the
  /// page's home shard, the replacer tracks exactly the unpinned
  /// resident slots (a pinned frame in the replacer is a violation),
  /// pin counts are non-negative, frame buffers match the pager's page
  /// size, and the hit counter never exceeds the fetch counter. Runs
  /// after every mutating operation in debug builds (VITRI_DCHECK) and
  /// via `vitri check`; returns Internal naming the violated invariant.
  /// Requires no in-flight pool operations (frames mid-load/mid-evict
  /// are deliberately in transitional states).
  Status ValidateInvariants() const;

 private:
  friend class PageRef;
  /// Test hook: lets invariant tests break internal bookkeeping on
  /// purpose to prove ValidateInvariants() catches it.
  friend struct BufferPoolTestPeer;

  struct Frame {
    PageId id = kInvalidPageId;
    std::vector<uint8_t> data;
    int pin_count = 0;
    bool dirty = false;
    /// A fetch is filling `data`; the filling thread owns the bytes,
    /// everyone else parks on the shard condvar.
    bool loading = false;
  };

  /// Cached per-shard registry counters (buffer_pool.shard.<i>.*).
  /// Looked up once at construction — the VITRI_METRIC_* macros cache
  /// per *call site*, which would pin every shard to shard 0's counter.
  struct ShardMetrics {
    metrics::Counter* fetches = nullptr;
    metrics::Counter* hits = nullptr;
    metrics::Counter* evictions = nullptr;
  };

  /// One independently latched sub-pool. The latch guards the
  /// bookkeeping containers and every Frame's bookkeeping fields; frame
  /// *data* buffers are handed off to I/O threads via the loading flag
  /// and the evicting set (the mutex release/acquire orders the bytes).
  struct Shard {
    /// Position in shards_ (for diagnostics and the home-shard check).
    size_t index = 0;
    mutable Mutex latch;
    /// Signaled when a load finishes or an eviction write-back lands.
    CondVar cv;
    /// Fixed at construction; never resized (stable Frame addresses).
    std::vector<Frame> frames;
    /// Resident page -> slot index in `frames`.
    std::unordered_map<PageId, size_t> table VITRI_GUARDED_BY(latch);
    /// Slots whose frame holds no page.
    std::vector<size_t> free_list VITRI_GUARDED_BY(latch);
    /// Victim selection over the unpinned resident slots.
    ClockReplacer replacer VITRI_GUARDED_BY(latch){0};
    /// Pages mid-writeback: already out of `table`, bytes not yet on
    /// the pager. Fetches of these pages wait — re-reading now would
    /// resurrect the stale on-disk version and lose the dirty write.
    std::unordered_set<PageId> evicting VITRI_GUARDED_BY(latch);
    IoStats stats;
    std::set<PageId> corrupt VITRI_GUARDED_BY(latch);
    ShardMetrics metrics;
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }
  const Shard& ShardFor(PageId id) const {
    return *shards_[id % shards_.size()];
  }

  void Unpin(PageId id, bool dirty);

  /// Claims a slot in `s` that is in no structure (not in the table,
  /// free list, or replacer): pops a free slot, or evicts the replacer's
  /// victim — writing a dirty victim back *outside* the latch, with the
  /// page parked in `evicting` meanwhile. ResourceExhausted when every
  /// frame is pinned; a failed write-back reinstalls the victim and
  /// propagates the error. The eviction and write-back also count in
  /// `tally` when non-null.
  Result<size_t> ClaimSlot(Shard& s, IoTally* tally) VITRI_EXCLUDES(s.latch);

  /// Pins page `id` in `s`, reading it into a claimed slot on a miss,
  /// and returns its data pointer. Errors (including a failed integrity
  /// check, which quarantines the page) propagate. `tally` (may be
  /// null) receives the events counted here.
  Result<uint8_t*> LoadPage(Shard& s, PageId id, IoTally* tally)
      VITRI_EXCLUDES(s.latch);

  Status WriteBackLocked(Shard& s, Frame& frame) VITRI_REQUIRES(s.latch);
  Status ValidateShardLocked(const Shard& s) const VITRI_REQUIRES(s.latch);

  /// Set at construction, never reassigned; thread-safe per contract.
  Pager* const pager_;
  size_t capacity_;
  BufferPoolOptions options_;
  /// unique_ptr for address stability (Shard holds a Mutex and is
  /// neither movable nor copyable).
  std::vector<std::unique_ptr<Shard>> shards_;
  IoStats external_stats_;
};

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_BUFFER_POOL_H_
