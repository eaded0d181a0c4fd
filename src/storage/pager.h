#ifndef VITRI_STORAGE_PAGER_H_
#define VITRI_STORAGE_PAGER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/annotated_lock.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace vitri::storage {

/// Abstract fixed-size-page store. The index always runs on a MemPager;
/// its durability comes from the snapshot and the WAL (DESIGN.md §13),
/// so a pager is never synced. The interface stays abstract so tests can
/// interpose FaultInjectingPager between the pool and the pages.
///
/// Thread-safety contract (since the buffer pool was sharded and its
/// I/O moved outside the shard latches, DESIGN.md §16): implementations
/// must tolerate concurrent Read/Write calls on *distinct*
/// pages, plus concurrent Allocate/num_pages from any thread.
/// Concurrent Read/Write of the *same* page is excluded by the caller —
/// the pool's per-frame load/evict states serialize per-page I/O.
class Pager {
 public:
  virtual ~Pager() = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Size in bytes of every page.
  size_t page_size() const { return page_size_; }

  /// Number of allocated pages; valid PageIds are [0, num_pages()).
  virtual PageId num_pages() const = 0;

  /// Allocates a new zeroed page and returns its id.
  virtual Result<PageId> Allocate() = 0;

  /// Reads page `id` into `out` (page_size() bytes).
  virtual Status Read(PageId id, uint8_t* out) = 0;

  /// Writes page `id` from `src` (page_size() bytes).
  virtual Status Write(PageId id, const uint8_t* src) = 0;

 protected:
  explicit Pager(size_t page_size) : page_size_(page_size) {}

 private:
  size_t page_size_;
};

/// Heap-backed pager: the one the index builds. Read/Write return OK or
/// OutOfRange, never IoError. Pages live in a deque so element addresses
/// survive Allocate's growth: Read/Write resolve the page buffer under
/// the latch, then memcpy outside it — concurrent transfers on distinct
/// pages proceed in parallel (per the Pager contract, same-page
/// concurrency is the caller's to exclude).
class MemPager final : public Pager {
 public:
  explicit MemPager(size_t page_size = kDefaultPageSize);

  PageId num_pages() const override;
  Result<PageId> Allocate() override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* src) override;

 private:
  /// Resolves a page's stable buffer address, or null if unallocated.
  uint8_t* PageData(PageId id) VITRI_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::deque<std::vector<uint8_t>> pages_ VITRI_GUARDED_BY(mu_);
};

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_PAGER_H_
