#ifndef VITRI_STORAGE_PAGER_H_
#define VITRI_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_lock.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/posix_io.h"

namespace vitri::storage {

/// Abstract fixed-size-page store. Implementations: in-memory (tests,
/// benchmarks) and file-backed (durability, examples).
///
/// Thread-safety contract (since the buffer pool was sharded and its
/// I/O moved outside the shard latches, DESIGN.md §16): implementations
/// must tolerate concurrent Read/Write calls on *distinct*
/// pages, plus concurrent Allocate/num_pages/Sync from any thread.
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

  /// Flushes buffered writes to the backing medium.
  virtual Status Sync() = 0;

 protected:
  explicit Pager(size_t page_size) : page_size_(page_size) {}

 private:
  size_t page_size_;
};

/// Heap-backed pager. Fast and ephemeral. Pages live in a deque so
/// element addresses survive Allocate's growth: Read/Write resolve the
/// page buffer under the latch, then memcpy outside it — concurrent
/// transfers on distinct pages proceed in parallel (per the Pager
/// contract, same-page concurrency is the caller's to exclude).
class MemPager final : public Pager {
 public:
  explicit MemPager(size_t page_size = kDefaultPageSize);

  PageId num_pages() const override;
  Result<PageId> Allocate() override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* src) override;
  Status Sync() override;

 private:
  /// Resolves a page's stable buffer address, or null if unallocated.
  uint8_t* PageData(PageId id) VITRI_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::deque<std::vector<uint8_t>> pages_ VITRI_GUARDED_BY(mu_);
};

/// Result of an integrity scan over a pager (see VerifyAllPages).
struct PageVerifyReport {
  uint64_t pages_scanned = 0;
  /// Pages carrying a footer whose epoch or checksum is wrong.
  std::vector<PageId> corrupt;
  /// Pages without a footer (never written through a BufferPool, or
  /// written by a pre-footer build) — readable but unverifiable.
  uint64_t unstamped = 0;

  bool clean() const { return corrupt.empty(); }
};

/// Reads every page of `pager` and verifies its integrity footer. Read
/// failures count the page as corrupt too (the bytes are unreachable).
Result<PageVerifyReport> VerifyAllPages(Pager* pager);

/// File-backed pager over a single file, pages stored contiguously.
/// Read/Write are plain pread/pwrite (safe concurrently on one fd);
/// Allocate serializes extension under a latch with the page count
/// published atomically for the lock-free bounds checks.
class FilePager final : public Pager {
 public:
  /// Opens (creating if necessary) `path`. The existing file length must
  /// be a multiple of page_size. `sync_mode` selects what Sync() does:
  /// fsync (default), fdatasync (skips metadata recovery never reads),
  /// or none (benchmarks; durability left to OS writeback).
  static Result<std::unique_ptr<FilePager>> Open(
      const std::string& path, size_t page_size = kDefaultPageSize,
      FileSyncMode sync_mode = FileSyncMode::kFsync);

  ~FilePager() override;

  PageId num_pages() const override;
  Result<PageId> Allocate() override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* src) override;
  Status Sync() override;

  FileSyncMode sync_mode() const { return sync_mode_; }

 private:
  FilePager(int fd, size_t page_size, PageId num_pages,
            FileSyncMode sync_mode);

  int fd_;
  Mutex alloc_mu_;
  std::atomic<PageId> num_pages_;
  FileSyncMode sync_mode_;
};

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_PAGER_H_
