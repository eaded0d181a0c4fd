#include "storage/pager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/os.h"
#include "storage/page_footer.h"
#include "storage/posix_io.h"

namespace vitri::storage {

// --- MemPager ---------------------------------------------------------

MemPager::MemPager(size_t page_size) : Pager(page_size) {}

PageId MemPager::num_pages() const {
  MutexLock lock(mu_);
  return static_cast<PageId>(pages_.size());
}

Result<PageId> MemPager::Allocate() {
  MutexLock lock(mu_);
  if (pages_.size() >= kInvalidPageId) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  pages_.emplace_back(page_size(), 0);
  return static_cast<PageId>(pages_.size() - 1);
}

uint8_t* MemPager::PageData(PageId id) {
  MutexLock lock(mu_);
  if (id >= pages_.size()) return nullptr;
  // Deque elements never move on push_back, so the pointer outlives the
  // latch; the caller copies outside it (same-page exclusion is the
  // caller's per the Pager contract).
  return pages_[id].data();
}

Status MemPager::Read(PageId id, uint8_t* out) {
  uint8_t* data = PageData(id);
  if (data == nullptr) {
    return Status::OutOfRange("read of unallocated page");
  }
  std::memcpy(out, data, page_size());
  return Status::OK();
}

Status MemPager::Write(PageId id, const uint8_t* src) {
  uint8_t* data = PageData(id);
  if (data == nullptr) {
    return Status::OutOfRange("write of unallocated page");
  }
  std::memcpy(data, src, page_size());
  return Status::OK();
}

Status MemPager::Sync() { return Status::OK(); }

// --- integrity scan ---------------------------------------------------

Result<PageVerifyReport> VerifyAllPages(Pager* pager) {
  PageVerifyReport report;
  std::vector<uint8_t> buf(pager->page_size());
  const PageId n = pager->num_pages();
  for (PageId id = 0; id < n; ++id) {
    ++report.pages_scanned;
    if (!pager->Read(id, buf.data()).ok()) {
      report.corrupt.push_back(id);
      continue;
    }
    if (!PageIsStamped(buf.data(), buf.size())) {
      ++report.unstamped;
      continue;
    }
    if (!VerifyPageFooter(buf.data(), buf.size(), id).ok()) {
      report.corrupt.push_back(id);
    }
  }
  return report;
}

// --- FilePager --------------------------------------------------------

FilePager::FilePager(int fd, size_t page_size, PageId num_pages,
                     FileSyncMode sync_mode)
    : Pager(page_size),
      fd_(fd),
      num_pages_(num_pages),
      sync_mode_(sync_mode) {}

FilePager::~FilePager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FilePager>> FilePager::Open(const std::string& path,
                                                   size_t page_size,
                                                   FileSyncMode sync_mode) {
  if (page_size == 0) {
    return Status::InvalidArgument("page size must be positive");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + ErrnoString(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat(" + path + "): " + ErrnoString(errno));
  }
  if (static_cast<size_t>(st.st_size) % page_size != 0) {
    ::close(fd);
    return Status::Corruption(path +
                              ": size is not a multiple of the page size");
  }
  const PageId pages =
      static_cast<PageId>(static_cast<size_t>(st.st_size) / page_size);
  return std::unique_ptr<FilePager>(
      new FilePager(fd, page_size, pages, sync_mode));
}

PageId FilePager::num_pages() const {
  return num_pages_.load(std::memory_order_acquire);
}

Result<PageId> FilePager::Allocate() {
  // Extension is serialized: the zero-fill write must land before the
  // new count is published, or a racing Read could see a valid id whose
  // bytes pread reports as EOF.
  MutexLock lock(alloc_mu_);
  const PageId current = num_pages_.load(std::memory_order_relaxed);
  if (current >= kInvalidPageId) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  std::vector<uint8_t> zeros(page_size(), 0);
  const off_t offset =
      static_cast<off_t>(current) * static_cast<off_t>(page_size());
  VITRI_RETURN_IF_ERROR(
      WriteFullyAt(fd_, zeros.data(), page_size(), offset));
  num_pages_.store(current + 1, std::memory_order_release);
  return current;
}

Status FilePager::Read(PageId id, uint8_t* out) {
  if (id >= num_pages_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("read of unallocated page");
  }
  const off_t offset =
      static_cast<off_t>(id) * static_cast<off_t>(page_size());
  return ReadFullyAt(fd_, out, page_size(), offset);
}

Status FilePager::Write(PageId id, const uint8_t* src) {
  if (id >= num_pages_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("write of unallocated page");
  }
  const off_t offset =
      static_cast<off_t>(id) * static_cast<off_t>(page_size());
  return WriteFullyAt(fd_, src, page_size(), offset);
}

Status FilePager::Sync() { return SyncFd(fd_, sync_mode_); }

}  // namespace vitri::storage
