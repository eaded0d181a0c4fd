#include "storage/pager.h"

#include <cstring>

namespace vitri::storage {

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

}  // namespace vitri::storage
