#include "storage/retry_pager.h"

#include <algorithm>
#include <thread>

namespace vitri::storage {

RetryingPager::RetryingPager(std::unique_ptr<Pager> base, RetryPolicy policy)
    : Pager(base->page_size()),
      base_(std::move(base)),
      policy_(policy),
      sleep_fn_([](std::chrono::microseconds d) {
        std::this_thread::sleep_for(d);
      }) {}

Status RetryingPager::RunWithRetries(const std::function<Status()>& op) {
  std::chrono::microseconds backoff = policy_.initial_backoff;
  Status status = op();
  for (int attempt = 1;
       attempt < policy_.max_attempts && status.IsIoError(); ++attempt) {
    if (backoff.count() > 0) sleep_fn_(backoff);
    backoff = std::min(
        policy_.max_backoff,
        std::chrono::microseconds(static_cast<int64_t>(
            static_cast<double>(backoff.count()) * policy_.multiplier)));
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (stats_sink_ != nullptr) ++stats_sink_->retries;
    status = op();
  }
  return status;
}

PageId RetryingPager::num_pages() const { return base_->num_pages(); }

Result<PageId> RetryingPager::Allocate() {
  PageId id = kInvalidPageId;
  const Status status = RunWithRetries([&] {
    auto result = base_->Allocate();
    if (result.ok()) id = *result;
    return result.status();
  });
  if (!status.ok()) return status;
  return id;
}

Status RetryingPager::Read(PageId id, uint8_t* out) {
  return RunWithRetries([&] { return base_->Read(id, out); });
}

Status RetryingPager::Write(PageId id, const uint8_t* src) {
  return RunWithRetries([&] { return base_->Write(id, src); });
}

Status RetryingPager::Sync() {
  return RunWithRetries([&] { return base_->Sync(); });
}

}  // namespace vitri::storage
