#ifndef VITRI_STORAGE_RETRY_PAGER_H_
#define VITRI_STORAGE_RETRY_PAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace vitri::storage {

/// Bounded-exponential-backoff retry budget for transient I/O errors.
struct RetryPolicy {
  /// Total attempts per operation (1 initial + max_attempts-1 retries).
  int max_attempts = 4;
  /// Sleep before the first retry; doubles (times `multiplier`) after
  /// each failed retry, capped at max_backoff.
  std::chrono::microseconds initial_backoff{100};
  double multiplier = 2.0;
  std::chrono::microseconds max_backoff{5000};
};

/// Decorator that retries *transient* failures — operations failing with
/// IoError — up to the policy's budget. Corruption is never retried: a
/// checksum mismatch is deterministic, and re-reading rotten bytes only
/// wastes the error budget. All other codes propagate immediately too.
class RetryingPager final : public Pager {
 public:
  explicit RetryingPager(std::unique_ptr<Pager> base,
                         RetryPolicy policy = RetryPolicy{});

  /// Total retries performed (not counting first attempts). Atomic:
  /// the sharded buffer pool drives this decorator from many threads.
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  /// Optional IoStats to mirror the retry counter into (typically the
  /// buffer pool's, so its cumulative stats() report retries).
  void set_stats_sink(IoStats* stats) { stats_sink_ = stats; }

  /// Test hook: replaces the backoff sleep (default:
  /// std::this_thread::sleep_for).
  void set_sleep_fn(std::function<void(std::chrono::microseconds)> fn) {
    sleep_fn_ = std::move(fn);
  }

  Pager* base() const { return base_.get(); }
  const RetryPolicy& policy() const { return policy_; }

  PageId num_pages() const override;
  Result<PageId> Allocate() override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* src) override;
  Status Sync() override;

 private:
  Status RunWithRetries(const std::function<Status()>& op);

  std::unique_ptr<Pager> base_;
  RetryPolicy policy_;
  std::atomic<uint64_t> retries_{0};
  IoStats* stats_sink_ = nullptr;
  std::function<void(std::chrono::microseconds)> sleep_fn_;
};

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_RETRY_PAGER_H_
