#ifndef VITRI_STORAGE_FAULT_PAGER_H_
#define VITRI_STORAGE_FAULT_PAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotated_lock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace vitri::storage {

/// What a fault rule does when it fires.
enum class FaultKind {
  /// Read/Write fails with IoError; the next attempt may succeed (the
  /// rule consumes one of its fires).
  kTransientIoError,
  /// Every matching operation fails with IoError, forever.
  kPersistentIoError,
  /// The operation succeeds but one seeded-random bit of the page is
  /// flipped (in the returned buffer on reads, in the stored bytes on
  /// writes). Silent — detection is the checksum layer's job.
  kBitFlip,
  /// A write persists only the first half of the page; the second half
  /// keeps its previous contents (or zeros for a never-written page).
  /// Models a power-cut torn write. Reported to the caller as success.
  kTornWrite,
};

/// Which pager operation a rule applies to.
enum class FaultOp { kRead, kWrite };

const char* FaultKindName(FaultKind kind);

/// Matches any page id in a FaultRule.
inline constexpr PageId kAnyPage = kInvalidPageId;

/// One entry of a deterministic fault schedule. Matching operations are
/// counted per rule; the rule fires on the (after+every)-th, then every
/// `every`-th match, at most `limit` times (kPersistentIoError ignores
/// `every`/`limit` and fires on every match past `after`).
struct FaultRule {
  FaultKind kind = FaultKind::kTransientIoError;
  FaultOp op = FaultOp::kRead;
  PageId page = kAnyPage;
  uint64_t after = 0;
  uint64_t every = 1;
  uint64_t limit = UINT64_MAX;
};

/// Counters of injected faults, by kind.
struct FaultStats {
  uint64_t transient_io_errors = 0;
  uint64_t persistent_io_errors = 0;
  uint64_t bit_flips = 0;
  uint64_t torn_writes = 0;

  uint64_t total() const {
    return transient_io_errors + persistent_io_errors + bit_flips +
           torn_writes;
  }
  std::string ToString() const;
};

/// Decorator injecting a deterministic, seeded schedule of storage
/// faults into any Pager. Rules can be added/cleared at any time, so a
/// test can build a healthy index first and sabotage it afterwards.
/// Allocate is always passed through unharmed.
///
/// The rule/rng/stats bookkeeping sits under an internal latch so the
/// sharded buffer pool's concurrent I/O keeps schedules deterministic
/// *per rule* (which operation of a page's sequence fires) even though
/// cross-page interleaving is up to the scheduler.
class FaultInjectingPager final : public Pager {
 public:
  explicit FaultInjectingPager(std::unique_ptr<Pager> base,
                               uint64_t seed = 2005);

  void AddRule(const FaultRule& rule) VITRI_EXCLUDES(mu_);
  void ClearRules() VITRI_EXCLUDES(mu_);

  FaultStats fault_stats() const VITRI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  Pager* base() const { return base_.get(); }

  PageId num_pages() const override;
  Result<PageId> Allocate() override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* src) override;

 private:
  struct ArmedRule {
    FaultRule rule;
    uint64_t matches = 0;
    uint64_t fired = 0;
  };

  /// Returns the kind of the first rule firing for (op, id), advancing
  /// all matching rules' counters under one latch hold (so each rule's
  /// schedule position is race-free); kind is returned by value because
  /// the rule vector may be cleared while the caller acts on the
  /// verdict. nullopt when no rule fires. Counting happens separately at
  /// the action site — a bit-flip whose underlying read failed consumed
  /// a fire but injected nothing.
  std::optional<FaultKind> NextFault(FaultOp op, PageId id)
      VITRI_EXCLUDES(mu_);
  void CountFault(FaultKind kind) VITRI_EXCLUDES(mu_);
  void FlipRandomBit(uint8_t* page) VITRI_EXCLUDES(mu_);

  std::unique_ptr<Pager> base_;
  mutable Mutex mu_;
  std::vector<ArmedRule> rules_ VITRI_GUARDED_BY(mu_);
  Rng rng_ VITRI_GUARDED_BY(mu_);
  FaultStats stats_ VITRI_GUARDED_BY(mu_);
};

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_FAULT_PAGER_H_
