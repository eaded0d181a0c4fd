#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/os.h"
#include "storage/page_footer.h"

namespace vitri::storage {

void PageRef::MarkDirty() {
  VITRI_DCHECK(valid()) << "MarkDirty on a released PageRef";
  // Dirtiness is latched at unpin time; remember it locally.
  dirty_latch_ = true;
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_, dirty_latch_);
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPageId;
  }
}

size_t ResolvePoolShards(size_t capacity, const BufferPoolOptions& options) {
  size_t n = options.shards;
  // Env override applies to *auto* only: code that pins an explicit
  // count did so for a reason (tests proving shard-local properties).
  if (n == 0) n = GetEnvPositive("VITRI_POOL_SHARDS").value_or(0);
  if (n == 0) n = std::clamp<size_t>(capacity / 8, 1, 8);
  return std::clamp<size_t>(n, 1, capacity);
}

namespace {

Status PoolInvariantViolation(const std::string& what) {
  return Status::Internal("buffer pool invariant violated: " + what);
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : BufferPool(pager, capacity, BufferPoolOptions{}) {}

BufferPool::BufferPool(Pager* pager, size_t capacity,
                       const BufferPoolOptions& options)
    : pager_(pager),
      capacity_(capacity == 0 ? 1 : capacity) {
  VITRI_CHECK(pager->page_size() > kPageFooterSize)
      << "page size must leave room for the integrity footer";
  const size_t num_shards = ResolvePoolShards(capacity_, options);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    // Spread the frames as evenly as integer division allows.
    const size_t frames =
        capacity_ / num_shards + (i < capacity_ % num_shards ? 1 : 0);
    shard->frames.resize(frames);
    for (Frame& f : shard->frames) f.data.resize(pager_->page_size());
    shard->free_list.reserve(frames);
    // Reversed so pop_back hands out slot 0 first.
    for (size_t slot = frames; slot > 0; --slot) {
      shard->free_list.push_back(slot - 1);
    }
    shard->replacer = ClockReplacer(frames);
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  const Status s = FlushAll();
  if (!s.ok()) {
    VITRI_LOG(kError) << "BufferPool flush on destruction failed: "
                      << s.ToString();
  }
  // The resident gauge is process-wide across pools; retire our frames.
  VITRI_METRIC_GAUGE("storage.pool.resident")
      ->Add(-static_cast<int64_t>(resident()));
}

Result<PageRef> BufferPool::Fetch(PageId id, IoTally* tally) {
  using Clock = std::chrono::steady_clock;
  const bool timed = tally != nullptr && tally->timed;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  Shard& s = ShardFor(id);
  ++s.stats.logical_reads;
  if (tally != nullptr) ++tally->io.logical_reads;
  // The registry counters are process-wide and cumulative, like the
  // shard's IoStats; what this one request cost goes to its tally.
  VITRI_METRIC_COUNTER("storage.pool.fetches")->Increment();
  Result<uint8_t*> data = LoadPage(s, id, tally);
  if (timed) {
    tally->fetch_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  VITRI_ASSIGN_OR_RETURN(uint8_t * page, std::move(data));
  return PageRef(this, id, page);
}

Result<PageRef> BufferPool::New() {
  // The pager is thread-safe; no pool latch is needed around Allocate.
  VITRI_ASSIGN_OR_RETURN(const PageId id, pager_->Allocate());
  Shard& s = ShardFor(id);
  ++s.stats.allocations;
  VITRI_METRIC_COUNTER("storage.pool.allocations")->Increment();
  VITRI_ASSIGN_OR_RETURN(const size_t slot, ClaimSlot(s, nullptr));
  Frame& f = s.frames[slot];
  MutexLock lock(s.latch);
  // Freshly allocated ids are unpublished: no concurrent fetch, load, or
  // eviction can name this page yet.
  VITRI_DCHECK(s.table.find(id) == s.table.end())
      << "freshly allocated page " << id << " already had a frame";
  f.id = id;
  f.pin_count = 1;
  f.dirty = true;
  f.loading = false;
  std::fill(f.data.begin(), f.data.end(), 0);
  s.table.emplace(id, slot);
  VITRI_METRIC_GAUGE("storage.pool.resident")->Add(1);
  VITRI_DCHECK_OK(ValidateShardLocked(s));
  return PageRef(this, id, f.data.data());
}

Result<uint8_t*> BufferPool::LoadPage(Shard& s, PageId id, IoTally* tally) {
  for (;;) {
    {
      MutexLock lock(s.latch);
      for (;;) {
        auto it = s.table.find(id);
        if (it != s.table.end() && s.frames[it->second].loading) {
          // Another thread is filling the frame; its bytes are not
          // ours to look at yet.
          s.cv.Wait(lock);
          continue;
        }
        if (it == s.table.end() && s.evicting.count(id) > 0) {
          // Mid-writeback: re-reading now would resurrect the stale
          // on-disk version of the page. Wait for the write to land.
          s.cv.Wait(lock);
          continue;
        }
        break;
      }
      auto it = s.table.find(id);
      if (it != s.table.end()) {
        Frame& f = s.frames[it->second];
        ++s.stats.cache_hits;
        if (tally != nullptr) ++tally->io.cache_hits;
        VITRI_METRIC_COUNTER("storage.pool.hits")->Increment();
        if (f.pin_count == 0) s.replacer.Pin(it->second);
        ++f.pin_count;
        return f.data.data();
      }
    }

    // Miss. Claim a slot (ClaimSlot may drop into write-back I/O).
    VITRI_ASSIGN_OR_RETURN(const size_t slot, ClaimSlot(s, tally));
    Frame& f = s.frames[slot];
    {
      MutexLock lock(s.latch);
      if (s.table.count(id) > 0 || s.evicting.count(id) > 0) {
        // Raced with another loader (or a fresh evictor) of the same
        // page while unlatched; hand the slot back and resolve via the
        // hit/wait path above.
        s.free_list.push_back(slot);
        continue;
      }
      f.id = id;
      f.pin_count = 1;
      f.dirty = false;
      f.loading = true;
      s.table.emplace(id, slot);
      ++s.stats.physical_reads;
      if (tally != nullptr) ++tally->io.physical_reads;
      VITRI_METRIC_COUNTER("storage.pool.misses")->Increment();
    }

    // The transfer runs unlatched; `loading` marks the bytes as ours.
    const Status read = pager_->Read(id, f.data.data());
    const Status status =
        read.ok() ? VerifyPageFooter(f.data.data(), pager_->page_size(), id)
                  : read;

    MutexLock lock(s.latch);
    f.loading = false;
    if (!status.ok()) {
      if (read.ok()) {
        ++s.stats.checksum_failures;
        if (tally != nullptr) ++tally->io.checksum_failures;
        VITRI_METRIC_COUNTER("storage.pool.checksum_failures")->Increment();
        s.corrupt.insert(id);
      }
      s.table.erase(id);
      f.id = kInvalidPageId;
      f.pin_count = 0;
      s.free_list.push_back(slot);
      s.cv.NotifyAll();
      return status;
    }
    VITRI_METRIC_GAUGE("storage.pool.resident")->Add(1);
    s.cv.NotifyAll();
    VITRI_DCHECK_OK(ValidateShardLocked(s));
    return f.data.data();
  }
}

Result<size_t> BufferPool::ClaimSlot(Shard& s, IoTally* tally) {
  size_t victim = 0;
  PageId victim_id = kInvalidPageId;
  {
    MutexLock lock(s.latch);
    if (!s.free_list.empty()) {
      const size_t slot = s.free_list.back();
      s.free_list.pop_back();
      return slot;
    }
    if (!s.replacer.Victim(&victim)) {
      return Status::ResourceExhausted(
          "buffer pool full and every frame is pinned");
    }
    Frame& vf = s.frames[victim];
    victim_id = vf.id;
    s.table.erase(victim_id);
    if (!vf.dirty) {
      vf.id = kInvalidPageId;
      ++s.stats.evictions;
      if (tally != nullptr) ++tally->io.evictions;
      VITRI_METRIC_COUNTER("storage.pool.evictions")->Increment();
      VITRI_METRIC_GAUGE("storage.pool.resident")->Add(-1);
      return victim;
    }
    s.evicting.insert(victim_id);
  }

  // Dirty victim: stamp and write outside the latch. The frame is in no
  // structure and the page id is parked in `evicting`, so this thread
  // owns both until the relatch below.
  Frame& vf = s.frames[victim];
  StampPageFooter(vf.data.data(), pager_->page_size(), victim_id);
  ++s.stats.physical_writes;
  if (tally != nullptr) ++tally->io.physical_writes;
  VITRI_METRIC_COUNTER("storage.pool.writebacks")->Increment();
  const Status written = pager_->Write(victim_id, vf.data.data());

  MutexLock lock(s.latch);
  s.evicting.erase(victim_id);
  s.cv.NotifyAll();
  if (!written.ok()) {
    // The frame holds the only up-to-date copy of the page; reinstall
    // it unpinned-dirty rather than lose the write.
    s.table.emplace(victim_id, victim);
    s.replacer.Unpin(victim);
    return written;
  }
  vf.dirty = false;
  vf.id = kInvalidPageId;
  ++s.stats.evictions;
  if (tally != nullptr) ++tally->io.evictions;
  VITRI_METRIC_COUNTER("storage.pool.evictions")->Increment();
  VITRI_METRIC_GAUGE("storage.pool.resident")->Add(-1);
  return victim;
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.latch);
    for (auto& [id, slot] : s.table) {
      VITRI_RETURN_IF_ERROR(WriteBackLocked(s, s.frames[slot]));
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.latch);
    for (auto it = s.table.begin(); it != s.table.end();) {
      const size_t slot = it->second;
      Frame& f = s.frames[slot];
      if (f.pin_count > 0) {
        ++it;
        continue;
      }
      VITRI_RETURN_IF_ERROR(WriteBackLocked(s, f));
      s.replacer.Pin(slot);
      f.id = kInvalidPageId;
      s.free_list.push_back(slot);
      it = s.table.erase(it);
      VITRI_METRIC_GAUGE("storage.pool.resident")->Add(-1);
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(PageId id, bool dirty) {
  Shard& s = ShardFor(id);
  MutexLock lock(s.latch);
  auto it = s.table.find(id);
  VITRI_CHECK(it != s.table.end()) << "unpin of unknown page " << id;
  Frame& f = s.frames[it->second];
  VITRI_CHECK(f.pin_count > 0) << "unpin of unpinned page " << id;
  if (dirty) f.dirty = true;
  if (--f.pin_count == 0) s.replacer.Unpin(it->second);
  VITRI_DCHECK_OK(ValidateShardLocked(s));
}

Status BufferPool::WriteBackLocked(Shard& s, Frame& frame) {
  if (!frame.dirty) return Status::OK();
  ++s.stats.physical_writes;
  VITRI_METRIC_COUNTER("storage.pool.writebacks")->Increment();
  StampPageFooter(frame.data.data(), pager_->page_size(), frame.id);
  VITRI_RETURN_IF_ERROR(pager_->Write(frame.id, frame.data.data()));
  frame.dirty = false;
  return Status::OK();
}

IoSnapshot BufferPool::StatsSnapshot() const {
  IoSnapshot total;
  for (const auto& shard : shards_) total = total + shard->stats.Snapshot();
  return total;
}

IoStats BufferPool::stats() const { return IoStats(StatsSnapshot()); }

std::vector<IoSnapshot> BufferPool::ShardSnapshots() const {
  std::vector<IoSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats.Snapshot());
  return out;
}

std::set<PageId> BufferPool::corrupt_pages() const {
  std::set<PageId> out;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    MutexLock lock(s.latch);
    out.insert(s.corrupt.begin(), s.corrupt.end());
  }
  return out;
}

void BufferPool::ClearCorruptPages() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.latch);
    s.corrupt.clear();
  }
}

size_t BufferPool::resident() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    MutexLock lock(s.latch);
    total += s.table.size();
  }
  return total;
}

Status BufferPool::ValidateInvariants() const {
  if (capacity_ < 1) {
    return PoolInvariantViolation("capacity must be >= 1");
  }
  size_t frames_total = 0;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    frames_total += s.frames.size();
    MutexLock lock(s.latch);
    VITRI_RETURN_IF_ERROR(ValidateShardLocked(s));
  }
  if (frames_total != capacity_) {
    return PoolInvariantViolation(
        "shard frame counts sum to " + std::to_string(frames_total) +
        ", not the capacity " + std::to_string(capacity_));
  }
  const IoSnapshot totals = StatsSnapshot();
  if (totals.cache_hits > totals.logical_reads) {
    return PoolInvariantViolation("more cache hits than logical reads");
  }
  return Status::OK();
}

Status BufferPool::ValidateShardLocked(const Shard& s) const {
  const std::string where = "shard " + std::to_string(s.index) + ": ";
  if (s.frames.empty()) {
    return PoolInvariantViolation(where + "owns no frames");
  }
  if (s.table.size() > s.frames.size()) {
    return PoolInvariantViolation(
        where + "resident pages (" + std::to_string(s.table.size()) +
        ") exceed the shard's frames (" + std::to_string(s.frames.size()) +
        ")");
  }

  // Each slot sits in at most one structure. (A slot in neither is a
  // frame mid-claim by an in-flight operation; exactly zero of those
  // exist under the validator's exclusive-access contract, but the
  // DCHECK validations that run inside concurrent operations must
  // tolerate them.)
  std::vector<char> seen(s.frames.size(), 0);
  size_t unpinned_resident = 0;
  for (const auto& [id, slot] : s.table) {
    if (slot >= s.frames.size()) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " maps to slot " + std::to_string(slot) +
                                    " beyond the frame array");
    }
    if (seen[slot]++) {
      return PoolInvariantViolation(where + "slot " + std::to_string(slot) +
                                    " is mapped by two pages");
    }
    const Frame& f = s.frames[slot];
    if (f.id != id) {
      return PoolInvariantViolation(
          where + "frame keyed " + std::to_string(id) +
          " believes it is page " + std::to_string(f.id));
    }
    if (id % shards_.size() != s.index) {
      return PoolInvariantViolation(
          "page " + std::to_string(id) + " is resident in shard " +
          std::to_string(s.index) + " but its home shard is " +
          std::to_string(id % shards_.size()));
    }
    if (f.data.size() != pager_->page_size()) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " buffer size mismatch");
    }
    if (id >= pager_->num_pages()) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " is beyond the pager's extent");
    }
    if (f.pin_count < 0) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " has a negative pin count");
    }
    if (f.pin_count == 0) {
      ++unpinned_resident;
      if (!s.replacer.Contains(slot)) {
        return PoolInvariantViolation(
            where + "unpinned page " + std::to_string(id) +
            " is missing from the replacer");
      }
    } else if (s.replacer.Contains(slot)) {
      return PoolInvariantViolation(
          "replacer holds a candidate entry for pinned page " +
          std::to_string(id) + " in shard " + std::to_string(s.index));
    }
  }

  for (const size_t slot : s.free_list) {
    if (slot >= s.frames.size()) {
      return PoolInvariantViolation(where + "free slot " +
                                    std::to_string(slot) +
                                    " beyond the frame array");
    }
    if (seen[slot]++) {
      return PoolInvariantViolation(where + "slot " + std::to_string(slot) +
                                    " is both free and mapped");
    }
    const Frame& f = s.frames[slot];
    if (f.id != kInvalidPageId || f.pin_count != 0 || f.dirty) {
      return PoolInvariantViolation(where + "free slot " +
                                    std::to_string(slot) +
                                    " holds a live frame");
    }
    if (s.replacer.Contains(slot)) {
      return PoolInvariantViolation(where + "free slot " +
                                    std::to_string(slot) +
                                    " is a replacer candidate");
    }
  }

  if (s.replacer.size() != unpinned_resident) {
    return PoolInvariantViolation(
        where + "replacer tracks " + std::to_string(s.replacer.size()) +
        " candidates but " + std::to_string(unpinned_resident) +
        " resident frames are unpinned");
  }

  if (s.stats.cache_hits.load(std::memory_order_relaxed) >
      s.stats.logical_reads.load(std::memory_order_relaxed)) {
    return PoolInvariantViolation(where +
                                  "more cache hits than logical reads");
  }
  return Status::OK();
}

}  // namespace vitri::storage
