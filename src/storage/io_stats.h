#ifndef VITRI_STORAGE_IO_STATS_H_
#define VITRI_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace vitri::storage {

/// Plain-integer copy of the page-traffic counters: the value type for
/// deltas, query traces and per-request tallies. Field-wise arithmetic
/// on snapshots cannot race (no atomics), which is why every derived
/// quantity is computed here rather than on live counters.
struct IoSnapshot {
  uint64_t logical_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t allocations = 0;
  uint64_t checksum_failures = 0;
  uint64_t evictions = 0;
  /// Always 0: the pool loads pages on demand only, so no fetch is ever
  /// served by a page loaded ahead of it. Kept, uncounted and outside
  /// the arithmetic below, because perfbench still reads it for
  /// pool.prefetch_hit_ratio; the next benchmark change drops both.
  uint64_t prefetch_hits = 0;

  /// Field-wise sum: how a sharded pool's per-shard snapshots fold into
  /// one total (each addend is a plain integer, so totals never tear).
  IoSnapshot operator+(const IoSnapshot& rhs) const {
    IoSnapshot out;
    out.logical_reads = logical_reads + rhs.logical_reads;
    out.cache_hits = cache_hits + rhs.cache_hits;
    out.physical_reads = physical_reads + rhs.physical_reads;
    out.physical_writes = physical_writes + rhs.physical_writes;
    out.allocations = allocations + rhs.allocations;
    out.checksum_failures = checksum_failures + rhs.checksum_failures;
    out.evictions = evictions + rhs.evictions;
    return out;
  }

  IoSnapshot operator-(const IoSnapshot& rhs) const {
    IoSnapshot out;
    out.logical_reads = logical_reads - rhs.logical_reads;
    out.cache_hits = cache_hits - rhs.cache_hits;
    out.physical_reads = physical_reads - rhs.physical_reads;
    out.physical_writes = physical_writes - rhs.physical_writes;
    out.allocations = allocations - rhs.allocations;
    out.checksum_failures = checksum_failures - rhs.checksum_failures;
    out.evictions = evictions - rhs.evictions;
    return out;
  }
  bool operator==(const IoSnapshot&) const = default;

  std::string ToString() const;
};

/// Counters describing page traffic. "Logical" events are buffer-pool
/// fetches (what the paper's I/O-cost figures count as page accesses);
/// "physical" events are transfers that actually hit the backing pager.
///
/// The pool's IoStats are cumulative: they only ever count up, for every
/// caller at once. A query's own costs come from its IoTally instead, so
/// nothing differences these counters to attribute I/O to a request.
/// Every counter is an atomic, so increments from concurrent queries
/// (BatchKnn fan-out, parallel ingest) never race. Copying an IoStats
/// reads each counter once — the copy is a per-field snapshot, not a
/// globally consistent one, which is all reporting needs — except that
/// it never shows more cache hits than logical reads (see Snapshot()).
struct IoStats {
  std::atomic<uint64_t> logical_reads{0};   // Buffer-pool fetches.
  std::atomic<uint64_t> cache_hits{0};      // Served without pager I/O.
  std::atomic<uint64_t> physical_reads{0};  // Pager reads.
  std::atomic<uint64_t> physical_writes{0};  // Pager writes.
  std::atomic<uint64_t> allocations{0};      // Newly allocated pages.
  std::atomic<uint64_t> checksum_failures{0};  // Footer-rejected reads.
  std::atomic<uint64_t> evictions{0};  // Frames recycled by the replacer.

  IoStats() = default;
  /// Live counters holding a snapshot's values (how the pool hands out
  /// its shard-folded totals as an IoStats).
  explicit IoStats(const IoSnapshot& values) { *this = values; }
  IoStats(const IoStats& rhs) : IoStats(rhs.Snapshot()) {}
  IoStats& operator=(const IoStats& rhs) { return *this = rhs.Snapshot(); }
  IoStats& operator=(const IoSnapshot& values);

  void Reset() { *this = IoSnapshot{}; }

  /// Per-field relaxed snapshot as plain integers. All delta arithmetic
  /// goes through snapshots, so there is exactly one audited load site
  /// for every counter.
  IoSnapshot Snapshot() const;

  IoStats operator-(const IoStats& rhs) const {
    return IoStats(Snapshot() - rhs.Snapshot());
  }

  std::string ToString() const;
};

/// One request's own page traffic. BufferPool::Fetch adds every event of
/// a demand fetch made for the request here, next to the shard's
/// cumulative IoStats, so a query's page counts are exact however many
/// other queries share the pool. Plain integers: one query on one
/// thread owns its tally.
struct IoTally {
  IoSnapshot io;
  /// When set, Fetch also sums its own wall time into fetch_seconds
  /// (a traced query's "scan" time). An untimed tally reads no clock.
  bool timed = false;
  double fetch_seconds = 0.0;
};

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_IO_STATS_H_
