#include "storage/io_stats.h"

#include <sstream>

namespace vitri::storage {

IoSnapshot IoStats::Snapshot() const {
  IoSnapshot s;
  // Hits before fetches, the hits load acquiring: BufferPool::Fetch
  // counts a fetch before its hit, so every hit read here brings its
  // fetch with it and a snapshot never shows more hits than fetches,
  // however long the reader stalls between the two loads.
  s.cache_hits = cache_hits.load(std::memory_order_acquire);
  s.logical_reads = logical_reads.load(std::memory_order_relaxed);
  s.physical_reads = physical_reads.load(std::memory_order_relaxed);
  s.physical_writes = physical_writes.load(std::memory_order_relaxed);
  s.allocations = allocations.load(std::memory_order_relaxed);
  s.checksum_failures = checksum_failures.load(std::memory_order_relaxed);
  s.retries = retries.load(std::memory_order_relaxed);
  s.evictions = evictions.load(std::memory_order_relaxed);
  return s;
}

IoStats& IoStats::operator=(const IoSnapshot& values) {
  logical_reads.store(values.logical_reads, std::memory_order_relaxed);
  cache_hits.store(values.cache_hits, std::memory_order_relaxed);
  physical_reads.store(values.physical_reads, std::memory_order_relaxed);
  physical_writes.store(values.physical_writes, std::memory_order_relaxed);
  allocations.store(values.allocations, std::memory_order_relaxed);
  checksum_failures.store(values.checksum_failures,
                          std::memory_order_relaxed);
  retries.store(values.retries, std::memory_order_relaxed);
  evictions.store(values.evictions, std::memory_order_relaxed);
  return *this;
}

namespace {

std::string CountersToString(const IoSnapshot& s) {
  std::ostringstream os;
  os << "logical_reads=" << s.logical_reads
     << " cache_hits=" << s.cache_hits
     << " physical_reads=" << s.physical_reads
     << " physical_writes=" << s.physical_writes
     << " allocations=" << s.allocations
     << " checksum_failures=" << s.checksum_failures
     << " retries=" << s.retries
     << " evictions=" << s.evictions;
  return os.str();
}

}  // namespace

std::string IoStats::ToString() const { return CountersToString(Snapshot()); }

std::string IoSnapshot::ToString() const { return CountersToString(*this); }

}  // namespace vitri::storage
