#ifndef VITRI_STORAGE_WAL_H_
#define VITRI_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/posix_io.h"

namespace vitri::storage {

// Write-ahead log for online index ingest (DESIGN.md §13).
//
// On-disk format: a flat sequence of CRC-32C-framed records,
//
//   [u32 length][u32 crc][u8 type][payload: length-1 bytes]
//
// where `length` counts the type byte plus payload and `crc` covers the
// same span. Two record types exist: kData carries an opaque payload the
// layer above interprets (an encoded insert), kCommit carries a u64
// sequence number and marks everything since the previous commit as
// atomically applied. Replay buffers data records and surfaces them only
// when their commit marker arrives intact; a torn or corrupt record ends
// replay at the last commit boundary — by construction everything before
// it was framed and checksummed — and repair truncates the tail off.

/// Record type tags (the `type` byte above).
inline constexpr uint8_t kWalDataRecord = 1;
inline constexpr uint8_t kWalCommitRecord = 2;

/// Bytes of framing before the type byte: u32 length + u32 crc.
inline constexpr size_t kWalFrameHeaderSize = 8;

/// Upper bound on a single record's `length` field. Anything larger is
/// treated as a torn/corrupt frame during replay, so this also caps how
/// much memory a hostile or scrambled log can make replay allocate.
inline constexpr uint32_t kWalMaxRecordLength = 64u << 20;

/// When Commit() makes the log durable.
enum class WalSyncMode : uint8_t {
  /// Sync on every commit. Slowest, loses nothing that was acked.
  kEveryCommit = 0,
  /// Sync once enough commits or bytes accumulate (group commit). A
  /// crash can lose the unsynced suffix of *acked* commits; the
  /// durable_commits() counter tells the caller how much is safe.
  kGrouped = 1,
};

struct WalOptions {
  WalSyncMode sync_mode = WalSyncMode::kEveryCommit;
  /// kGrouped: sync when this many commits are waiting...
  uint64_t group_commits = 8;
  /// ...or when this many unsynced bytes accumulate, whichever first.
  uint64_t group_bytes = 256 * 1024;
  /// How the underlying file turns "written" into "durable".
  FileSyncMode file_sync = FileSyncMode::kFdatasync;
};

/// Append-only byte log the WAL writes through. The indirection exists
/// so tests can interpose a power-failure simulator between the writer
/// and the disk (FaultInjectingWalFile below).
class WalFile {
 public:
  virtual ~WalFile() = default;
  WalFile(const WalFile&) = delete;
  WalFile& operator=(const WalFile&) = delete;

  virtual uint64_t size() const = 0;
  virtual Status Append(const uint8_t* data, size_t n) = 0;
  virtual Status ReadAt(uint64_t offset, uint8_t* out, size_t n) = 0;
  virtual Status Truncate(uint64_t new_size) = 0;
  virtual Status Sync() = 0;

 protected:
  WalFile() = default;
};

/// Heap-backed WalFile: the "disk" is a byte vector and Sync is a
/// no-op. Used by tests and the wal_replay fuzz harness, which feeds
/// arbitrary bytes straight into ReplayWal without touching a
/// filesystem.
class MemWalFile final : public WalFile {
 public:
  MemWalFile() = default;
  explicit MemWalFile(std::vector<uint8_t> contents)
      : data_(std::move(contents)) {}

  uint64_t size() const override { return data_.size(); }
  Status Append(const uint8_t* data, size_t n) override {
    data_.insert(data_.end(), data, data + n);
    return Status::OK();
  }
  Status ReadAt(uint64_t offset, uint8_t* out, size_t n) override;
  Status Truncate(uint64_t new_size) override;
  Status Sync() override { return Status::OK(); }

  const std::vector<uint8_t>& contents() const { return data_; }

 private:
  std::vector<uint8_t> data_;
};

/// POSIX-backed WalFile. EINTR-safe; Sync() uses `sync_mode`.
class PosixWalFile final : public WalFile {
 public:
  static Result<std::unique_ptr<PosixWalFile>> Open(
      const std::string& path, FileSyncMode sync_mode = FileSyncMode::kFdatasync);
  ~PosixWalFile() override;

  uint64_t size() const override { return size_; }
  Status Append(const uint8_t* data, size_t n) override;
  Status ReadAt(uint64_t offset, uint8_t* out, size_t n) override;
  Status Truncate(uint64_t new_size) override;
  Status Sync() override;

 private:
  PosixWalFile(int fd, uint64_t size, FileSyncMode sync_mode);

  int fd_;
  uint64_t size_;
  FileSyncMode sync_mode_;
};

/// Shared countdown driving a simulated power failure. Every durability
/// operation — WAL file appends/syncs/truncates and the recovery
/// layer's named crash-hook points — ticks it once; on the scheduled
/// tick the power goes out: that operation takes partial effect and
/// every later one fails with IoError until the harness "reboots" by
/// reopening through a healthy file. Deterministic given (seed, at_op).
struct CrashSchedule {
  CrashSchedule(uint64_t seed, uint64_t at_op) : rng(seed), remaining(at_op) {}

  /// Returns true when power is (now) out. The first true transition
  /// is the cut itself; callers use `dead` to distinguish it.
  bool Tick() {
    ++ticks;
    if (dead) return true;
    if (remaining == 0) {
      dead = true;
      return true;
    }
    --remaining;
    return false;
  }

  Rng rng;
  uint64_t remaining;
  bool dead = false;
  /// Total ops observed; a dry run with a huge `at_op` reads this back
  /// to learn how many crash points a workload exposes.
  uint64_t ticks = 0;
};

/// Power-failure decorator over a WalFile (the file-level analogue of
/// FaultInjectingPager). Counts durability operations through a shared
/// CrashSchedule; when the cut lands on an Append the data still
/// reaches the OS "page cache" (the base file), but then the unsynced
/// suffix is torn: the file is truncated to the last synced size plus a
/// seeded-random slice of whatever was written since — exactly the
/// state a real power cut leaves behind. After the cut every operation
/// returns IoError("simulated power failure").
class FaultInjectingWalFile final : public WalFile {
 public:
  FaultInjectingWalFile(std::unique_ptr<WalFile> base,
                        std::shared_ptr<CrashSchedule> schedule);

  uint64_t size() const override { return base_->size(); }
  Status Append(const uint8_t* data, size_t n) override;
  Status ReadAt(uint64_t offset, uint8_t* out, size_t n) override;
  Status Truncate(uint64_t new_size) override;
  Status Sync() override;

 private:
  Status PowerCut();

  std::unique_ptr<WalFile> base_;
  std::shared_ptr<CrashSchedule> schedule_;
  uint64_t synced_size_;
  bool cut_applied_ = false;
};

/// What replay found in (and did to) a log.
struct WalReplayResult {
  /// Commit markers applied.
  uint64_t commits = 0;
  /// Data records inside those committed batches.
  uint64_t records_applied = 0;
  /// Intact data records past the last commit marker — written but
  /// never committed, so discarded.
  uint64_t records_discarded = 0;
  /// File offset of the end of the last committed record.
  uint64_t committed_end = 0;
  /// Bytes past committed_end before repair (torn tail + uncommitted).
  uint64_t bytes_discarded = 0;
  /// True when replay stopped on a torn or corrupt frame (as opposed to
  /// a clean end-of-log).
  bool torn_tail = false;
};

/// Scans `file` from offset 0, invoking `apply(seqno, payload)` for
/// every data record of every committed batch, in order. Stops at the
/// first torn/corrupt frame or clean EOF; if `repair` is set, truncates
/// the file back to the last commit boundary so a writer can append.
/// An `apply` error aborts replay and is returned as-is.
Result<WalReplayResult> ReplayWal(
    WalFile* file,
    const std::function<Status(uint64_t seqno,
                               std::span<const uint8_t> payload)>& apply,
    bool repair);

/// Appends framed records to a WalFile with group commit.
///
/// Usage: Append() one or more payloads (buffered in memory), then
/// Commit() to frame them together with a commit marker and write the
/// whole batch in a single file append — a crash can tear the batch but
/// never interleave it. Commit() then syncs per WalOptions.sync_mode.
/// Not thread-safe and deliberately unannotated: ViTriIndex owns the
/// writer behind its latch (wal_ is GUARDED_BY the index latch), so the
/// serialization is enforced one layer up where the capability lives.
/// See DESIGN.md §14.
class WalWriter {
 public:
  /// Takes ownership of `file`, appending after its current contents
  /// (run ReplayWal with repair first so the tail is a commit
  /// boundary). `base_seqno` is the last committed sequence number
  /// already in the log — usually WalReplayResult::commits.
  WalWriter(std::unique_ptr<WalFile> file, WalOptions options,
            uint64_t base_seqno);

  /// Buffers one data record for the next Commit(). Cheap; no I/O.
  Status Append(std::span<const uint8_t> payload);

  /// Writes buffered records + a commit marker as one file append, then
  /// syncs per policy. On success committed() advances; on failure the
  /// buffered batch is dropped (the file may hold a torn prefix of it —
  /// replay will discard it).
  Status Commit();

  /// Forces everything committed so far durable (group-commit drain).
  Status Sync();

  /// Last committed sequence number (monotonic, base_seqno + commits).
  uint64_t committed() const { return seqno_; }
  /// Highest sequence number covered by a successful sync. With
  /// kEveryCommit this tracks committed(); with kGrouped it lags.
  uint64_t durable() const { return durable_seqno_; }
  /// Commits made by this writer (excludes base_seqno).
  uint64_t commits() const { return seqno_ - base_seqno_; }
  uint64_t durable_commits() const {
    return durable_seqno_ <= base_seqno_ ? 0 : durable_seqno_ - base_seqno_;
  }
  uint64_t appended_bytes() const { return appended_bytes_; }
  const WalOptions& options() const { return options_; }
  WalFile* file() { return file_.get(); }

 private:
  std::unique_ptr<WalFile> file_;
  WalOptions options_;
  uint64_t base_seqno_;
  uint64_t seqno_;
  uint64_t durable_seqno_;
  std::vector<uint8_t> batch_;
  uint64_t batch_records_ = 0;
  uint64_t unsynced_commits_ = 0;
  uint64_t unsynced_bytes_ = 0;
  uint64_t appended_bytes_ = 0;
};

/// Frames one record (header + type + payload) onto `out`. Exposed for
/// tests that construct logs byte-by-byte.
void AppendWalRecord(uint8_t type, std::span<const uint8_t> payload,
                     std::vector<uint8_t>* out);

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_WAL_H_
