#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/os.h"
#include "common/stopwatch.h"

namespace vitri::storage {

// --- framing ----------------------------------------------------------

void AppendWalRecord(uint8_t type, std::span<const uint8_t> payload,
                     std::vector<uint8_t>* out) {
  const uint32_t length = static_cast<uint32_t>(payload.size()) + 1;
  const size_t base = out->size();
  out->resize(base + kWalFrameHeaderSize + length);
  uint8_t* p = out->data() + base;
  EncodeU32(p, length);
  p[8] = type;
  if (!payload.empty()) {
    std::memcpy(p + 9, payload.data(), payload.size());
  }
  const uint32_t crc = Crc32c(p + 8, length);
  EncodeU32(p + 4, crc);
}

// --- MemWalFile -------------------------------------------------------

Status MemWalFile::ReadAt(uint64_t offset, uint8_t* out, size_t n) {
  if (offset > data_.size() || data_.size() - offset < n) {
    return Status::IoError("MemWalFile: read past end");
  }
  std::memcpy(out, data_.data() + offset, n);
  return Status::OK();
}

Status MemWalFile::Truncate(uint64_t new_size) {
  if (new_size > data_.size()) {
    return Status::IoError("MemWalFile: truncate would extend");
  }
  data_.resize(new_size);
  return Status::OK();
}

// --- PosixWalFile -----------------------------------------------------

PosixWalFile::PosixWalFile(int fd, uint64_t size, FileSyncMode sync_mode)
    : fd_(fd), size_(size), sync_mode_(sync_mode) {}

PosixWalFile::~PosixWalFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<PosixWalFile>> PosixWalFile::Open(
    const std::string& path, FileSyncMode sync_mode) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + ErrnoString(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat(" + path + "): " + ErrnoString(errno));
  }
  return std::unique_ptr<PosixWalFile>(new PosixWalFile(
      fd, static_cast<uint64_t>(st.st_size), sync_mode));
}

Status PosixWalFile::Append(const uint8_t* data, size_t n) {
  VITRI_RETURN_IF_ERROR(
      WriteFullyAt(fd_, data, n, static_cast<off_t>(size_)));
  size_ += n;
  return Status::OK();
}

Status PosixWalFile::ReadAt(uint64_t offset, uint8_t* out, size_t n) {
  return ReadFullyAt(fd_, out, n, static_cast<off_t>(offset));
}

Status PosixWalFile::Truncate(uint64_t new_size) {
  for (;;) {
    if (::ftruncate(fd_, static_cast<off_t>(new_size)) == 0) break;
    if (errno == EINTR) continue;
    return Status::IoError(std::string("ftruncate: ") +
                           ErrnoString(errno));
  }
  size_ = new_size;
  return Status::OK();
}

Status PosixWalFile::Sync() { return SyncFd(fd_, sync_mode_); }

// --- FaultInjectingWalFile --------------------------------------------

FaultInjectingWalFile::FaultInjectingWalFile(
    std::unique_ptr<WalFile> base, std::shared_ptr<CrashSchedule> schedule)
    : base_(std::move(base)),
      schedule_(std::move(schedule)),
      synced_size_(base_->size()) {}

Status FaultInjectingWalFile::PowerCut() {
  if (!cut_applied_) {
    cut_applied_ = true;
    // Everything synced survives; the unsynced suffix tears at a
    // seeded-random byte.
    const uint64_t unsynced = base_->size() - synced_size_;
    const uint64_t keep =
        unsynced == 0 ? 0 : schedule_->rng.UniformU64(unsynced + 1);
    // Best effort: the harness owns the file state from here.
    (void)base_->Truncate(synced_size_ + keep);
  }
  return Status::IoError("simulated power failure");
}

Status FaultInjectingWalFile::Append(const uint8_t* data, size_t n) {
  if (schedule_->Tick()) {
    // The doomed append still lands in the "page cache" so the tear
    // point can fall inside it.
    if (!cut_applied_) (void)base_->Append(data, n);
    return PowerCut();
  }
  return base_->Append(data, n);
}

Status FaultInjectingWalFile::ReadAt(uint64_t offset, uint8_t* out,
                                     size_t n) {
  // Reads are not durability ops (and replay after "reboot" goes
  // through a fresh healthy file), so they neither tick nor fail.
  return base_->ReadAt(offset, out, n);
}

Status FaultInjectingWalFile::Truncate(uint64_t new_size) {
  if (schedule_->Tick()) return PowerCut();
  VITRI_RETURN_IF_ERROR(base_->Truncate(new_size));
  if (synced_size_ > new_size) synced_size_ = new_size;
  return Status::OK();
}

Status FaultInjectingWalFile::Sync() {
  if (schedule_->Tick()) return PowerCut();
  VITRI_RETURN_IF_ERROR(base_->Sync());
  synced_size_ = base_->size();
  return Status::OK();
}

// --- replay -----------------------------------------------------------

Result<WalReplayResult> ReplayWal(
    WalFile* file,
    const std::function<Status(uint64_t seqno,
                               std::span<const uint8_t> payload)>& apply,
    bool repair) {
  WalReplayResult out;
  const uint64_t file_size = file->size();
  uint64_t offset = 0;

  // Data records seen since the last commit marker, waiting for one.
  std::vector<std::vector<uint8_t>> pending;
  uint64_t next_seqno = 1;

  while (offset < file_size) {
    uint8_t header[kWalFrameHeaderSize];
    if (file_size - offset < kWalFrameHeaderSize) {
      out.torn_tail = true;
      break;
    }
    VITRI_RETURN_IF_ERROR(file->ReadAt(offset, header, sizeof(header)));
    const uint32_t length = DecodeU32(header);
    const uint32_t want_crc = DecodeU32(header + 4);
    if (length == 0 || length > kWalMaxRecordLength ||
        file_size - offset - kWalFrameHeaderSize < length) {
      out.torn_tail = true;
      break;
    }
    std::vector<uint8_t> body(length);
    VITRI_RETURN_IF_ERROR(
        file->ReadAt(offset + kWalFrameHeaderSize, body.data(), length));
    if (Crc32c(body.data(), body.size()) != want_crc) {
      out.torn_tail = true;
      break;
    }
    const uint8_t type = body[0];
    if (type == kWalDataRecord) {
      body.erase(body.begin());
      pending.push_back(std::move(body));
    } else if (type == kWalCommitRecord) {
      if (length != 1 + sizeof(uint64_t)) {
        out.torn_tail = true;  // Malformed commit: treat as corrupt.
        break;
      }
      const uint64_t seqno = DecodeU64(body.data() + 1);
      if (seqno != next_seqno) {
        // A stale or reordered commit is corruption, not a torn tail:
        // the frame itself checksummed clean.
        return Status::Corruption(
            "wal: commit sequence " + std::to_string(seqno) +
            " where " + std::to_string(next_seqno) + " was expected");
      }
      for (const auto& payload : pending) {
        VITRI_RETURN_IF_ERROR(apply(
            seqno, std::span<const uint8_t>(payload.data(), payload.size())));
        ++out.records_applied;
      }
      pending.clear();
      ++next_seqno;
      ++out.commits;
      out.committed_end = offset + kWalFrameHeaderSize + length;
      VITRI_METRIC_COUNTER("wal.replay.commits")->Increment();
    } else {
      out.torn_tail = true;  // Unknown type: corrupt frame.
      break;
    }
    offset += kWalFrameHeaderSize + length;
  }

  out.records_discarded = pending.size();
  out.bytes_discarded = file_size - out.committed_end;
  VITRI_METRIC_COUNTER("wal.replay.records_applied")
      ->Increment(out.records_applied);
  if (out.torn_tail) {
    VITRI_METRIC_COUNTER("wal.replay.torn_tails")->Increment();
  }
  if (repair && out.bytes_discarded > 0) {
    VITRI_RETURN_IF_ERROR(file->Truncate(out.committed_end));
    VITRI_METRIC_COUNTER("wal.replay.bytes_truncated")
        ->Increment(out.bytes_discarded);
  }
  return out;
}

// --- WalWriter --------------------------------------------------------

WalWriter::WalWriter(std::unique_ptr<WalFile> file, WalOptions options,
                     uint64_t base_seqno)
    : file_(std::move(file)),
      options_(options),
      base_seqno_(base_seqno),
      seqno_(base_seqno),
      durable_seqno_(base_seqno) {}

Status WalWriter::Append(std::span<const uint8_t> payload) {
  if (payload.size() + 1 > kWalMaxRecordLength) {
    return Status::InvalidArgument("wal record payload too large");
  }
  AppendWalRecord(kWalDataRecord, payload, &batch_);
  ++batch_records_;
  return Status::OK();
}

Status WalWriter::Commit() {
  uint8_t seq[8];
  EncodeU64(seq, seqno_ + 1);
  AppendWalRecord(kWalCommitRecord, std::span<const uint8_t>(seq, 8),
                  &batch_);
  const uint64_t batch_bytes = batch_.size();
  const uint64_t batch_records = batch_records_;

  Stopwatch append_watch;
  const Status appended = file_->Append(batch_.data(), batch_.size());
  VITRI_METRIC_HISTOGRAM("wal.append_latency_us")
      ->Record(static_cast<uint64_t>(append_watch.ElapsedMicros()));
  // Win or lose, the batch is spent: on failure the file holds at most
  // a torn prefix of it, which replay discards at the commit boundary.
  batch_.clear();
  batch_records_ = 0;
  VITRI_RETURN_IF_ERROR(appended);

  ++seqno_;
  appended_bytes_ += batch_bytes;
  ++unsynced_commits_;
  unsynced_bytes_ += batch_bytes;
  VITRI_METRIC_COUNTER("wal.commits")->Increment();
  VITRI_METRIC_COUNTER("wal.appends")
      ->Increment(batch_records);
  VITRI_METRIC_COUNTER("wal.append_bytes")
      ->Increment(batch_bytes);

  switch (options_.sync_mode) {
    case WalSyncMode::kEveryCommit:
      return Sync();
    case WalSyncMode::kGrouped:
      if (unsynced_commits_ >= options_.group_commits ||
          unsynced_bytes_ >= options_.group_bytes) {
        return Sync();
      }
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (durable_seqno_ == seqno_) return Status::OK();
  Stopwatch watch;
  VITRI_RETURN_IF_ERROR(file_->Sync());
  VITRI_METRIC_COUNTER("wal.syncs")->Increment();
  VITRI_METRIC_HISTOGRAM("wal.fsync_latency_us")
      ->Record(static_cast<uint64_t>(watch.ElapsedMicros()));
  durable_seqno_ = seqno_;
  unsynced_commits_ = 0;
  unsynced_bytes_ = 0;
  return Status::OK();
}

}  // namespace vitri::storage
