#include "storage/fault_pager.h"

#include <cstring>
#include <sstream>

namespace vitri::storage {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientIoError:
      return "transient-io-error";
    case FaultKind::kPersistentIoError:
      return "persistent-io-error";
    case FaultKind::kBitFlip:
      return "bit-flip";
    case FaultKind::kTornWrite:
      return "torn-write";
    case FaultKind::kSyncFailure:
      return "sync-failure";
  }
  return "unknown";
}

std::string FaultStats::ToString() const {
  std::ostringstream os;
  os << "transient_io_errors=" << transient_io_errors
     << " persistent_io_errors=" << persistent_io_errors
     << " bit_flips=" << bit_flips << " torn_writes=" << torn_writes
     << " sync_failures=" << sync_failures;
  return os.str();
}

FaultInjectingPager::FaultInjectingPager(std::unique_ptr<Pager> base,
                                         uint64_t seed)
    : Pager(base->page_size()), base_(std::move(base)), rng_(seed) {}

void FaultInjectingPager::AddRule(const FaultRule& rule) {
  MutexLock lock(mu_);
  rules_.push_back(ArmedRule{rule, 0, 0});
}

void FaultInjectingPager::ClearRules() {
  MutexLock lock(mu_);
  rules_.clear();
}

std::optional<FaultKind> FaultInjectingPager::NextFault(FaultOp op,
                                                        PageId id) {
  MutexLock lock(mu_);
  std::optional<FaultKind> firing;
  for (ArmedRule& armed : rules_) {
    const FaultRule& r = armed.rule;
    if (r.op != op) continue;
    if (r.page != kAnyPage && r.page != id) continue;
    ++armed.matches;
    if (armed.matches <= r.after) continue;
    bool fires;
    if (r.kind == FaultKind::kPersistentIoError) {
      fires = true;
    } else {
      fires = armed.fired < r.limit && (armed.matches - r.after) % r.every == 0;
    }
    if (fires && !firing.has_value()) {
      ++armed.fired;
      firing = r.kind;
    }
  }
  return firing;
}

void FaultInjectingPager::CountFault(FaultKind kind) {
  MutexLock lock(mu_);
  switch (kind) {
    case FaultKind::kTransientIoError:
      ++stats_.transient_io_errors;
      break;
    case FaultKind::kPersistentIoError:
      ++stats_.persistent_io_errors;
      break;
    case FaultKind::kBitFlip:
      ++stats_.bit_flips;
      break;
    case FaultKind::kTornWrite:
      ++stats_.torn_writes;
      break;
    case FaultKind::kSyncFailure:
      ++stats_.sync_failures;
      break;
  }
}

void FaultInjectingPager::FlipRandomBit(uint8_t* page) {
  size_t byte;
  int bit;
  {
    MutexLock lock(mu_);
    byte = rng_.Index(page_size());
    bit = static_cast<int>(rng_.Index(8));
  }
  page[byte] ^= static_cast<uint8_t>(1u << bit);
}

PageId FaultInjectingPager::num_pages() const { return base_->num_pages(); }

Result<PageId> FaultInjectingPager::Allocate() { return base_->Allocate(); }

Status FaultInjectingPager::Read(PageId id, uint8_t* out) {
  const std::optional<FaultKind> fault = NextFault(FaultOp::kRead, id);
  if (fault.has_value()) {
    switch (*fault) {
      case FaultKind::kTransientIoError:
      case FaultKind::kPersistentIoError:
        CountFault(*fault);
        return Status::IoError(std::string("injected ") +
                               FaultKindName(*fault) + " reading page " +
                               std::to_string(id));
      case FaultKind::kBitFlip: {
        VITRI_RETURN_IF_ERROR(base_->Read(id, out));
        CountFault(*fault);
        FlipRandomBit(out);
        return Status::OK();
      }
      case FaultKind::kTornWrite:
      case FaultKind::kSyncFailure:
        break;  // Not meaningful on reads; fall through to a clean read.
    }
  }
  return base_->Read(id, out);
}

Status FaultInjectingPager::Write(PageId id, const uint8_t* src) {
  const std::optional<FaultKind> fault = NextFault(FaultOp::kWrite, id);
  if (fault.has_value()) {
    switch (*fault) {
      case FaultKind::kTransientIoError:
      case FaultKind::kPersistentIoError:
        CountFault(*fault);
        return Status::IoError(std::string("injected ") +
                               FaultKindName(*fault) + " writing page " +
                               std::to_string(id));
      case FaultKind::kBitFlip: {
        std::vector<uint8_t> corrupted(src, src + page_size());
        CountFault(*fault);
        FlipRandomBit(corrupted.data());
        return base_->Write(id, corrupted.data());
      }
      case FaultKind::kTornWrite: {
        // First half of the new page lands; the tail keeps whatever was
        // stored before (zeros if the old read fails). The caller sees
        // success — exactly the silent failure checksums exist for.
        std::vector<uint8_t> torn(page_size(), 0);
        (void)base_->Read(id, torn.data());
        std::memcpy(torn.data(), src, page_size() / 2);
        CountFault(*fault);
        return base_->Write(id, torn.data());
      }
      case FaultKind::kSyncFailure:
        break;  // Not meaningful on writes; fall through.
    }
  }
  return base_->Write(id, src);
}

Status FaultInjectingPager::Sync() {
  const std::optional<FaultKind> fault = NextFault(FaultOp::kSync, kAnyPage);
  if (fault.has_value()) {
    switch (*fault) {
      case FaultKind::kSyncFailure:
      case FaultKind::kTransientIoError:
      case FaultKind::kPersistentIoError:
        CountFault(*fault);
        return Status::IoError(std::string("injected ") +
                               FaultKindName(*fault) + " on sync");
      default:
        break;
    }
  }
  return base_->Sync();
}

}  // namespace vitri::storage
