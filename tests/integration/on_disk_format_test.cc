// Pins the on-disk formats to the checked-in fuzz seed corpora
// (fuzz/corpus/, written by fuzz/make_seeds.cc). The fuzz harnesses
// accept any outcome that keeps their invariants; this suite asserts the
// exact outcome of every seed file instead, so a change to framing,
// checksums or the CRC backend that alters how stored bytes read back
// fails here. The default and `simd-off` test legs run it under the
// hardware and the table CRC-32C respectively.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "storage/wal.h"

namespace vitri {
namespace {

std::string CorpusPath(const std::string& name) {
  return std::string(VITRI_FUZZ_CORPUS_DIR) + "/" + name;
}

TEST(OnDiskFormatTest, SnapshotSeedsLoadOrFailAsPinned) {
  auto valid = core::LoadViTriSet(CorpusPath("snapshot_load/valid.bin"));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_GT(valid->dimension, 0);
  EXPECT_FALSE(valid->vitris.empty());

  auto flipped = core::LoadViTriSet(CorpusPath("snapshot_load/bit_flip.bin"));
  EXPECT_TRUE(flipped.status().IsCorruption()) << flipped.status().ToString();
  EXPECT_NE(flipped.status().ToString().find("snapshot checksum mismatch"),
            std::string::npos)
      << flipped.status().ToString();

  for (const char* name : {"truncated.bin", "huge_count.bin"}) {
    auto loaded =
        core::LoadViTriSet(CorpusPath(std::string("snapshot_load/") + name));
    EXPECT_TRUE(loaded.status().IsCorruption())
        << name << ": " << loaded.status().ToString();
  }
}

struct WalOutcome {
  const char* file;
  uint64_t commits;
  uint64_t applied;
  uint64_t discarded;
  bool torn_tail;
};

TEST(OnDiskFormatTest, WalSeedsReplayAsPinned) {
  const WalOutcome kOutcomes[] = {
      {"two_commits.bin", 2, 3, 0, false},
      {"bad_crc.bin", 1, 2, 1, true},
      {"torn_tail.bin", 2, 3, 1, true},
      {"lone_commit.bin", 1, 0, 0, false},
      {"empty.bin", 0, 0, 0, false},
  };
  for (const WalOutcome& want : kOutcomes) {
    std::ifstream in(CorpusPath(std::string("wal_replay/") + want.file),
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << want.file;
    storage::MemWalFile file(std::vector<uint8_t>{
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()});
    uint64_t applied = 0;
    auto replay = storage::ReplayWal(
        &file,
        [&applied](uint64_t /*seqno*/, std::span<const uint8_t> /*payload*/) {
          ++applied;
          return Status::OK();
        },
        /*repair=*/false);
    ASSERT_TRUE(replay.ok()) << want.file << ": " << replay.status().ToString();
    EXPECT_EQ(replay->commits, want.commits) << want.file;
    EXPECT_EQ(replay->records_applied, want.applied) << want.file;
    EXPECT_EQ(applied, want.applied) << want.file;
    EXPECT_EQ(replay->records_discarded, want.discarded) << want.file;
    EXPECT_EQ(replay->torn_tail, want.torn_tail) << want.file;
  }
}

}  // namespace
}  // namespace vitri
