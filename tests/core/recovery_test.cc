// Durable index directory: CURRENT codec, generation file naming,
// EnableDurability/Open round trips, checkpoint rotation + GC, torn-log
// repair on open, and dimension adoption from the snapshot.

#include "core/recovery.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/vitri_builder.h"
#include "storage/wal.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::set<std::string> ListDir(const std::string& dir) {
  std::set<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") names.insert(name);
    }
    ::closedir(d);
  }
  return names;
}

/// Shared tiny world: a synthetic database summarized once, split into
/// an initial build set (videos [0, initial)) and later inserts.
struct World {
  video::VideoDatabase db;
  std::vector<std::vector<ViTri>> per_video;
  size_t initial = 0;

  ViTriSet InitialSet() const {
    ViTriSet set;
    set.dimension = db.dimension;
    for (size_t vid = 0; vid < initial; ++vid) {
      set.frame_counts.push_back(
          static_cast<uint32_t>(db.videos[vid].num_frames()));
      for (const ViTri& v : per_video[vid]) set.vitris.push_back(v);
    }
    return set;
  }
};

const World& SharedWorld() {
  static const World* world = [] {
    video::SynthesizerOptions so;
    so.seed = 2005;
    video::VideoSynthesizer synth(so);
    auto* w = new World;
    w->db = synth.GenerateDatabase(0.004);
    ViTriBuilder builder;
    w->per_video.resize(w->db.num_videos());
    for (size_t vid = 0; vid < w->db.num_videos(); ++vid) {
      auto vitris = builder.Build(w->db.videos[vid]);
      EXPECT_TRUE(vitris.ok());
      w->per_video[vid] = std::move(*vitris);
    }
    w->initial = w->db.num_videos() / 2;
    EXPECT_GE(w->initial, 2u);
    return w;
  }();
  return *world;
}

Status InsertVideo(ViTriIndex* index, const World& w, size_t vid) {
  return index->Insert(static_cast<uint32_t>(vid),
                       static_cast<uint32_t>(w.db.videos[vid].num_frames()),
                       w.per_video[vid]);
}

TEST(RecoveryTest, GenerationFileNames) {
  EXPECT_EQ(SnapshotFileName(1), "snapshot-1.vsnp");
  EXPECT_EQ(SnapshotFileName(42), "snapshot-42.vsnp");
  EXPECT_EQ(WalFileName(7), "wal-7.vlog");
}

TEST(RecoveryTest, CurrentFileRoundTrip) {
  const std::string dir = TempPath("recovery_current");
  ::mkdir(dir.c_str(), 0755);
  // TempDir persists across runs: scrub any CURRENT a prior run left.
  std::remove((dir + "/CURRENT").c_str());
  auto missing = ReadCurrentFile(dir);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());

  ASSERT_TRUE(WriteCurrentFile(dir, 3).ok());
  auto read = ReadCurrentFile(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 3u);
  // No .tmp intermediate left behind.
  EXPECT_FALSE(FileExists(dir + "/CURRENT.tmp"));

  // Overwrite is atomic-by-rename and reads back the new value.
  ASSERT_TRUE(WriteCurrentFile(dir, 12).ok());
  read = ReadCurrentFile(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 12u);
}

TEST(RecoveryTest, GarbageCurrentFileIsCorruption) {
  const std::string dir = TempPath("recovery_current_bad");
  ::mkdir(dir.c_str(), 0755);
  std::ofstream(dir + "/CURRENT") << "not-a-generation";
  auto read = ReadCurrentFile(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption());
}

TEST(RecoveryTest, InsertRecordCodecRoundTrip) {
  const World& w = SharedWorld();
  const auto& vitris = w.per_video[0];
  ASSERT_FALSE(vitris.empty());
  std::vector<uint8_t> payload;
  EncodeInsertWalRecord(17, 250, vitris, &payload);
  auto decoded = DecodeInsertWalRecord(payload, w.db.dimension);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->video_id, 17u);
  EXPECT_EQ(decoded->num_frames, 250u);
  ASSERT_EQ(decoded->vitris.size(), vitris.size());
  for (size_t i = 0; i < vitris.size(); ++i) {
    EXPECT_EQ(decoded->vitris[i].cluster_size, vitris[i].cluster_size);
    EXPECT_EQ(decoded->vitris[i].radius, vitris[i].radius);
    EXPECT_EQ(decoded->vitris[i].position, vitris[i].position);
  }
}

TEST(RecoveryTest, InsertRecordCodecRejectsMalformedPayloads) {
  const World& w = SharedWorld();
  std::vector<uint8_t> payload;
  EncodeInsertWalRecord(1, 10, w.per_video[0], &payload);

  auto tiny = DecodeInsertWalRecord(
      std::span<const uint8_t>(payload.data(), 7), w.db.dimension);
  EXPECT_FALSE(tiny.ok());
  EXPECT_TRUE(tiny.status().IsCorruption());

  auto short_by_one = DecodeInsertWalRecord(
      std::span<const uint8_t>(payload.data(), payload.size() - 1),
      w.db.dimension);
  EXPECT_FALSE(short_by_one.ok());
  EXPECT_TRUE(short_by_one.status().IsCorruption());

  // The right bytes decoded under the wrong dimension cannot line up.
  auto wrong_dim = DecodeInsertWalRecord(payload, w.db.dimension + 1);
  EXPECT_FALSE(wrong_dim.ok());
}

TEST(RecoveryTest, EnableDurabilityThenOpenRoundTrips) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_roundtrip");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->durable());
  ASSERT_TRUE(index->EnableDurability(dir).ok());
  EXPECT_TRUE(index->durable());
  EXPECT_EQ(index->generation(), 1u);
  // A second attach is rejected.
  EXPECT_FALSE(index->EnableDurability(dir).ok());

  for (size_t vid = w.initial; vid < w.initial + 3; ++vid) {
    ASSERT_TRUE(InsertVideo(&*index, w, vid).ok());
  }
  EXPECT_EQ(index->wal_commits(), 3u);
  EXPECT_EQ(index->wal_durable_commits(), 3u);  // kEveryCommit default.

  RecoveryStats stats;
  auto reopened = ViTriIndex::Open(dir, io, {}, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.wal_commits_replayed, 3u);
  EXPECT_EQ(stats.wal_records_applied, 3u);
  EXPECT_FALSE(stats.wal_torn_tail);
  EXPECT_EQ(reopened->num_vitris(), index->num_vitris());
  EXPECT_EQ(reopened->num_videos(), index->num_videos());
  ASSERT_TRUE(reopened->ValidateInvariants().ok());

  // Identical contents answer identically.
  const auto& q = w.per_video[w.initial + 1];
  const auto frames =
      static_cast<uint32_t>(w.db.videos[w.initial + 1].num_frames());
  auto live = index->Knn(q, frames, 5, KnnMethod::kComposed);
  auto recovered = reopened->Knn(q, frames, 5, KnnMethod::kComposed);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(live->size(), recovered->size());
  for (size_t i = 0; i < live->size(); ++i) {
    EXPECT_EQ((*live)[i].video_id, (*recovered)[i].video_id);
    EXPECT_DOUBLE_EQ((*live)[i].similarity, (*recovered)[i].similarity);
  }
}

// An insert carrying another video's ViTris is rejected before the WAL
// append: nothing is logged, so nothing is replayed either.
TEST(RecoveryTest, RejectedInsertIsNeitherLoggedNorApplied) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_rejected_insert");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->EnableDurability(dir).ok());
  ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
  const auto& q = w.per_video[0];
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  auto before = index->Knn(q, frames, 5, KnnMethod::kComposed);
  ASSERT_TRUE(before.ok());
  const size_t vitris = index->num_vitris();

  std::vector<ViTri> retagged = q;
  for (ViTri& v : retagged) v.video_id = 1;
  const Status status =
      index->Insert(static_cast<uint32_t>(w.initial + 1), frames, retagged);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(index->wal_commits(), 1u);
  EXPECT_EQ(index->num_vitris(), vitris);
  ASSERT_TRUE(index->ValidateInvariants().ok());

  RecoveryStats stats;
  auto reopened = ViTriIndex::Open(dir, io, {}, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(stats.wal_commits_replayed, 1u);
  EXPECT_EQ(reopened->num_vitris(), vitris);
  ASSERT_TRUE(reopened->ValidateInvariants().ok());
  for (ViTriIndex* idx : {&*index, &*reopened}) {
    auto after = idx->Knn(q, frames, 5, KnnMethod::kComposed);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->size(), before->size());
    for (size_t i = 0; i < before->size(); ++i) {
      EXPECT_EQ((*after)[i].video_id, (*before)[i].video_id);
      EXPECT_EQ((*after)[i].similarity, (*before)[i].similarity);
    }
  }
}

TEST(RecoveryTest, RecoveredIndexKeepsIngesting) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_continue");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
  }
  size_t after_first = 0;
  {
    auto index = ViTriIndex::Open(dir, io);
    ASSERT_TRUE(index.ok());
    EXPECT_TRUE(index->durable());
    // The repaired log accepts appends; seqnos continue past replay.
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial + 1).ok());
    after_first = index->num_vitris();
  }
  auto index = ViTriIndex::Open(dir, io);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_vitris(), after_first);
  EXPECT_EQ(index->num_videos(), w.initial + 2);
  ASSERT_TRUE(index->ValidateInvariants().ok());
}

TEST(RecoveryTest, CheckpointRotatesGenerationAndCollectsOldFiles) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_rotate");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->Checkpoint().ok());  // Not durable yet.
  ASSERT_TRUE(index->EnableDurability(dir).ok());
  ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
  ASSERT_TRUE(index->Checkpoint().ok());
  EXPECT_EQ(index->generation(), 2u);
  // The WAL starts empty each generation; the old pair is gone.
  EXPECT_EQ(index->wal_commits(), 0u);
  const std::set<std::string> names = ListDir(dir);
  EXPECT_EQ(names, (std::set<std::string>{"CURRENT", "snapshot-2.vsnp",
                                          "wal-2.vlog"}));

  // Everything inserted before the checkpoint lives in the snapshot.
  RecoveryStats stats;
  auto reopened = ViTriIndex::Open(dir, io, {}, &stats);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.wal_commits_replayed, 0u);
  EXPECT_EQ(reopened->num_vitris(), index->num_vitris());
}

TEST(RecoveryTest, OpenIgnoresAndCollectsStrayIntermediateFiles) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_strays");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
  }
  // Leftovers an interrupted checkpoint could leave behind.
  std::ofstream(dir + "/snapshot-9.vsnp.pending") << "half-written";
  std::ofstream(dir + "/snapshot-9.vsnp") << "orphaned generation";
  std::ofstream(dir + "/wal-9.vlog") << "orphaned wal";
  std::ofstream(dir + "/CURRENT.tmp") << "9";

  auto index = ViTriIndex::Open(dir, io);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->generation(), 1u);
  EXPECT_EQ(index->num_videos(), w.initial + 1);
  const std::set<std::string> names = ListDir(dir);
  EXPECT_EQ(names, (std::set<std::string>{"CURRENT", "snapshot-1.vsnp",
                                          "wal-1.vlog"}));
}

TEST(RecoveryTest, OpenAdoptsSnapshotDimension) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_dimension");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
  }
  ViTriIndexOptions wrong = io;
  wrong.dimension = io.dimension + 3;  // The snapshot knows better.
  auto index = ViTriIndex::Open(dir, wrong);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->options().dimension, w.db.dimension);
  ASSERT_TRUE(index->ValidateInvariants().ok());
}

// Open() builds through Build(), so it rejects an undersized pool shard
// too, before building any tree and without touching the generation.
TEST(RecoveryTest, OpenRejectsAPoolShardOfFewerThanEightFrames) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_small_pool");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
  }
  ViTriIndexOptions small = io;
  small.buffer_pool_pages = 3;
  EXPECT_TRUE(ViTriIndex::Open(dir, small).status().IsInvalidArgument());
  auto index = ViTriIndex::Open(dir, io);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_vitris(), w.InitialSet().vitris.size());
}

TEST(RecoveryTest, OpenRepairsTornWalTail) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_torn");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  size_t acked_vitris = 0;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
    acked_vitris = index->num_vitris();
  }
  // Simulate a crash mid-append: garbage on the log's tail.
  {
    std::ofstream wal(dir + "/wal-1.vlog",
                      std::ios::binary | std::ios::app);
    const char torn[] = "\x40\x01\x00\x00partial";
    wal.write(torn, sizeof(torn) - 1);
  }
  RecoveryStats stats;
  auto index = ViTriIndex::Open(dir, io, {}, &stats);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(stats.wal_torn_tail);
  EXPECT_GT(stats.wal_bytes_discarded, 0u);
  EXPECT_EQ(stats.wal_commits_replayed, 1u);
  EXPECT_EQ(index->num_vitris(), acked_vitris);
  ASSERT_TRUE(index->ValidateInvariants().ok());
  // The repaired log keeps working.
  ASSERT_TRUE(InsertVideo(&*index, w, w.initial + 1).ok());
}

TEST(RecoveryTest, OpenWithoutCurrentIsNotFound) {
  const std::string dir = TempPath("recovery_empty");
  ::mkdir(dir.c_str(), 0755);
  auto index = ViTriIndex::Open(dir, ViTriIndexOptions{});
  ASSERT_FALSE(index.ok());
  EXPECT_TRUE(index.status().IsNotFound());
}

}  // namespace
}  // namespace vitri::core
