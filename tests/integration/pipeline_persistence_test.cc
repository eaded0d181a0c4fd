// Integration: the full persistence pipeline the CLI drives —
// synthesize -> save dataset -> reload -> summarize -> snapshot ->
// rebuild index from snapshot -> query -> verify against the in-memory
// pipeline's answers.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/index.h"
#include "core/snapshot.h"
#include "core/vitri_builder.h"
#include "video/serialization.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

TEST(PipelinePersistenceTest, DiskRoundTripMatchesInMemory) {
  const std::string db_path =
      std::string(::testing::TempDir()) + "/pipeline.vvdb";
  const std::string snap_path =
      std::string(::testing::TempDir()) + "/pipeline.vsnp";
  std::remove(db_path.c_str());
  std::remove(snap_path.c_str());

  // In-memory pipeline.
  video::VideoSynthesizer synth;
  const video::VideoDatabase db = synth.GenerateDatabase(0.004);
  ViTriBuilder builder;
  auto set = builder.BuildDatabase(db);
  ASSERT_TRUE(set.ok());
  ViTriIndexOptions options;
  auto memory_index = ViTriIndex::Build(*set, options);
  ASSERT_TRUE(memory_index.ok());

  // Disk pipeline: dataset file -> reload -> summarize -> snapshot ->
  // index.
  ASSERT_TRUE(video::SaveDatabase(db, db_path).ok());
  auto reloaded_db = video::LoadDatabase(db_path);
  ASSERT_TRUE(reloaded_db.ok());
  auto reloaded_set = builder.BuildDatabase(*reloaded_db);
  ASSERT_TRUE(reloaded_set.ok());
  ASSERT_TRUE(SaveViTriSet(*reloaded_set, snap_path).ok());
  auto disk_index = LoadIndexSnapshot(snap_path, options);
  ASSERT_TRUE(disk_index.ok());

  EXPECT_EQ(disk_index->num_vitris(), memory_index->num_vitris());

  // Queries must answer identically through both pipelines.
  for (uint32_t src : {0u, 5u, 11u}) {
    const video::VideoSequence query =
        synth.MakeNearDuplicate(db.videos[src], 777000 + src);
    auto summary = builder.Build(query);
    ASSERT_TRUE(summary.ok());
    const uint32_t frames = static_cast<uint32_t>(query.num_frames());

    auto from_memory =
        memory_index->Knn(*summary, frames, 10, KnnMethod::kComposed);
    auto from_disk =
        disk_index->Knn(*summary, frames, 10, KnnMethod::kComposed);
    ASSERT_TRUE(from_memory.ok() && from_disk.ok());
    ASSERT_EQ(from_memory->size(), from_disk->size()) << "src " << src;
    for (size_t i = 0; i < from_memory->size(); ++i) {
      EXPECT_EQ((*from_memory)[i].video_id, (*from_disk)[i].video_id);
      EXPECT_NEAR((*from_memory)[i].similarity,
                  (*from_disk)[i].similarity, 1e-12);
    }
  }

  std::remove(db_path.c_str());
  std::remove(snap_path.c_str());
}

}  // namespace
}  // namespace vitri::core
