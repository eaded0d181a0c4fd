// Streaming ingest: an index built on an initial batch, made durable
// with a write-ahead log, new videos inserted as they arrive (standard
// B+-tree insertions with the original reference point, each one
// WAL-logged before it is applied), principal-component drift
// monitored, the index rebuilt when the Section 6.3.3 rebuild policy
// triggers, and finally the whole thing recovered from disk to prove
// nothing was lost.
//
//   ./build/examples/dynamic_ingest
//
// The durable directory is a fresh temporary one, removed again on
// exit, and holds, per DESIGN.md §13:
//   CURRENT            the active checkpoint generation
//   snapshot-<G>.vsnp  that generation's snapshot
//   wal-<G>.vlog       inserts committed since the snapshot

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/index.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace {

/// Removes a directory tree when it goes out of scope, so every return
/// path of main() cleans up after itself.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

}  // namespace

int main() {
  using namespace vitri;

  // Declared before the indexes so it outlives them: the directory goes
  // only after every index that writes into it is closed.
  char dir_template[] = "/tmp/vitri_ingest_XXXXXX";
  const char* tmp = ::mkdtemp(dir_template);
  if (tmp == nullptr) return 1;
  const RemoveOnExit cleanup{tmp};
  const std::string dir = std::string(tmp) + "/index";

  video::VideoSynthesizer synth;
  video::VideoDatabase db = synth.GenerateDatabase(0.03);
  const size_t initial = db.num_videos() / 3;

  core::ViTriBuilderOptions bo;
  bo.epsilon = 0.15;
  core::ViTriBuilder builder(bo);

  // Build on the first third.
  core::ViTriSet first;
  first.dimension = db.dimension;
  first.frame_counts.assign(db.num_videos(), 0);
  for (size_t i = 0; i < initial; ++i) {
    first.frame_counts[i] =
        static_cast<uint32_t>(db.videos[i].num_frames());
    auto vitris = builder.Build(db.videos[i]);
    if (!vitris.ok()) return 1;
    for (core::ViTri& v : *vitris) first.vitris.push_back(std::move(v));
  }

  core::ViTriIndexOptions io;
  io.epsilon = bo.epsilon;
  io.rebuild_angle_threshold = 0.20;  // Rebuild past ~11.5 degrees.
  auto index = core::ViTriIndex::Build(first, io);
  if (!index.ok()) return 1;
  std::printf("initial index: %zu ViTris from %zu videos\n",
              index->num_vitris(), initial);

  // Make it durable: a generation-1 checkpoint plus a WAL that every
  // subsequent Insert() is committed to before it is applied. With
  // kGrouped sync the log is fsync'd every few commits; SyncWal() or
  // Checkpoint() force the tail durable.
  core::DurabilityOptions durability;
  durability.wal.sync_mode = storage::WalSyncMode::kGrouped;
  if (!index->EnableDurability(dir, durability).ok()) return 1;
  std::printf("durable at %s (generation %llu)\n", dir.c_str(),
              static_cast<unsigned long long>(index->generation()));

  // Stream in the rest, checking drift every 20 videos.
  size_t rebuilds = 0;
  for (size_t i = initial; i < db.num_videos(); ++i) {
    auto vitris = builder.Build(db.videos[i]);
    if (!vitris.ok()) return 1;
    if (!index
             ->Insert(db.videos[i].id,
                      static_cast<uint32_t>(db.videos[i].num_frames()),
                      *vitris)
             .ok()) {
      return 1;
    }
    if ((i - initial + 1) % 20 == 0 || i + 1 == db.num_videos()) {
      auto drift = index->DriftAngle();
      auto needs = index->NeedsRebuild();
      if (!drift.ok() || !needs.ok()) return 1;
      std::printf("after %zu videos: %zu ViTris, first-PC drift %.3f rad"
                  "%s\n",
                  i + 1, index->num_vitris(), *drift,
                  *needs ? "  -> rebuilding" : "");
      if (*needs) {
        if (!index->Rebuild().ok()) return 1;
        ++rebuilds;
      }
    }
  }
  std::printf("ingest complete: %zu ViTris, %zu rebuild(s), %llu WAL "
              "commits (%llu already durable)\n",
              index->num_vitris(), rebuilds,
              static_cast<unsigned long long>(index->wal_commits()),
              static_cast<unsigned long long>(index->wal_durable_commits()));

  // Fold the WAL into a fresh checkpoint, then recover from disk as a
  // crashed process would: read CURRENT, load the snapshot, replay the
  // (now empty) log. Counts must match the live index exactly.
  if (!index->Checkpoint().ok()) return 1;
  core::RecoveryStats stats;
  auto reopened = core::ViTriIndex::Open(dir, io, {}, &stats);
  if (!reopened.ok()) return 1;
  std::printf("recovered from disk: generation %llu, %zu ViTris "
              "(%s the live index)\n",
              static_cast<unsigned long long>(stats.generation),
              reopened->num_vitris(),
              reopened->num_vitris() == index->num_vitris() ? "matches"
                                                            : "DIFFERS FROM");
  if (reopened->num_vitris() != index->num_vitris()) return 1;

  // A query against the recovered index still works and finds a
  // late-inserted video.
  const uint32_t target = static_cast<uint32_t>(db.num_videos() - 1);
  video::VideoSequence query =
      synth.MakeNearDuplicate(db.videos[target], 888888);
  auto query_summary = builder.Build(query);
  if (!query_summary.ok()) return 1;
  auto results = reopened->Knn(*query_summary,
                               static_cast<uint32_t>(query.num_frames()), 3,
                               core::KnnMethod::kComposed);
  if (!results.ok()) return 1;
  std::printf("\nquery for a near-duplicate of the last inserted video "
              "(on the recovered index):\n");
  for (const core::VideoMatch& match : *results) {
    std::printf("  video %-6u similarity %.3f%s\n", match.video_id,
                match.similarity,
                match.video_id == target ? "   <-- inserted last" : "");
  }
  return 0;
}
