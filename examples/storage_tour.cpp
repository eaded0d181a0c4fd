// A tour of the storage substrate: an in-memory pager behind a counted
// buffer pool, and the paged B+-tree storing serialized ViTris. The
// tree is filled by inserts, the pool is emptied, and a range scan then
// runs cold, so every page it touches is a miss the pool counts.
//
//   ./build/examples/storage_tour

#include <cstdio>
#include <vector>

#include "btree/bplus_tree.h"
#include "core/transform.h"
#include "core/vitri.h"
#include "core/vitri_builder.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "video/synthesizer.h"

int main() {
  using namespace vitri;

  // Summarize a few clips into ViTris and fit the 1-D transform.
  video::VideoSynthesizer synth;
  core::ViTriBuilder builder;
  std::vector<core::ViTri> vitris;
  for (uint32_t id = 0; id < 20; ++id) {
    auto clip = synth.GenerateClip(id, 10.0);
    auto summary = builder.Build(clip);
    if (!summary.ok()) return 1;
    for (core::ViTri& v : *summary) vitris.push_back(std::move(v));
  }
  std::vector<linalg::Vec> positions;
  for (const core::ViTri& v : vitris) positions.push_back(v.position);
  auto transform = core::OneDimensionalTransform::Fit(
      positions, core::ReferencePointKind::kOptimal);
  if (!transform.ok()) return 1;

  // 4 KiB pages (the paper's setup) behind a 16-frame pool.
  storage::MemPager pager(4096);
  storage::BufferPool pool(&pager, 16);
  auto tree = btree::BPlusTree::Create(
      &pool, static_cast<uint32_t>(core::ViTri::SerializedSize(64)));
  if (!tree.ok()) return 1;

  // Phase 1: insert every ViTri under its transform key.
  std::vector<uint8_t> value;
  for (size_t i = 0; i < vitris.size(); ++i) {
    vitris[i].Serialize(&value);
    if (!tree->Insert(transform->Key(vitris[i].position), i, value).ok()) {
      return 1;
    }
  }
  std::printf("inserted %llu ViTris (%u pages, tree height %u)\n",
              static_cast<unsigned long long>(tree->num_entries()),
              pager.num_pages(), tree->height());
  std::printf("buffer pool i/o: %s\n", pool.stats().ToString().c_str());

  // Phase 2: write every dirty frame back and drop it, then range-scan
  // a key band cold. The scan's own tally counts exactly its pages.
  if (!pool.EvictAll().ok()) return 1;
  const double probe = transform->Key(vitris[5].position);
  size_t decoded = 0;
  storage::IoTally tally;
  auto visited = tree->RangeScan(
      probe - 0.05, probe + 0.05,
      [&](double, uint64_t, std::span<const uint8_t> bytes) {
        if (core::ViTri::Deserialize(bytes, 64).ok()) ++decoded;
        return true;
      },
      &tally);
  if (!visited.ok()) return 1;
  std::printf("\ncold range scan around key %.3f: %llu records, %zu "
              "decoded\n",
              probe, static_cast<unsigned long long>(*visited), decoded);
  std::printf("scan i/o:        %s\n", tally.io.ToString().c_str());
  std::printf("buffer pool i/o: %s\n", pool.stats().ToString().c_str());
  return 0;
}
