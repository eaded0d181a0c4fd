#include "core/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/os.h"
#include "core/validate.h"

namespace vitri::core {
namespace {

/// SplitMix64 finalizer — the same mixer the repo's Rng seeds with.
/// Video ids are often dense sequential integers; the mixer spreads
/// them evenly across any shard count.
uint64_t MixVideoId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string ShardGaugeName(size_t shard, const char* suffix) {
  return "index.shard." + std::to_string(shard) + "." + suffix;
}

}  // namespace

const char* ShardAssignmentName(ShardAssignment assignment) {
  switch (assignment) {
    case ShardAssignment::kHash:
      return "hash";
    case ShardAssignment::kRoundRobin:
      return "round-robin";
  }
  return "?";
}

size_t ResolveIndexShards(size_t requested) {
  const size_t shards =
      requested != 0 ? requested
                     : GetEnvPositive("VITRI_INDEX_SHARDS").value_or(1);
  return std::min(shards, kMaxIndexShards);
}

size_t ShardedViTriIndex::ShardOf(uint32_t video_id, size_t num_shards,
                                  ShardAssignment assignment) {
  if (num_shards <= 1) return 0;
  switch (assignment) {
    case ShardAssignment::kRoundRobin:
      return video_id % num_shards;
    case ShardAssignment::kHash:
      break;
  }
  return static_cast<size_t>(MixVideoId(video_id) % num_shards);
}

ViTriIndexOptions ShardedViTriIndex::ShardOptions() const {
  ViTriIndexOptions opts = options_.shard_options;
  if (!opts.transform_factory && global_transform_ != nullptr) {
    // Pin the build-time global reference point into this shard (and
    // into every shard Insert() creates later). The factory ignores the
    // shard's own positions by design — that is the global-O' baseline.
    opts.transform_factory =
        [transform = global_transform_](const std::vector<linalg::Vec>&)
        -> Result<OneDimensionalTransform> { return *transform; };
  }
  return opts;
}

Result<ShardedViTriIndex> ShardedViTriIndex::Build(
    const ViTriSet& set, const ShardedIndexOptions& options) {
  if (set.vitris.empty()) {
    return Status::InvalidArgument("cannot build an index over no ViTris");
  }
  ShardedViTriIndex index;
  index.options_ = options;
  index.num_shards_ = ResolveIndexShards(options.num_shards);
  index.options_.num_shards = index.num_shards_;
  const size_t n = index.num_shards_;

  if (!options.local_reference_points &&
      !options.shard_options.transform_factory) {
    std::vector<linalg::Vec> positions;
    positions.reserve(set.vitris.size());
    for (const ViTri& v : set.vitris) positions.push_back(v.position);
    VITRI_ASSIGN_OR_RETURN(
        OneDimensionalTransform t,
        OneDimensionalTransform::Fit(positions,
                                     options.shard_options.reference,
                                     options.shard_options.margin_factor));
    index.global_transform_ =
        std::make_shared<const OneDimensionalTransform>(std::move(t));
  }

  // Partition by owner shard. Each part keeps the global-id-keyed frame
  // count table (zeros for foreign videos): RankResults() skips
  // zero-frame videos and the shard validator only checks referenced
  // ids, so the padding is inert.
  std::vector<ViTriSet> parts(n);
  for (ViTriSet& part : parts) {
    part.dimension = set.dimension;
    part.frame_counts.assign(set.frame_counts.size(), 0);
  }
  for (const ViTri& v : set.vitris) {
    parts[ShardOf(v.video_id, n, options.assignment)].vitris.push_back(v);
  }
  for (uint32_t vid = 0; vid < set.frame_counts.size(); ++vid) {
    if (set.frame_counts[vid] == 0) continue;
    ViTriSet& part = parts[ShardOf(vid, n, options.assignment)];
    if (!part.vitris.empty()) part.frame_counts[vid] = set.frame_counts[vid];
  }

  index.shard_gauges_.resize(n);
  for (size_t s = 0; s < n; ++s) {
    metrics::Registry& registry = metrics::Registry::Instance();
    index.shard_gauges_[s].videos =
        registry.GetGauge(ShardGaugeName(s, "videos"));
    index.shard_gauges_[s].vitris =
        registry.GetGauge(ShardGaugeName(s, "vitris"));
    index.shard_gauges_[s].height =
        registry.GetGauge(ShardGaugeName(s, "height"));
  }

  const ViTriIndexOptions shard_opts = index.ShardOptions();
  {
    // The index is still private to this thread; holding its latch here
    // is uncontended and satisfies the guarded-member contracts.
    WriterLock lock(*index.latch_);
    index.shards_.resize(n);
    for (size_t s = 0; s < n; ++s) {
      if (parts[s].vitris.empty()) {
        index.RefreshShardGauges(s);
        continue;
      }
      VITRI_ASSIGN_OR_RETURN(ViTriIndex shard,
                             ViTriIndex::Build(parts[s], shard_opts));
      index.shards_[s] = std::make_unique<ViTriIndex>(std::move(shard));
      index.RefreshShardGauges(s);
    }
  }
  return index;
}

void ShardedViTriIndex::RefreshShardGauges(size_t s) const {
  if (s >= shard_gauges_.size()) return;
  const ShardGauges& gauges = shard_gauges_[s];
  const ViTriIndex* shard = shards_[s].get();
  gauges.videos->Set(
      shard == nullptr ? 0 : static_cast<int64_t>(shard->stored_videos()));
  gauges.vitris->Set(
      shard == nullptr ? 0 : static_cast<int64_t>(shard->num_vitris()));
  gauges.height->Set(
      shard == nullptr ? 0 : static_cast<int64_t>(shard->tree_height()));
}

Status ShardedViTriIndex::CreateShardLocked(size_t s, uint32_t video_id,
                                            uint32_t num_frames,
                                            const std::vector<ViTri>& vitris) {
  if (vitris.empty()) {
    return Status::InvalidArgument(
        "cannot create shard " + std::to_string(s) +
        " from video " + std::to_string(video_id) + " with no ViTris");
  }
  VITRI_RETURN_IF_ERROR(CheckInsertVideoIds(video_id, vitris));
  ViTriSet set;
  set.dimension = options_.shard_options.dimension;
  set.vitris = vitris;
  set.frame_counts.assign(static_cast<size_t>(video_id) + 1, 0);
  set.frame_counts[video_id] = num_frames;
  VITRI_ASSIGN_OR_RETURN(ViTriIndex shard,
                         ViTriIndex::Build(set, ShardOptions()));
  shards_[s] = std::make_unique<ViTriIndex>(std::move(shard));
  return Status::OK();
}

Status ShardedViTriIndex::Insert(uint32_t video_id, uint32_t num_frames,
                                 const std::vector<ViTri>& vitris) {
  const size_t s = ShardOf(video_id, num_shards_, options_.assignment);
  {
    // Fast path: the owner shard exists, so the wrapper latch is only
    // needed shared (the slot pointer is immutable once non-null) and
    // the shard's own exclusive latch serializes writers per shard.
    ReaderLock lock(*latch_);
    if (shards_[s] != nullptr) {
      VITRI_RETURN_IF_ERROR(shards_[s]->Insert(video_id, num_frames, vitris));
      RefreshShardGauges(s);
      return Status::OK();
    }
  }
  // First video of shard s: exclusive wrapper latch, double-checked.
  WriterLock lock(*latch_);
  if (shards_[s] != nullptr) {
    VITRI_RETURN_IF_ERROR(shards_[s]->Insert(video_id, num_frames, vitris));
  } else {
    VITRI_RETURN_IF_ERROR(CreateShardLocked(s, video_id, num_frames, vitris));
  }
  RefreshShardGauges(s);
  return Status::OK();
}

std::vector<const ViTriIndex*> ShardedViTriIndex::LiveShards(
    std::vector<size_t>* numbers) const {
  ReaderLock lock(*latch_);
  std::vector<const ViTriIndex*> live;
  live.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards_[s] == nullptr) continue;
    live.push_back(shards_[s].get());
    if (numbers != nullptr) numbers->push_back(s);
  }
  return live;
}

Result<std::vector<VideoMatch>> ShardedViTriIndex::Knn(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    KnnMethod method, QueryCosts* costs,
    std::vector<QueryCosts>* shard_costs) {
  VITRI_RETURN_IF_ERROR(
      CheckQueryViTris(query, options_.shard_options.dimension));
  std::vector<size_t> numbers;
  const std::vector<const ViTriIndex*> live = LiveShards(&numbers);
  const BatchQuery batch[] = {{query, query_frames}};
  std::vector<QueryCosts> task_costs;
  VITRI_ASSIGN_OR_RETURN(
      std::vector<std::vector<VideoMatch>> results,
      ViTriIndex::ScatterKnn(live, batch, k, method, /*executor=*/nullptr,
                             costs, &task_costs, /*traces=*/nullptr));
  if (shard_costs != nullptr) {
    shard_costs->assign(num_shards_, QueryCosts{});
    for (size_t j = 0; j < numbers.size(); ++j) {
      (*shard_costs)[numbers[j]] = task_costs[j];
    }
  }
  return std::move(results[0]);
}

Result<std::vector<std::vector<VideoMatch>>> ShardedViTriIndex::BatchKnn(
    std::span<const BatchQuery> queries, size_t k, KnnMethod method,
    ThreadPool* executor, QueryCosts* costs) {
  for (const BatchQuery& q : queries) {
    VITRI_RETURN_IF_ERROR(
        CheckQueryViTris(q.vitris, options_.shard_options.dimension));
  }
  return ViTriIndex::ScatterKnn(LiveShards(), queries, k, method, executor,
                                costs, /*task_costs=*/nullptr,
                                /*traces=*/nullptr);
}

Status ShardedViTriIndex::ValidateInvariants() {
  // Exclusive on the wrapper so no shard is created mid-walk; each
  // shard's own validator re-latches that shard exclusively (wrapper →
  // shard order, never two shards at once).
  WriterLock lock(*latch_);
  std::unordered_map<uint32_t, size_t> owner_of;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards_[s] == nullptr) continue;
    VITRI_RETURN_IF_ERROR(shards_[s]->ValidateInvariants());

    const OneDimensionalTransform transform = shards_[s]->transform();
    for (const double x : transform.reference_point()) {
      if (!std::isfinite(x)) {
        return Status::Corruption("shard " + std::to_string(s) +
                                  " reference point is not finite");
      }
    }

    const ViTriSet snapshot = shards_[s]->Snapshot();
    std::unordered_set<uint32_t> local;
    for (const ViTri& v : snapshot.vitris) local.insert(v.video_id);
    for (uint32_t vid = 0; vid < snapshot.frame_counts.size(); ++vid) {
      if (snapshot.frame_counts[vid] > 0) local.insert(vid);
    }
    for (const uint32_t vid : local) {
      const auto [it, inserted] = owner_of.emplace(vid, s);
      if (!inserted) {
        return Status::Corruption(
            "video " + std::to_string(vid) + " present in shards " +
            std::to_string(it->second) + " and " + std::to_string(s));
      }
      const size_t want = ShardOf(vid, num_shards_, options_.assignment);
      if (want != s) {
        return Status::Corruption(
            "video " + std::to_string(vid) + " stored in shard " +
            std::to_string(s) + " but maps to shard " +
            std::to_string(want) + " under " +
            ShardAssignmentName(options_.assignment) + " assignment");
      }
    }
  }
  return Status::OK();
}

ViTriSet ShardedViTriIndex::Snapshot() const {
  ReaderLock lock(*latch_);
  ViTriSet out;
  out.dimension = options_.shard_options.dimension;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards_[s] == nullptr) continue;
    ViTriSet snapshot = shards_[s]->Snapshot();
    out.vitris.insert(out.vitris.end(),
                      std::make_move_iterator(snapshot.vitris.begin()),
                      std::make_move_iterator(snapshot.vitris.end()));
    if (snapshot.frame_counts.size() > out.frame_counts.size()) {
      out.frame_counts.resize(snapshot.frame_counts.size(), 0);
    }
    for (uint32_t vid = 0; vid < snapshot.frame_counts.size(); ++vid) {
      if (snapshot.frame_counts[vid] > 0) {
        out.frame_counts[vid] = snapshot.frame_counts[vid];
      }
    }
  }
  return out;
}

size_t ShardedViTriIndex::num_videos() const {
  ReaderLock lock(*latch_);
  size_t total = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) total += shard->stored_videos();
  }
  return total;
}

size_t ShardedViTriIndex::num_vitris() const {
  ReaderLock lock(*latch_);
  size_t total = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) total += shard->num_vitris();
  }
  return total;
}

size_t ShardedViTriIndex::live_shards() const {
  ReaderLock lock(*latch_);
  size_t live = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) ++live;
  }
  return live;
}

uint32_t ShardedViTriIndex::tree_height() const {
  ReaderLock lock(*latch_);
  uint32_t height = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) height = std::max(height, shard->tree_height());
  }
  return height;
}

size_t ShardedViTriIndex::shard_videos(size_t i) const {
  ReaderLock lock(*latch_);
  if (i >= shards_.size() || shards_[i] == nullptr) return 0;
  return shards_[i]->stored_videos();
}

const ViTriIndex* ShardedViTriIndex::shard(size_t i) const {
  ReaderLock lock(*latch_);
  return i < shards_.size() ? shards_[i].get() : nullptr;
}

ViTriIndex* ShardedViTriIndex::shard_for_testing(size_t i) {
  ReaderLock lock(*latch_);
  return i < shards_.size() ? shards_[i].get() : nullptr;
}

ShardedIndexBuilder::ShardedIndexBuilder(ShardedIndexOptions options,
                                         size_t seed_videos)
    : options_(std::move(options)),
      seed_videos_(std::max<size_t>(seed_videos, 1)),
      dimension_(options_.shard_options.dimension) {}

Status ShardedIndexBuilder::Add(uint32_t video_id, uint32_t num_frames,
                                std::vector<ViTri> vitris) {
  VITRI_RETURN_IF_ERROR(CheckInsertVideoIds(video_id, vitris));
  ++videos_added_;
  if (index_.has_value()) {
    return index_->Insert(video_id, num_frames, vitris);
  }
  pending_frames_.emplace_back(video_id, num_frames);
  pending_vitris_.insert(pending_vitris_.end(),
                         std::make_move_iterator(vitris.begin()),
                         std::make_move_iterator(vitris.end()));
  if (pending_frames_.size() >= seed_videos_) return GoLive();
  return Status::OK();
}

Status ShardedIndexBuilder::GoLive() {
  ViTriSet set;
  set.dimension = dimension_;
  uint32_t max_vid = 0;
  for (const auto& [vid, frames] : pending_frames_) {
    max_vid = std::max(max_vid, vid);
  }
  set.frame_counts.assign(static_cast<size_t>(max_vid) + 1, 0);
  for (const auto& [vid, frames] : pending_frames_) {
    set.frame_counts[vid] = frames;
  }
  set.vitris = std::move(pending_vitris_);
  VITRI_ASSIGN_OR_RETURN(ShardedViTriIndex index,
                         ShardedViTriIndex::Build(set, options_));
  index_.emplace(std::move(index));
  pending_vitris_.clear();
  pending_frames_.clear();
  pending_frames_.shrink_to_fit();
  return Status::OK();
}

Result<ShardedViTriIndex> ShardedIndexBuilder::Finish() && {
  if (!index_.has_value()) {
    if (pending_frames_.empty()) {
      return Status::InvalidArgument(
          "cannot finish a sharded index over no videos");
    }
    VITRI_RETURN_IF_ERROR(GoLive());
  }
  return std::move(*index_);
}

}  // namespace vitri::core
