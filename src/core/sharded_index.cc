#include "core/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/os.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
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

/// The repo-wide result order: similarity descending, video id
/// ascending. Matches RankResults() in index.cc, so merged output is
/// ordered exactly like single-index output.
bool BetterMatch(const VideoMatch& a, const VideoMatch& b) {
  return a.similarity > b.similarity ||
         (a.similarity == b.similarity && a.video_id < b.video_id);
}

/// Merges per-shard top-k lists (each sorted best-first) into one
/// global top-k with a bounded heap: the heap holds at most k matches
/// with the *worst* retained match on top, so each candidate costs
/// O(log k) and a sorted input list is abandoned at the first element
/// that cannot improve the heap. Every video id appears in exactly one
/// shard, so ties between distinct entries never involve equal
/// (similarity, id) pairs and the order is total.
std::vector<VideoMatch> MergeTopK(
    const std::vector<std::vector<VideoMatch>>& lists, size_t k) {
  std::vector<VideoMatch> heap;
  if (k == 0) return heap;
  for (const std::vector<VideoMatch>& list : lists) {
    for (const VideoMatch& m : list) {
      if (heap.size() < k) {
        heap.push_back(m);
        std::push_heap(heap.begin(), heap.end(), BetterMatch);
      } else if (BetterMatch(m, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), BetterMatch);
        heap.back() = m;
        std::push_heap(heap.begin(), heap.end(), BetterMatch);
      } else {
        break;  // Sorted best-first: nothing later in this list fits.
      }
    }
  }
  std::sort_heap(heap.begin(), heap.end(), BetterMatch);
  return heap;
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
  size_t shards = requested;
  if (shards == 0) {
    shards = 1;
    if (const char* env = GetEnv("VITRI_INDEX_SHARDS")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0) {
        shards = static_cast<size_t>(parsed);
      }
    }
  }
  return std::min(std::max<size_t>(shards, 1), kMaxIndexShards);
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

Result<std::vector<VideoMatch>> ShardedViTriIndex::Knn(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    KnnMethod method, QueryCosts* costs,
    std::vector<QueryCosts>* shard_costs) {
  VITRI_RETURN_IF_ERROR(
      CheckQueryViTris(query, options_.shard_options.dimension));
  Stopwatch watch;
  QueryCosts total;
  std::vector<QueryCosts> per_shard(num_shards_);
  std::vector<std::vector<VideoMatch>> lists;
  lists.reserve(num_shards_);
  {
    ReaderLock lock(*latch_);
    for (size_t s = 0; s < num_shards_; ++s) {
      if (shards_[s] == nullptr) continue;
      QueryCosts shard_cost;
      VITRI_ASSIGN_OR_RETURN(
          std::vector<VideoMatch> matches,
          shards_[s]->KnnUnrecorded(query, query_frames, k, method,
                                    &shard_cost, nullptr));
      total += shard_cost;
      per_shard[s] = shard_cost;
      lists.push_back(std::move(matches));
    }
  }
  std::vector<VideoMatch> merged = MergeTopK(lists, k);
  total.cpu_seconds = watch.ElapsedSeconds();
  RecordKnnQuery(total);
  if (costs != nullptr) *costs = total;
  if (shard_costs != nullptr) *shard_costs = std::move(per_shard);
  return merged;
}

Result<std::vector<std::vector<VideoMatch>>> ShardedViTriIndex::BatchKnn(
    const std::vector<BatchQuery>& queries, size_t k, KnnMethod method,
    size_t num_threads, QueryCosts* costs) {
  for (const BatchQuery& q : queries) {
    VITRI_RETURN_IF_ERROR(
        CheckQueryViTris(q.vitris, options_.shard_options.dimension));
  }
  Stopwatch watch;
  const size_t n = queries.size();
  std::vector<std::vector<VideoMatch>> out(n);
  QueryCosts total;
  {
    ReaderLock lock(*latch_);
    std::vector<ViTriIndex*> live;
    live.reserve(num_shards_);
    for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
      if (shard != nullptr) live.push_back(shard.get());
    }
    if (n > 0 && !live.empty()) {
      // Scatter: one task per (query, live shard) pair. Each worker
      // writes only its own slots; the shard's Knn takes the shard
      // latch shared, so tasks never contend on a writer.
      const size_t tasks = n * live.size();
      std::vector<std::vector<std::vector<VideoMatch>>> scattered(n);
      for (std::vector<std::vector<VideoMatch>>& lists : scattered) {
        lists.resize(live.size());
      }
      std::vector<QueryCosts> task_costs(tasks);
      std::vector<Status> statuses(tasks);
      const auto run_one = [&](size_t t) {
        latch_->AssertHeldShared();
        const size_t q = t / live.size();
        const size_t j = t % live.size();
        auto matches =
            live[j]->KnnUnrecorded(queries[q].vitris, queries[q].num_frames,
                                   k, method, &task_costs[t], nullptr);
        if (!matches.ok()) {
          statuses[t] = matches.status();
          return;
        }
        scattered[q][j] = std::move(*matches);
      };
      const size_t workers = std::min(num_threads, tasks);
      if (workers <= 1 || tasks <= 1) {
        for (size_t t = 0; t < tasks; ++t) run_one(t);
      } else {
        ThreadPool pool(workers);
        pool.ParallelFor(tasks, run_one);
      }
      for (const Status& status : statuses) VITRI_RETURN_IF_ERROR(status);

      // Gather: merging is commutative over shards given the total
      // (similarity, id) order, so results are identical to sequential
      // per-query Knn regardless of task scheduling. Each task counted
      // its own pages, so a query's costs are the sum of its tasks', and
      // the batch's the sum of them all. A query's tasks run among other
      // queries' tasks, so its latency sample is the time its tasks took,
      // not a wall time of its own.
      for (size_t q = 0; q < n; ++q) {
        out[q] = MergeTopK(scattered[q], k);
        QueryCosts query_costs;
        for (size_t j = 0; j < live.size(); ++j) {
          query_costs += task_costs[q * live.size() + j];
        }
        RecordKnnQuery(query_costs);
        total += query_costs;
      }
    }
  }
  total.cpu_seconds = watch.ElapsedSeconds();
  if (costs != nullptr) *costs = total;
  return out;
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
