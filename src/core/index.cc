#include "core/index.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/recovery.h"
#include "core/similarity.h"
#include "linalg/frame_matrix.h"
#include "linalg/kernels.h"
#include "core/validate.h"

namespace vitri::core {

using btree::BPlusTree;
using storage::BufferPool;
using storage::IoTally;
using storage::MemPager;

namespace {

// The ViTri centers, gathered for one transform fit or drift check. The
// index keeps a single in-memory copy of each position (inside its
// ViTri); those calls are rare and queries read positions from the tree.
std::vector<linalg::Vec> Positions(const std::vector<ViTri>& vitris) {
  std::vector<linalg::Vec> positions;
  positions.reserve(vitris.size());
  for (const ViTri& v : vitris) positions.push_back(v.position);
  return positions;
}

Result<OneDimensionalTransform> FitTransform(const ViTriIndexOptions& options,
                                             const std::vector<ViTri>& vitris) {
  const std::vector<linalg::Vec> positions = Positions(vitris);
  return options.transform_factory
             ? options.transform_factory(positions)
             : OneDimensionalTransform::Fit(positions, options.reference,
                                            options.margin_factor);
}

// Full evaluation, shared by the sequential scan and the degraded
// fallback: returns a function that evaluates one candidate against
// every query ViTri, accumulating shared frame estimates per video. The
// candidate's center distances come from one batch-kernel sweep over a
// contiguous copy of the query positions.
auto FullEvaluation(const std::vector<ViTri>& query,
                    std::vector<double>* shared, QueryCosts* costs) {
  linalg::FrameMatrix query_positions;
  for (const ViTri& q : query) query_positions.AppendRow(q.position);
  return [&query, shared, costs, query_positions = std::move(query_positions),
          d2 = std::vector<double>(query.size())](
             const ViTri& candidate) mutable {
    linalg::SquaredDistanceBatch(candidate.position, query_positions, d2);
    for (size_t qi = 0; qi < query.size(); ++qi) {
      ++costs->similarity_evals;
      const double est = EstimatedSharedFrames(query[qi], candidate, d2[qi]);
      if (est > 0.0 && candidate.video_id < shared->size()) {
        (*shared)[candidate.video_id] += est;
      }
    }
  };
}

// Fills in the costs a query's scan loop does not count itself: the
// pages its own tally saw and the wall time since `watch` started.
void FinishCosts(const IoTally& tally, const Stopwatch& watch,
                 QueryCosts* costs) {
  costs->page_accesses = tally.io.logical_reads;
  costs->physical_reads = tally.io.physical_reads;
  costs->cpu_seconds = watch.ElapsedSeconds();
}

// The repo-wide result order: similarity descending, video id
// ascending.
bool BetterMatch(const VideoMatch& a, const VideoMatch& b) {
  return a.similarity > b.similarity ||
         (a.similarity == b.similarity && a.video_id < b.video_id);
}

// Merges per-shard top-k lists (each sorted best-first) into one global
// top-k with a bounded heap: the heap holds at most k matches with the
// *worst* retained match on top, so each candidate costs O(log k) and a
// sorted input list is abandoned at the first element that cannot
// improve the heap. Every video id appears in exactly one shard, so the
// (similarity, id) order is total and the merge is independent of the
// order the lists arrive in.
std::vector<VideoMatch> MergeTopK(
    std::span<const std::vector<VideoMatch>> lists, size_t k) {
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

// Fails with InvalidArgument when the smallest shard of the pool
// `options` describe would hold fewer than kMinPoolShardFrames frames.
Status CheckPoolShardFrames(const ViTriIndexOptions& options) {
  const size_t frames = std::max<size_t>(options.buffer_pool_pages, 1);
  const size_t shards =
      storage::ResolvePoolShards(frames, options.buffer_pool_options);
  if (frames / shards >= kMinPoolShardFrames) return Status::OK();
  return Status::InvalidArgument(
      "a buffer pool of " + std::to_string(frames) + " frames in " +
      std::to_string(shards) + " shards leaves a shard with fewer than " +
      std::to_string(kMinPoolShardFrames) + " frames");
}

}  // namespace

void RecordKnnQuery(const QueryCosts& costs) {
  VITRI_METRIC_COUNTER("query.knn.count")->Increment();
  VITRI_METRIC_HISTOGRAM("query.knn.latency_us")
      ->Record(static_cast<uint64_t>(costs.cpu_seconds * 1e6));
  VITRI_METRIC_HISTOGRAM("query.knn.pages")->Record(costs.page_accesses);
}

Result<ViTriIndex> ViTriIndex::Build(const ViTriSet& set,
                                     const ViTriIndexOptions& options) {
  if (set.vitris.empty()) {
    return Status::InvalidArgument("cannot build an index over no ViTris");
  }
  if (set.dimension != options.dimension) {
    return Status::InvalidArgument("dimension mismatch");
  }
  VITRI_RETURN_IF_ERROR(CheckPoolShardFrames(options));
  for (const ViTri& v : set.vitris) {
    if (v.dimension() != options.dimension) {
      return Status::InvalidArgument("ViTri dimension mismatch");
    }
  }
  ViTriIndex index;
  index.options_ = options;
  {
    // The index is still private to this thread; holding its latch here
    // is uncontended and satisfies the guarded-member contracts.
    WriterLock lock(*index.latch_);
    index.vitris_ = set.vitris;
    index.frame_counts_ = set.frame_counts;
    index.stored_videos_ = static_cast<size_t>(
        std::count_if(set.frame_counts.begin(), set.frame_counts.end(),
                      [](uint32_t frames) { return frames > 0; }));
    VITRI_ASSIGN_OR_RETURN(OneDimensionalTransform t,
                           FitTransform(options, index.vitris_));
    index.transform_ = std::make_unique<OneDimensionalTransform>(std::move(t));
    VITRI_RETURN_IF_ERROR(index.LoadTree());
  }
  return index;
}

Status ViTriIndex::LoadTree() {
  // Tear down in dependency order: the tree and pool reference the pager.
  tree_.reset();
  pool_.reset();
  pager_.reset();
  if (options_.pager_factory) {
    pager_ = options_.pager_factory(options_.page_size);
    if (pager_ == nullptr) {
      return Status::InvalidArgument("pager_factory returned null");
    }
    if (pager_->page_size() != options_.page_size) {
      return Status::InvalidArgument(
          "pager_factory page size disagrees with options.page_size");
    }
  } else {
    pager_ = std::make_unique<MemPager>(options_.page_size);
  }
  pool_ = std::make_unique<BufferPool>(pager_.get(),
                                       options_.buffer_pool_pages,
                                       options_.buffer_pool_options);
  VITRI_ASSIGN_OR_RETURN(
      BPlusTree tree,
      BPlusTree::Create(pool_.get(),
                        static_cast<uint32_t>(
                            ViTri::SerializedSize(options_.dimension))));
  tree_ = std::make_unique<BPlusTree>(std::move(tree));

  std::vector<btree::Entry> entries;
  entries.reserve(vitris_.size());
  for (size_t i = 0; i < vitris_.size(); ++i) {
    btree::Entry e;
    e.key = transform_->Key(vitris_[i].position);
    e.rid = i;
    vitris_[i].Serialize(&e.value);
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(),
            [](const btree::Entry& a, const btree::Entry& b) {
              return a.key < b.key || (a.key == b.key && a.rid < b.rid);
            });
  VITRI_RETURN_IF_ERROR(tree_->BulkLoad(entries));
  VITRI_DCHECK_OK(ValidateInvariantsLocked());
  return Status::OK();
}

Status ViTriIndex::Insert(uint32_t video_id, uint32_t num_frames,
                          const std::vector<ViTri>& vitris) {
  WriterLock lock(*latch_);
  for (const ViTri& v : vitris) {
    if (v.dimension() != options_.dimension) {
      return Status::InvalidArgument("ViTri dimension mismatch");
    }
  }
  VITRI_RETURN_IF_ERROR(CheckInsertVideoIds(video_id, vitris));
  if (wal_ != nullptr) {
    // Log-then-apply: the insert must be recoverable before any of it
    // becomes visible. Replay re-applies committed records in order, so
    // rids reproduce deterministically.
    std::vector<uint8_t> payload;
    EncodeInsertWalRecord(video_id, num_frames, vitris, &payload);
    VITRI_RETURN_IF_ERROR(WalLogInsert(payload));
    VITRI_RETURN_IF_ERROR(MaybeCrash("insert.apply"));
  }
  return ApplyInsert(video_id, num_frames, vitris);
}

Status ViTriIndex::ApplyInsert(uint32_t video_id, uint32_t num_frames,
                               const std::vector<ViTri>& vitris) {
  if (video_id >= frame_counts_.size()) {
    frame_counts_.resize(video_id + 1, 0);
  }
  stored_videos_ -= frame_counts_[video_id] > 0 ? 1 : 0;
  stored_videos_ += num_frames > 0 ? 1 : 0;
  frame_counts_[video_id] = num_frames;
  for (const ViTri& v : vitris) {
    if (v.dimension() != options_.dimension) {
      return Status::InvalidArgument("ViTri dimension mismatch");
    }
    const uint64_t rid = vitris_.size();
    const double key = transform_->Key(v.position);
    std::vector<uint8_t> value;
    v.Serialize(&value);
    VITRI_RETURN_IF_ERROR(tree_->Insert(key, rid, value));
    vitris_.push_back(v);
  }
  VITRI_METRIC_COUNTER("index.inserts")->Increment(vitris.size());
  VITRI_DCHECK_OK(ValidateInvariantsLocked());
  return Status::OK();
}

std::vector<ViTriIndex::RangeSpec> ViTriIndex::MakeRanges(
    const std::vector<ViTri>& query) const {
  std::vector<RangeSpec> ranges;
  ranges.reserve(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    const double key = transform_->Key(query[i].position);
    const double gamma = query[i].radius + options_.epsilon / 2.0;
    ranges.push_back(RangeSpec{key - gamma, key + gamma, i});
  }
  return ranges;
}

std::vector<VideoMatch> ViTriIndex::RankResults(
    const std::vector<double>& shared_by_video, uint32_t query_frames,
    size_t k) const {
  std::vector<VideoMatch> matches;
  for (uint32_t vid = 0; vid < shared_by_video.size(); ++vid) {
    if (shared_by_video[vid] <= 0.0) continue;
    const uint32_t frames = frame_counts_[vid];
    if (frames == 0) continue;
    // Each operand is widened before the sum: two u32 counts wrap.
    const double sim = std::clamp(
        2.0 * shared_by_video[vid] /
            (static_cast<double>(query_frames) + static_cast<double>(frames)),
        0.0, 1.0);
    matches.push_back(VideoMatch{vid, sim});
  }
  std::sort(matches.begin(), matches.end(), BetterMatch);
  if (matches.size() > k) matches.resize(k);
  return matches;
}

Status ViTriIndex::KnnScanTree(const std::vector<ViTri>& query,
                               const std::vector<RangeSpec>& ranges,
                               KnnMethod method,
                               std::vector<double>* shared,
                               QueryCosts* costs, IoTally* tally,
                               QueryTrace* trace) const {
  // One B+-tree range search per scan, each carrying the query ranges
  // whose candidates it yields. Naive: one scan per query range, so
  // overlapping ranges re-read the same leaves (the paper's naive
  // method). Composed: one scan per merged range, carrying the query
  // ranges it contains in query order. Every query range lies inside
  // exactly one merged range, so composition changes which leaves are
  // read, never which (candidate, query ViTri) pairs are evaluated.
  struct Scan {
    double lo = 0.0;
    double hi = 0.0;
    std::span<const RangeSpec> ranges;
  };
  std::vector<Scan> scans;
  std::vector<RangeSpec> carried;
  if (method == KnnMethod::kNaive) {
    for (const RangeSpec& r : ranges) scans.push_back({r.lo, r.hi, {&r, 1}});
  } else {
    TraceSpanScope compose_span(trace, "compose", *tally);
    std::vector<KeyRange> to_merge;
    to_merge.reserve(ranges.size());
    for (const RangeSpec& r : ranges) to_merge.push_back(KeyRange{r.lo, r.hi});
    // Reserved up front: the spans below point into `carried`, which
    // never holds more than every range once.
    carried.reserve(ranges.size());
    for (const KeyRange& m : ComposeKeyRanges(std::move(to_merge))) {
      const size_t first = carried.size();
      for (const RangeSpec& r : ranges) {
        if (r.lo >= m.lo && r.hi <= m.hi) carried.push_back(r);
      }
      scans.push_back({m.lo, m.hi, std::span(carried).subspan(first)});
    }
  }

  // Refinement: the candidate against each carried range that holds its
  // key.
  std::span<const RangeSpec> scan_ranges;
  const btree::ScanCallback on_record =
      [&](double key, uint64_t /*rid*/, std::span<const uint8_t> value) {
        ++costs->candidates;
        auto candidate = ViTri::Deserialize(value, options_.dimension);
        if (!candidate.ok()) return true;
        for (const RangeSpec& r : scan_ranges) {
          if (key < r.lo || key > r.hi) continue;
          ++costs->similarity_evals;
          const double est =
              EstimatedSharedFrames(query[r.query_index], *candidate);
          if (est > 0.0 && candidate->video_id < shared->size()) {
            (*shared)[candidate->video_id] += est;
          }
        }
        return true;
      };
  const double fetch_seconds_before = tally->fetch_seconds;
  {
    TraceSpanScope scan_span(trace, "scan", *tally);
    for (const Scan& scan : scans) {
      ++costs->range_searches;
      scan_ranges = scan.ranges;
      VITRI_RETURN_IF_ERROR(
          tree_->RangeScan(scan.lo, scan.hi, on_record, tally).status());
    }
  }
  // A traced query's tally is timed: the scan keeps the loop's time
  // inside BufferPool::Fetch, and the rest of the loop is refinement.
  if (trace != nullptr) {
    trace->SplitLastSpan("refine",
                         tally->fetch_seconds - fetch_seconds_before);
  }
  return Status::OK();
}

void ViTriIndex::EvaluateInMemory(std::string_view caller, const Status& cause,
                                  const std::vector<ViTri>& query,
                                  std::vector<double>* shared,
                                  QueryCosts* costs) const {
  VITRI_LOG(kWarn) << caller << " degraded to in-memory evaluation: "
                   << cause.ToString();
  VITRI_METRIC_COUNTER("query.degraded")->Increment();
  costs->degraded = true;
  costs->candidates = 0;
  costs->similarity_evals = 0;
  std::fill(shared->begin(), shared->end(), 0.0);
  auto evaluate = FullEvaluation(query, shared, costs);
  for (const ViTri& candidate : vitris_) {
    ++costs->candidates;
    evaluate(candidate);
  }
}

Result<std::vector<VideoMatch>> ViTriIndex::KnnUnrecorded(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    KnnMethod method, QueryCosts* costs, QueryTrace* trace) const {
  ReaderLock lock(*latch_);
  Stopwatch watch;
  if (trace != nullptr) trace->Begin();
  IoTally tally;
  tally.timed = trace != nullptr;
  QueryCosts local;
  // Per-query-ViTri keys and radii for candidate evaluation.
  std::vector<RangeSpec> ranges;
  {
    TraceSpanScope transform_span(trace, "transform", tally);
    ranges = MakeRanges(query);
  }

  std::vector<double> shared(frame_counts_.size(), 0.0);
  const Status scan =
      KnnScanTree(query, ranges, method, &shared, &local, &tally, trace);
  if (scan.IsCorruption()) {
    // The tree hit a quarantined page. Same answer from the in-memory
    // copy (the key ranges only ever *prune* zero-contribution
    // candidates), no index acceleration.
    TraceSpanScope refine_span(trace, "refine", tally);
    EvaluateInMemory("Knn", scan, query, &shared, &local);
  } else if (!scan.ok()) {
    return scan;
  }
  std::vector<VideoMatch> matches;
  {
    TraceSpanScope rank_span(trace, "rank", tally);
    matches = RankResults(shared, query_frames, k);
  }
  FinishCosts(tally, watch, &local);
  if (trace != nullptr) trace->End();
  *costs = local;
  return matches;
}

Result<std::vector<VideoMatch>> ViTriIndex::Knn(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    KnnMethod method, QueryCosts* costs, QueryTrace* trace) {
  VITRI_RETURN_IF_ERROR(CheckQueryViTris(query, options_.dimension));
  QueryCosts local;
  auto result = KnnUnrecorded(query, query_frames, k, method, &local, trace);
  if (!result.ok()) return result;
  RecordKnnQuery(local);
  if (costs != nullptr) *costs = local;
  return result;
}

Result<std::vector<std::vector<VideoMatch>>> ViTriIndex::ScatterKnn(
    std::span<const ViTriIndex* const> shards,
    std::span<const BatchQuery> queries, size_t k, KnnMethod method,
    ThreadPool* executor, QueryCosts* costs,
    std::vector<QueryCosts>* task_costs, std::vector<QueryTrace>* traces) {
  Stopwatch watch;
  const size_t num_shards = shards.size();
  const size_t tasks = queries.size() * num_shards;
  // Scatter. Each task reads only shared index state and writes only its
  // own slots (list, costs, status, trace, and its own IoTally inside
  // KnnUnrecorded), so every task's result and page counts are what the
  // query computes alone, whatever the scheduling.
  std::vector<std::vector<VideoMatch>> lists(tasks);
  std::vector<QueryCosts> spent(tasks);
  std::vector<Status> statuses(tasks);
  if (traces != nullptr) {
    traces->clear();
    traces->resize(tasks);
  }
  const auto run_task = [&](size_t t) {
    const BatchQuery& query = queries[t / num_shards];
    auto matches = shards[t % num_shards]->KnnUnrecorded(
        query.vitris, query.num_frames, k, method, &spent[t],
        traces == nullptr ? nullptr : &(*traces)[t]);
    if (matches.ok()) {
      lists[t] = std::move(*matches);
    } else {
      statuses[t] = matches.status();
    }
  };
  if (executor == nullptr || tasks <= 1) {
    for (size_t t = 0; t < tasks; ++t) run_task(t);
  } else {
    executor->ParallelFor(tasks, run_task);
  }
  for (const Status& status : statuses) VITRI_RETURN_IF_ERROR(status);

  // Gather. A query's costs are the sum of its tasks', and the batch's
  // the sum of them all. A query's tasks may run among other queries'
  // tasks, so its latency sample is the time its tasks took, not a wall
  // time of its own.
  std::vector<std::vector<VideoMatch>> results(queries.size());
  QueryCosts total;
  for (size_t q = 0; q < queries.size(); ++q) {
    const size_t first = q * num_shards;
    results[q] = MergeTopK(std::span(lists).subspan(first, num_shards), k);
    QueryCosts query_costs;
    for (size_t t = first; t < first + num_shards; ++t) {
      query_costs += spent[t];
    }
    RecordKnnQuery(query_costs);
    total += query_costs;
  }
  total.cpu_seconds = watch.ElapsedSeconds();
  if (costs != nullptr) *costs = total;
  if (task_costs != nullptr) *task_costs = std::move(spent);
  return results;
}

Result<std::vector<std::vector<VideoMatch>>> ViTriIndex::BatchKnn(
    std::span<const BatchQuery> queries, size_t k, KnnMethod method,
    ThreadPool* executor, QueryCosts* costs,
    std::vector<QueryTrace>* traces) {
  for (const BatchQuery& q : queries) {
    VITRI_RETURN_IF_ERROR(CheckQueryViTris(q.vitris, options_.dimension));
  }
  const ViTriIndex* const self = this;
  return ScatterKnn({&self, 1}, queries, k, method, executor, costs,
                    /*task_costs=*/nullptr, traces);
}

Result<std::vector<VideoMatch>> ViTriIndex::SequentialScan(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    QueryCosts* costs) {
  VITRI_RETURN_IF_ERROR(CheckQueryViTris(query, options_.dimension));
  ReaderLock lock(*latch_);
  Stopwatch watch;
  IoTally tally;
  QueryCosts local;
  local.range_searches = 1;

  std::vector<double> shared(frame_counts_.size(), 0.0);
  auto evaluate = FullEvaluation(query, &shared, &local);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto scan_result = tree_->RangeScan(
      -kInf, kInf,
      [&](double /*key*/, uint64_t /*rid*/,
          std::span<const uint8_t> value) {
        ++local.candidates;
        auto candidate = ViTri::Deserialize(value, options_.dimension);
        if (candidate.ok()) evaluate(*candidate);
        return true;
      },
      &tally);
  if (scan_result.status().IsCorruption()) {
    EvaluateInMemory("SequentialScan", scan_result.status(), query, &shared,
                     &local);
  } else {
    VITRI_RETURN_IF_ERROR(scan_result.status());
  }

  std::vector<VideoMatch> result = RankResults(shared, query_frames, k);
  FinishCosts(tally, watch, &local);
  if (costs != nullptr) *costs = local;
  return result;
}

namespace {

Status IndexInvariantViolation(const std::string& what) {
  return Status::Internal("index invariant violated: " + what);
}

}  // namespace

Status ViTriIndex::ValidateInvariants() {
  WriterLock lock(*latch_);
  return ValidateInvariantsLocked();
}

Status ViTriIndex::ValidateInvariantsLocked() {
  if (transform_ == nullptr || tree_ == nullptr || pool_ == nullptr ||
      pager_ == nullptr) {
    return IndexInvariantViolation("index is not fully constructed");
  }
  const auto stored = static_cast<size_t>(
      std::count_if(frame_counts_.begin(), frame_counts_.end(),
                    [](uint32_t frames) { return frames > 0; }));
  if (stored != stored_videos_) {
    return IndexInvariantViolation(
        "stored-video count is " + std::to_string(stored_videos_) + " for " +
        std::to_string(stored) + " videos with frames");
  }

  ViTriCheckOptions check;
  check.epsilon = options_.epsilon;
  const ViTriSet snapshot = SnapshotLocked();
  VITRI_RETURN_IF_ERROR(ValidateViTriSet(snapshot, check));
  VITRI_RETURN_IF_ERROR(ValidateSnapshotRoundTrip(snapshot));

  VITRI_RETURN_IF_ERROR(pool_->ValidateInvariants());
  VITRI_RETURN_IF_ERROR(tree_->ValidateInvariants());
  if (tree_->num_entries() != vitris_.size()) {
    return IndexInvariantViolation(
        "tree holds " + std::to_string(tree_->num_entries()) +
        " records for " + std::to_string(vitris_.size()) + " ViTris");
  }

  // Every stored record must deserialize to its in-memory twin and sit
  // under exactly the transform key of its position.
  Status record_status = Status::OK();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto scanned = tree_->RangeScan(
      -kInf, kInf,
      [&](double key, uint64_t rid, std::span<const uint8_t> value) {
        if (rid >= vitris_.size()) {
          record_status = IndexInvariantViolation(
              "tree record has out-of-range rid " + std::to_string(rid));
          return false;
        }
        auto parsed = ViTri::Deserialize(value, options_.dimension);
        if (!parsed.ok()) {
          record_status = IndexInvariantViolation(
              "record " + std::to_string(rid) +
              " does not deserialize: " + parsed.status().ToString());
          return false;
        }
        const ViTri& twin = vitris_[rid];
        if (parsed->video_id != twin.video_id ||
            parsed->cluster_size != twin.cluster_size ||
            parsed->radius != twin.radius ||
            parsed->position != twin.position) {
          record_status = IndexInvariantViolation(
              "record " + std::to_string(rid) +
              " disagrees with its in-memory ViTri");
          return false;
        }
        if (key != transform_->Key(twin.position)) {
          record_status = IndexInvariantViolation(
              "record " + std::to_string(rid) +
              " is filed under the wrong transform key");
          return false;
        }
        return true;
      });
  VITRI_RETURN_IF_ERROR(scanned.status());
  VITRI_RETURN_IF_ERROR(record_status);
  if (*scanned != vitris_.size()) {
    return IndexInvariantViolation(
        "leaf scan visited " + std::to_string(*scanned) + " records for " +
        std::to_string(vitris_.size()) + " ViTris");
  }
  return Status::OK();
}

Result<double> ViTriIndex::DriftAngle() const {
  ReaderLock lock(*latch_);
  return transform_->DriftAngle(Positions(vitris_));
}

Result<bool> ViTriIndex::NeedsRebuild() const {
  // One shared hold covers both checks. (The annotation audit caught
  // the old code reading pool_->corrupt_pages() before taking the
  // latch, racing Rebuild()'s pool replacement — a use-after-free
  // window, not just staleness.)
  ReaderLock lock(*latch_);
  // Quarantined pages mean part of the tree is unreachable: queries
  // still answer (degraded), but only a rebuild restores indexed
  // serving. (DriftAngle is inlined rather than called: shared_mutex
  // acquisitions don't nest safely on one thread.)
  if (!pool_->corrupt_pages().empty()) return true;
  VITRI_ASSIGN_OR_RETURN(double angle,
                         transform_->DriftAngle(Positions(vitris_)));
  return angle > options_.rebuild_angle_threshold;
}

Status ViTriIndex::Rebuild() {
  WriterLock lock(*latch_);
  VITRI_METRIC_COUNTER("index.rebuilds")->Increment();
  VITRI_ASSIGN_OR_RETURN(OneDimensionalTransform t,
                         FitTransform(options_, vitris_));
  transform_ = std::make_unique<OneDimensionalTransform>(std::move(t));
  return LoadTree();
}

}  // namespace vitri::core
