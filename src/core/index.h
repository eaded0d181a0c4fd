#ifndef VITRI_CORE_INDEX_H_
#define VITRI_CORE_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/annotated_lock.h"
#include "common/result.h"
#include "core/query_trace.h"
#include "core/transform.h"
#include "core/vitri.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace vitri::core {

/// Configuration of a ViTri index.
struct ViTriIndexOptions {
  /// Feature dimensionality of indexed ViTris.
  int dimension = 64;
  /// Frame similarity threshold used at build time; the per-query search
  /// radius is R_i^Q + epsilon/2 (every indexed radius is <= epsilon/2).
  double epsilon = 0.15;
  /// Reference point of the one-dimensional transformation.
  ReferencePointKind reference = ReferencePointKind::kOptimal;
  /// Placement margin of the optimal reference point.
  double margin_factor = 2.0;
  /// Page size of the backing store (paper: 4K).
  size_t page_size = 4096;
  /// Buffer pool frames.
  size_t buffer_pool_pages = 256;
  /// First-principal-component drift (radians) beyond which
  /// NeedsRebuild() reports true (Section 6.3.3 policy).
  double rebuild_angle_threshold = 0.35;
  /// Backing store factory, called with the page size whenever the tree
  /// is (re)built. Defaults to an in-memory pager; inject a
  /// FilePager/RetryingPager/FaultInjectingPager stack for durability or
  /// fault-tolerance testing. Must return a fresh, empty pager.
  std::function<std::unique_ptr<storage::Pager>(size_t page_size)>
      pager_factory;
  /// Durability knobs of the tree's buffer pool (sync_on_flush etc.).
  storage::BufferPoolOptions buffer_pool_options;
  /// Optional transform override: when set, Build() and Rebuild() call
  /// this with the indexed positions instead of fitting `reference` on
  /// them. The sharded index uses it to pin one globally fitted
  /// reference point into every shard (DESIGN.md §17).
  std::function<Result<OneDimensionalTransform>(
      const std::vector<linalg::Vec>& points)>
      transform_factory;
};

/// Configuration of the durable-ingest subsystem (EnableDurability /
/// Open). A durable index directory holds, per DESIGN.md §13:
///   CURRENT             the active generation number (atomic pointer)
///   snapshot-<G>.vsnp   checkpoint of generation G's contents
///   wal-<G>.vlog        log of inserts committed since that checkpoint
struct DurabilityOptions {
  /// WAL framing/sync policy (group commit etc.).
  storage::WalOptions wal;
  /// Opens the append-only file backing a generation's WAL. Defaults to
  /// PosixWalFile::Open with wal.file_sync; tests interpose
  /// FaultInjectingWalFile here to simulate power cuts.
  std::function<Result<std::unique_ptr<storage::WalFile>>(
      const std::string& path)>
      wal_file_factory;
  /// Crash-point hook for the recovery harness: called with a named
  /// point on the insert/checkpoint paths ("insert.wal.commit",
  /// "checkpoint.current", ...); returning true simulates power loss
  /// there — the operation fails with IoError and on-disk state is
  /// whatever preceded the point. Production leaves this empty.
  std::function<bool(std::string_view point)> crash_hook;
};

/// What ViTriIndex::Open found while recovering.
struct RecoveryStats {
  uint64_t generation = 0;
  /// Contents of the checkpoint snapshot.
  size_t snapshot_vitris = 0;
  size_t snapshot_videos = 0;
  /// WAL replay: committed batches applied on top of the snapshot.
  uint64_t wal_commits_replayed = 0;
  uint64_t wal_records_applied = 0;
  /// Intact but uncommitted records discarded, and torn/uncommitted
  /// bytes truncated off the tail.
  uint64_t wal_records_discarded = 0;
  uint64_t wal_bytes_discarded = 0;
  bool wal_torn_tail = false;
  /// Post-replay totals.
  size_t recovered_vitris = 0;
  size_t recovered_videos = 0;
};

/// KNN evaluation strategy (Section 5.2).
enum class KnnMethod {
  /// One B+-tree range search per query ViTri; overlapping ranges
  /// re-access the same leaves.
  kNaive,
  /// Query composition: overlapping key ranges are merged first, so each
  /// leaf is visited at most once per query.
  kComposed,
};

/// Cost counters for one query, in the units the paper plots.
struct QueryCosts {
  uint64_t page_accesses = 0;      // Logical page fetches (I/O cost).
  uint64_t physical_reads = 0;     // Of which missed the buffer pool.
  uint64_t candidates = 0;         // Leaf records scanned (with repeats).
  uint64_t similarity_evals = 0;   // ViTri-pair similarity computations.
  uint64_t range_searches = 0;     // Range searches issued.
  double cpu_seconds = 0.0;        // Wall time of the query.
  /// True when the tree hit corrupted pages and the query was answered
  /// from the in-memory ViTri copy instead (correct but unindexed).
  bool degraded = false;

  QueryCosts& operator+=(const QueryCosts& rhs) {
    page_accesses += rhs.page_accesses;
    physical_reads += rhs.physical_reads;
    candidates += rhs.candidates;
    similarity_evals += rhs.similarity_evals;
    range_searches += rhs.range_searches;
    cpu_seconds += rhs.cpu_seconds;
    degraded = degraded || rhs.degraded;
    return *this;
  }
};

/// Records one answered KNN query in the query.knn.* metrics: the count,
/// latency_us (from cpu_seconds) and pages (page_accesses). Every query
/// is recorded once: ViTriIndex::Knn and each BatchKnn query record
/// themselves, and a sharded index records each merged query (its
/// shards record nothing).
void RecordKnnQuery(const QueryCosts& costs);

/// One KNN result row.
struct VideoMatch {
  uint32_t video_id = 0;
  /// Estimated similarity in [0, 1].
  double similarity = 0.0;
};

/// One query of a BatchKnn() fan-out: a query video's summary plus its
/// frame count (for similarity normalization).
struct BatchQuery {
  std::vector<ViTri> vitris;
  uint32_t num_frames = 0;
};

/// The paper's index: ViTri positions mapped to one-dimensional keys by
/// a reference-point transform and stored in a disk-paged B+-tree whose
/// leaves carry the full triplets. Supports bulk build, dynamic insert,
/// naive and composed KNN search (single query or a batch fanned across
/// a thread pool), a sequential-scan baseline, and the PCA-drift rebuild
/// policy.
///
/// Thread-safety: the index carries a reader-writer latch, so online
/// Insert() is safe while queries run. Queries (Knn, BatchKnn,
/// SequentialScan, FrameSearch, Snapshot) take it shared — BatchKnn
/// holds ONE shared acquisition for the whole batch and its workers
/// take no locks of their own — while Insert, Rebuild, Checkpoint,
/// DropCaches, and ValidateInvariants take it exclusive. Writers are
/// thereby serialized with each other and with queries at the index
/// granularity; see DESIGN.md §13 for why finer-grained latching is
/// deferred.
///
/// Durability: EnableDurability() attaches a write-ahead log so every
/// subsequent Insert() is logged-then-applied and survives a crash;
/// Open() recovers an index from such a directory (checkpoint snapshot
/// + WAL replay, truncating any torn tail). Checkpoint() folds the WAL
/// into a fresh snapshot generation.
class ViTriIndex {
 public:
  ViTriIndex(ViTriIndex&&) noexcept = default;
  ViTriIndex& operator=(ViTriIndex&&) noexcept = default;
  ViTriIndex(const ViTriIndex&) = delete;
  ViTriIndex& operator=(const ViTriIndex&) = delete;

  /// Builds an index over a summarized database (bulk load).
  static Result<ViTriIndex> Build(const ViTriSet& set,
                                  const ViTriIndexOptions& options);

  /// Recovers a durable index from `dir` (previously populated by
  /// EnableDurability/Checkpoint): loads the CURRENT generation's
  /// snapshot, rebuilds the tree, replays every committed WAL insert on
  /// top, repairs the log's torn tail if the last run crashed mid-write,
  /// and garbage-collects stale generations. `options.dimension` is
  /// overridden by the snapshot's dimension (the snapshot is
  /// authoritative). The recovered index is durable: inserts continue
  /// appending to the repaired WAL.
  static Result<ViTriIndex> Open(const std::string& dir,
                                 ViTriIndexOptions options,
                                 DurabilityOptions durability = {},
                                 RecoveryStats* stats = nullptr);

  /// Makes this index durable in `dir` (created if missing): writes a
  /// generation-1 checkpoint of the current contents and opens a WAL for
  /// subsequent inserts. Fails if the index is already durable.
  Status EnableDurability(const std::string& dir,
                          DurabilityOptions durability = {})
      VITRI_EXCLUDES(*latch_);

  /// Folds the WAL into a new checkpoint generation: snapshots the
  /// current contents (crash-atomically), starts an empty WAL, flips
  /// CURRENT, and removes the previous generation's files. On return
  /// every insert so far is durable in the snapshot regardless of WAL
  /// sync policy.
  Status Checkpoint() VITRI_EXCLUDES(*latch_);

  /// Drains group commit: forces every acked insert durable now.
  Status SyncWal() VITRI_EXCLUDES(*latch_);

  /// True once EnableDurability/Open attached a WAL.
  bool durable() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return wal_ != nullptr;
  }
  /// Current checkpoint generation (0 when not durable).
  uint64_t generation() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return generation_;
  }
  /// WAL commit counters for the current generation (0 when not
  /// durable): acked inserts, and the prefix of them a crash is
  /// guaranteed not to lose.
  uint64_t wal_commits() const VITRI_EXCLUDES(*latch_);
  uint64_t wal_durable_commits() const VITRI_EXCLUDES(*latch_);

  /// Inserts one new video's summary (standard B+-tree insertions with
  /// the original reference point, as in Section 6.3.3). On a durable
  /// index the insert is WAL-logged and committed before it is applied;
  /// when Insert returns OK the insert is recoverable (immediately
  /// under WalSyncMode::kEveryCommit, after the next sync under group
  /// commit). Safe to call while queries run (exclusive latch).
  Status Insert(uint32_t video_id, uint32_t num_frames,
                const std::vector<ViTri>& vitris) VITRI_EXCLUDES(*latch_);

  /// Top-k most similar videos to a query summary. `query_frames` is the
  /// query video's frame count (for similarity normalization). Costs are
  /// optional; their page counts are this query's own fetches (its
  /// IoTally), exact while other queries share the pool. A non-null
  /// `trace` records per-stage timed spans (transform → compose → scan
  /// → refine → rank) with the query's I/O in each. The traced query
  /// runs the same scan loop and only also times its page fetches, so
  /// results are bit-identical to the untraced query (DESIGN.md §12).
  Result<std::vector<VideoMatch>> Knn(const std::vector<ViTri>& query,
                                      uint32_t query_frames, size_t k,
                                      KnnMethod method,
                                      QueryCosts* costs = nullptr,
                                      QueryTrace* trace = nullptr)
      VITRI_EXCLUDES(*latch_);

  /// Fans the batch's queries across `num_threads` worker threads, each
  /// running the same per-query KNN (with per-query query composition)
  /// as Knn(). Results are indexed like `queries` and bit-identical to
  /// calling Knn() sequentially on each query: every query accumulates
  /// into its own buffers in the same order regardless of scheduling.
  /// num_threads <= 1 runs inline (no pool); 0 is treated as 1.
  /// `costs`, if given, aggregates the whole batch: cpu_seconds is the
  /// batch wall time, every other counter is the sum of the queries'
  /// own (page counts included, each from its query's IoTally).
  /// `traces`, if given, is resized to queries.size() and trace i is
  /// filled by the worker running query i (each trace is written by
  /// exactly one worker, with query i's own I/O). Each query is recorded
  /// in the query.knn.* metrics, as Knn() records its one.
  Result<std::vector<std::vector<VideoMatch>>> BatchKnn(
      const std::vector<BatchQuery>& queries, size_t k, KnnMethod method,
      size_t num_threads, QueryCosts* costs = nullptr,
      std::vector<QueryTrace>* traces = nullptr) VITRI_EXCLUDES(*latch_);

  /// Baseline: evaluates the query against every stored ViTri by
  /// scanning the whole leaf level.
  Result<std::vector<VideoMatch>> SequentialScan(
      const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
      QueryCosts* costs = nullptr) VITRI_EXCLUDES(*latch_);

  /// Frame point query: the top-k videos ranked by the estimated number
  /// of their frames within `epsilon` of the single frame `frame`
  /// (VideoMatch::similarity holds that estimate, not a [0,1] score).
  /// One composed range search of radius epsilon + options.epsilon/2.
  /// InvalidArgument for a frame of the wrong dimension or with a
  /// non-finite coordinate, and for an epsilon that is not a positive
  /// finite number.
  Result<std::vector<VideoMatch>> FrameSearch(linalg::VecView frame,
                                              double epsilon, size_t k,
                                              QueryCosts* costs = nullptr)
      VITRI_EXCLUDES(*latch_);

  /// Angle between the build-time first principal component and the
  /// current data's (0 for non-optimal reference kinds).
  Result<double> DriftAngle() const VITRI_EXCLUDES(*latch_);

  /// True when DriftAngle() exceeds the configured threshold, or when
  /// corrupted pages are quarantined (Rebuild() heals both).
  Result<bool> NeedsRebuild() const VITRI_EXCLUDES(*latch_);

  /// Re-fits the transform on the current contents and rebuilds the
  /// tree by bulk load (the Section 6.3.3 "one-off construction").
  Status Rebuild() VITRI_EXCLUDES(*latch_);

  const ViTriIndexOptions& options() const { return options_; }
  /// A copy of the active transform, taken under the shared latch so a
  /// concurrent Rebuild() cannot swap it mid-read.
  OneDimensionalTransform transform() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return *transform_;
  }
  /// Content counters; latched shared so they are safe to poll while a
  /// writer is active.
  size_t num_vitris() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return vitris_.size();
  }
  size_t num_videos() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return frame_counts_.size();
  }
  /// Videos with a recorded frame count — num_videos() minus id-space
  /// gaps. The sharded index reports this per shard (each shard's frame
  /// count table is keyed by global video id, so its extent is not its
  /// population). Kept current by inserts, so reading it is O(1).
  size_t stored_videos() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return stored_videos_;
  }
  uint32_t tree_height() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return tree_->height();
  }
  /// Point-in-time copy of the pool's cumulative I/O counters: every
  /// caller's fetches, validators' included. Latched shared: the
  /// annotation audit found the old by-reference accessor dereferenced
  /// pool_ unlatched, racing Rebuild()'s pool replacement (a
  /// use-after-free window, not just a stale read).
  storage::IoStats io_stats() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return pool_->stats();
  }

  /// Tree pages whose checksum verification failed. While non-empty,
  /// queries touching them are served degraded and NeedsRebuild() is
  /// true; Rebuild() reloads the tree from the in-memory copy and
  /// clears the quarantine. Returns a copy (snapshot) — safe to call
  /// while queries run. Latched shared for the same pool_-replacement
  /// race io_stats() had.
  std::set<storage::PageId> quarantined_pages() const
      VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return pool_->corrupt_pages();
  }

  /// Drops all cached pages (cold-cache experiments). Exclusive: the
  /// flush inside must not race a writer mutating pinned pages.
  Status DropCaches() VITRI_EXCLUDES(*latch_) {
    WriterLock lock(*latch_);
    return pool_->EvictAll();
  }

  /// Deep self-check of the whole index: the in-memory summary obeys
  /// every ViTri invariant (core/validate.h, with this index's epsilon)
  /// and survives a serialization round trip, stored_videos() matches a
  /// recount, the buffer pool and B+-tree pass their own validators,
  /// and a full leaf scan proves each stored record deserializes to its
  /// in-memory twin filed under exactly transform().Key(position). Its
  /// reads count in the pool's cumulative io_stats() like any other
  /// read; no query's costs include them, since each query counts only
  /// its own IoTally. Runs after every mutating operation in debug
  /// builds (VITRI_DCHECK) and via `vitri check`.
  Status ValidateInvariants() VITRI_EXCLUDES(*latch_);

  /// A copy of the current contents as a ViTriSet (the input of
  /// snapshot persistence; see core/snapshot.h).
  ViTriSet Snapshot() const VITRI_EXCLUDES(*latch_) {
    ReaderLock lock(*latch_);
    return SnapshotLocked();
  }

 private:
  /// Queries its shards through KnnUnrecorded().
  friend class ShardedViTriIndex;

  ViTriIndex() = default;

  ViTriSet SnapshotLocked() const VITRI_REQUIRES_SHARED(*latch_) {
    ViTriSet set;
    set.dimension = options_.dimension;
    set.vitris = vitris_;
    set.frame_counts = frame_counts_;
    return set;
  }

  /// (Re)creates pager/pool/tree and bulk-loads all current ViTris using
  /// the current transform.
  Status LoadTree() VITRI_REQUIRES(*latch_);

  /// Applies one insert to the tree and in-memory copy. The REQUIRES
  /// covers both real callers: a logged Insert() under the exclusive
  /// latch, and Open()'s replay loop, which takes the (uncontended)
  /// latch per record while the index is still private to one thread.
  /// Does NOT touch the WAL.
  Status ApplyInsert(uint32_t video_id, uint32_t num_frames,
                     const std::vector<ViTri>& vitris)
      VITRI_REQUIRES(*latch_);

  // --- durable-ingest internals (recovery.cc) ---
  /// Fails with IoError when the configured crash hook fires at `point`.
  /// Reads dur_ only, so a shared hold suffices (writers hold exclusive,
  /// which subsumes it).
  Status MaybeCrash(std::string_view point) VITRI_REQUIRES_SHARED(*latch_);
  /// Writes the next checkpoint generation (snapshot + empty WAL +
  /// CURRENT flip + GC) and swaps the writer. Exclusive latch held.
  Status RotateGenerationLocked() VITRI_REQUIRES(*latch_);
  /// Logs one encoded insert to the WAL and commits it.
  Status WalLogInsert(const std::vector<uint8_t>& payload)
      VITRI_REQUIRES(*latch_);

  Status ValidateInvariantsLocked() VITRI_REQUIRES(*latch_);

  /// The key range [lo, hi] that query ViTri `query_index` searches
  /// (its transform key ± R_i^Q + epsilon/2).
  struct RangeSpec {
    double lo = 0.0;
    double hi = 0.0;
    size_t query_index = 0;
  };
  std::vector<RangeSpec> MakeRanges(const std::vector<ViTri>& query) const
      VITRI_REQUIRES_SHARED(*latch_);

  std::vector<VideoMatch> RankResults(
      const std::vector<double>& shared_by_video, uint32_t query_frames,
      size_t k) const VITRI_REQUIRES_SHARED(*latch_);

  /// Tree-backed evaluation of a KNN query into `shared`: one loop of
  /// range searches whose callback evaluates each candidate against the
  /// query ranges holding its key, fetching pages on the query's
  /// `tally`. Read-only; safe to run concurrently from BatchKnn workers.
  Status KnnScanTree(const std::vector<ViTri>& query,
                     const std::vector<RangeSpec>& ranges, KnnMethod method,
                     std::vector<double>* shared, QueryCosts* costs,
                     storage::IoTally* tally, QueryTrace* trace) const
      VITRI_REQUIRES_SHARED(*latch_);

  /// One whole KNN query: ranges, tree scan (with the degraded in-memory
  /// fallback) and ranking, with its page counts from its own IoTally
  /// and its wall time. Fills every field of `*costs` (non-null) on
  /// success and the trace when non-null; records no metrics.
  /// Read-only.
  Result<std::vector<VideoMatch>> KnnCompute(const std::vector<ViTri>& query,
                                             uint32_t query_frames, size_t k,
                                             KnnMethod method,
                                             QueryCosts* costs,
                                             QueryTrace* trace) const
      VITRI_REQUIRES_SHARED(*latch_);

  /// Knn() without recording the query in the query.knn.* metrics:
  /// checks the query, takes the latch shared and runs KnnCompute().
  Result<std::vector<VideoMatch>> KnnUnrecorded(
      const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
      KnnMethod method, QueryCosts* costs, QueryTrace* trace) const
      VITRI_EXCLUDES(*latch_);

  /// Degraded path of Knn and SequentialScan after the tree scan failed
  /// with `cause`: logs and counts it, then recomputes `shared` and the
  /// candidate counters from every in-memory ViTri against every query
  /// ViTri (what a full sequential scan computes, minus broken pages).
  void EvaluateInMemory(std::string_view caller, const Status& cause,
                        const std::vector<ViTri>& query,
                        std::vector<double>* shared, QueryCosts* costs) const
      VITRI_REQUIRES_SHARED(*latch_);

  ViTriIndexOptions options_;
  /// Index-level reader-writer latch (see the class comment).
  /// Heap-allocated so the index stays movable; never null. First in
  /// the system-wide acquisition order: ViTriIndex → BPlusTree →
  /// BufferPool → Wal (DESIGN.md §14).
  mutable std::unique_ptr<SharedMutex> latch_ = std::make_unique<SharedMutex>();
  /// Heap-allocated (not std::optional) for two reasons: delayed
  /// construction without unchecked-optional-access hazards, and a
  /// stable address while Rebuild() swaps the object under the
  /// exclusive latch.
  std::unique_ptr<OneDimensionalTransform> transform_
      VITRI_GUARDED_BY(*latch_);
  std::unique_ptr<storage::Pager> pager_ VITRI_GUARDED_BY(*latch_);
  std::unique_ptr<storage::BufferPool> pool_ VITRI_GUARDED_BY(*latch_);
  std::unique_ptr<btree::BPlusTree> tree_ VITRI_GUARDED_BY(*latch_);
  /// The one in-memory copy of each ViTri, for rebuild, drift checks,
  /// validation and degraded queries; queries go through the tree.
  std::vector<ViTri> vitris_ VITRI_GUARDED_BY(*latch_);
  std::vector<uint32_t> frame_counts_ VITRI_GUARDED_BY(*latch_);
  /// Entries of frame_counts_ that are non-zero.
  size_t stored_videos_ VITRI_GUARDED_BY(*latch_) = 0;

  /// Durable-ingest state; empty/null while not durable.
  std::string dur_dir_ VITRI_GUARDED_BY(*latch_);
  DurabilityOptions dur_ VITRI_GUARDED_BY(*latch_);
  uint64_t generation_ VITRI_GUARDED_BY(*latch_) = 0;
  std::unique_ptr<storage::WalWriter> wal_ VITRI_GUARDED_BY(*latch_);
};

}  // namespace vitri::core

#endif  // VITRI_CORE_INDEX_H_
