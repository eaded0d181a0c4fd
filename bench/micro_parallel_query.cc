// Scaling of the parallel query and ingest paths: BatchKnn throughput
// and BuildDatabase wall time swept from 1 thread to the machine's
// hardware concurrency, verifying at every thread count that the
// results are bit-identical to the sequential run, plus a
// sharded-buffer-pool section that hammers concurrent Fetch at one
// shard (the old single-latch pool) vs. the auto shard count, reporting
// per-shard hit rates and evictions (DESIGN.md §16). Speedup depends on the machine's core count; the bit-identity
// checks hold everywhere.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/vitri_builder.h"
#include "harness/bench_common.h"
#include "harness/bench_report.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace {

using namespace vitri;
using namespace vitri::core;

bool Identical(const std::vector<std::vector<VideoMatch>>& a,
               const std::vector<std::vector<VideoMatch>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].video_id != b[q][i].video_id) return false;
      if (std::memcmp(&a[q][i].similarity, &b[q][i].similarity,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// 1, 2, 4, ... capped by (and always including) hardware concurrency.
std::vector<size_t> ThreadSweep() {
  const size_t hw = std::max<size_t>(1, ThreadPool::HardwareThreads());
  std::vector<size_t> counts;
  for (size_t t = 1; t < hw; t *= 2) counts.push_back(t);
  counts.push_back(hw);
  return counts;
}

}  // namespace

int main() {
  const double scale = bench::EnvDouble("VITRI_SCALE", 0.02);
  const int num_queries = bench::EnvInt("VITRI_QUERIES", 32);
  const int repeats = bench::EnvInt("VITRI_REPEATS", 3);

  bench::PrintHeader("Parallel scaling",
                     "BatchKnn / BuildDatabase throughput vs. threads");
  std::printf("# hardware threads: %zu\n\n",
              ThreadPool::HardwareThreads());

  bench::WorkloadOptions wo;
  wo.scale = scale;
  wo.num_queries = num_queries;
  bench::Workload w = bench::BuildWorkload(wo);

  ViTriIndexOptions io;
  io.epsilon = w.epsilon;
  auto index = ViTriIndex::Build(w.set, io);
  if (!index.ok()) return 1;

  std::vector<BatchQuery> batch;
  batch.reserve(w.queries.size());
  for (const video::VideoSequence& query : w.queries) {
    batch.push_back(BatchQuery{
        bench::Summarize(query, w.epsilon),
        static_cast<uint32_t>(query.num_frames())});
  }

  bench::BenchReport report("micro_parallel_query");

  // --- Query scaling -----------------------------------------------
  std::printf("%-10s %-12s %-14s %-10s %-10s\n", "threads", "wall ms",
              "queries/s", "speedup", "identical");
  std::vector<std::vector<VideoMatch>> baseline;
  double baseline_ms = 0.0;
  for (const size_t threads : ThreadSweep()) {
    double best_ms = 0.0;
    std::vector<std::vector<VideoMatch>> last;
    QueryCosts costs;
    for (int r = 0; r < repeats; ++r) {
      Stopwatch timer;
      auto results = index->BatchKnn(batch, 10, KnnMethod::kComposed,
                                     threads, &costs);
      const double ms = timer.ElapsedMillis();
      if (!results.ok()) {
        std::fprintf(stderr, "BatchKnn failed: %s\n",
                     results.status().ToString().c_str());
        return 1;
      }
      last = std::move(*results);
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) {
      baseline = last;
      baseline_ms = best_ms;
    }
    const bool same = Identical(baseline, last);
    std::printf("%-10zu %-12.2f %-14.1f %-10.2f %-10s\n", threads,
                best_ms,
                static_cast<double>(batch.size()) / (best_ms / 1e3),
                baseline_ms / best_ms, same ? "yes" : "NO");
    report.AddRow()
        .Set("section", "batch_knn")
        .Set("threads", threads)
        .Set("wall_ms", best_ms)
        .Set("queries_per_s",
             static_cast<double>(batch.size()) / (best_ms / 1e3))
        .Set("speedup", baseline_ms / best_ms)
        .Set("page_accesses", costs.page_accesses)
        .Set("identical", same);
    if (!same) return 1;
  }

  // --- Ingest scaling ----------------------------------------------
  std::printf("\n%-10s %-12s %-14s %-10s\n", "threads", "wall ms",
              "videos/s", "speedup");
  double ingest_baseline_ms = 0.0;
  for (const size_t threads : ThreadSweep()) {
    ViTriBuilderOptions bo;
    bo.epsilon = w.epsilon;
    bo.num_threads = static_cast<int>(threads);
    ViTriBuilder builder(bo);
    double best_ms = 0.0;
    for (int r = 0; r < repeats; ++r) {
      Stopwatch timer;
      auto set = builder.BuildDatabase(w.db);
      const double ms = timer.ElapsedMillis();
      if (!set.ok() || set->size() != w.set.size()) {
        std::fprintf(stderr, "parallel summarize diverged\n");
        return 1;
      }
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) ingest_baseline_ms = best_ms;
    std::printf("%-10zu %-12.2f %-14.1f %-10.2f\n", threads, best_ms,
                static_cast<double>(w.db.num_videos()) / (best_ms / 1e3),
                ingest_baseline_ms / best_ms);
    report.AddRow()
        .Set("section", "ingest")
        .Set("threads", threads)
        .Set("wall_ms", best_ms)
        .Set("videos_per_s",
             static_cast<double>(w.db.num_videos()) / (best_ms / 1e3))
        .Set("speedup", ingest_baseline_ms / best_ms);
  }

  // --- Buffer pool scaling -----------------------------------------
  // Concurrent Fetch against one shard (the old single-latch pool) vs.
  // the auto shard count, same page universe and access pattern. Every
  // worker mixes a random working set with a leaf-chain-style
  // sequential scan, so hit rates and evictions both have signal.
  // MemPager keeps the I/O cost itself negligible: what this section
  // measures is latch contention in the pool bookkeeping.
  {
    constexpr size_t kPoolPages = 2048;
    constexpr size_t kPoolCapacity = 512;
    const int fetches_per_thread =
        bench::EnvInt("VITRI_POOL_FETCHES", 40000);
    std::printf("\n%-10s %-10s %-10s %-12s %-14s %-10s %-10s\n", "config",
                "shards", "threads", "wall ms", "fetches/s", "speedup",
                "hit rate");
    for (const size_t shard_config : {size_t{1}, size_t{0}}) {
      storage::MemPager pager(256);
      storage::BufferPoolOptions po;
      po.shards = shard_config;
      po.sync_on_flush = false;
      storage::BufferPool pool(&pager, kPoolCapacity, po);
      for (size_t i = 0; i < kPoolPages; ++i) {
        auto page = pool.New();
        if (!page.ok()) return 1;
        page->MarkDirty();
      }
      if (!pool.FlushAll().ok() || !pool.EvictAll().ok()) return 1;
      const char* config = shard_config == 1 ? "1-shard" : "sharded";

      double pool_baseline_ms = 0.0;
      for (const size_t threads : ThreadSweep()) {
        // A cold cache per run, and counters taken as deltas of the
        // shards' cumulative ones, so the rates describe this sweep point
        // only.
        if (!pool.EvictAll().ok()) return 1;
        const std::vector<storage::IoSnapshot> before = pool.ShardSnapshots();
        Stopwatch timer;
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (size_t t = 0; t < threads; ++t) {
          workers.emplace_back([&pool, t, fetches_per_thread] {
            Rng rng(42 + t);
            // 75% random working-set fetches, 25% sequential scan.
            storage::PageId cursor =
                static_cast<storage::PageId>(rng.Index(kPoolPages));
            for (int i = 0; i < fetches_per_thread; ++i) {
              storage::PageId id;
              if (i % 4 == 3) {
                cursor = (cursor + 1) % kPoolPages;
                id = cursor;
              } else {
                // Zipf-ish: half the traffic hits 1/8 of the pages, so
                // the pool has a meaningful hot set to cache.
                id = static_cast<storage::PageId>(
                    rng.Index(2) == 0 ? rng.Index(kPoolPages / 8)
                                      : rng.Index(kPoolPages));
              }
              auto page = pool.Fetch(id);
              if (!page.ok()) std::abort();  // MemPager cannot fail.
            }
          });
        }
        for (std::thread& worker : workers) worker.join();
        const double ms = timer.ElapsedMillis();
        if (threads == 1) pool_baseline_ms = ms;
        std::vector<storage::IoSnapshot> shards = pool.ShardSnapshots();
        storage::IoSnapshot total;
        for (size_t i = 0; i < shards.size(); ++i) {
          shards[i] = shards[i] - before[i];
          total = total + shards[i];
        }
        const double total_fetches =
            static_cast<double>(threads) * fetches_per_thread;
        const double hit_rate =
            total.logical_reads == 0
                ? 0.0
                : static_cast<double>(total.cache_hits) /
                      static_cast<double>(total.logical_reads);
        std::printf("%-10s %-10zu %-10zu %-12.2f %-14.0f %-10.2f "
                    "%-10.3f\n",
                    config, pool.num_shards(), threads, ms,
                    total_fetches / (ms / 1e3), pool_baseline_ms / ms,
                    hit_rate);
        report.AddRow()
            .Set("section", "pool_fetch")
            .Set("config", config)
            .Set("shards", pool.num_shards())
            .Set("threads", threads)
            .Set("wall_ms", ms)
            .Set("fetches_per_s", total_fetches / (ms / 1e3))
            .Set("speedup", pool_baseline_ms / ms)
            .Set("hit_rate", hit_rate)
            .Set("evictions", total.evictions);

        // Per-shard balance at the widest sweep point: shard-local hit
        // rate and evictions.
        if (threads == ThreadSweep().back()) {
          for (size_t i = 0; i < shards.size(); ++i) {
            const storage::IoSnapshot& s = shards[i];
            const double shard_hit_rate =
                s.logical_reads == 0
                    ? 0.0
                    : static_cast<double>(s.cache_hits) /
                          static_cast<double>(s.logical_reads);
            std::printf("  shard %zu: %llu fetches, hit rate %.3f, "
                        "%llu evictions\n",
                        i,
                        static_cast<unsigned long long>(s.logical_reads),
                        shard_hit_rate,
                        static_cast<unsigned long long>(s.evictions));
            report.AddRow()
                .Set("section", "pool_shard")
                .Set("config", config)
                .Set("shard", i)
                .Set("threads", threads)
                .Set("logical_reads", s.logical_reads)
                .Set("hit_rate", shard_hit_rate)
                .Set("evictions", s.evictions);
          }
        }
      }
    }
  }

  std::printf("\n# results identical to the 1-thread run at every thread "
              "count\n");
  if (!report.WriteArtifact()) return 1;
  return 0;
}
