#ifndef VITRI_CORE_QUERY_TRACE_H_
#define VITRI_CORE_QUERY_TRACE_H_

#include <chrono>
#include <string>
#include <vector>

#include "storage/io_stats.h"

namespace vitri::core {

/// One timed stage of a query, with the I/O the query did in it.
struct TraceSpan {
  /// Stage name: "transform", "compose", "scan", "refine", "rank".
  const char* name = "";
  /// Offset of the span start from QueryTrace::Begin(), seconds.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  /// The query's own page traffic during the span: its IoTally's growth
  /// across the span, so other queries sharing the pool (BatchKnn
  /// workers, concurrent callers) never land in it (DESIGN.md §12).
  storage::IoSnapshot io;
};

/// Lightweight per-query trace: an append-only list of timed spans for
/// the KNN stages (transform → key-range composition → B+-tree range
/// scan → candidate refinement → ranking). Attach one by passing it to
/// ViTriIndex::Knn()/BatchKnn(); a null trace pointer costs nothing on
/// the query path (a pointer test), and span capture itself only reads
/// the query's IoTally — it never writes it, so QueryCosts and the
/// paper's I/O figures are unaffected by tracing.
///
/// A QueryTrace is single-owner state: one query (one BatchKnn worker)
/// fills one trace. Reuse across queries is fine — Begin() resets it.
class QueryTrace {
 public:
  /// Clears recorded spans and stamps the trace epoch. Called by the
  /// index at query entry; harmless to call directly.
  void Begin();
  /// Stamps the total query duration (wall time since Begin()).
  void End();

  const std::vector<TraceSpan>& spans() const { return spans_; }
  double total_seconds() const { return total_seconds_; }

  /// Sum of the spans' durations; <= total_seconds() (the difference is
  /// untraced glue between stages).
  double SpanSeconds() const;
  /// Keeps the first `head_seconds` (clamped to its duration) of the
  /// most recently recorded span and moves the rest into a new span
  /// `name` with no I/O. Used for stages that interleave in one loop:
  /// the index's scan+refine loop keeps in "scan" the time its fetches
  /// spent inside BufferPool::Fetch, and the rest of the loop becomes
  /// "refine" (DESIGN.md §12). No-op without a recorded span.
  void SplitLastSpan(const char* name, double head_seconds);
  /// Sum of the spans' I/O.
  storage::IoSnapshot TotalIo() const;

  /// One line per span: name, start offset, duration, pages.
  std::string ToString() const;
  /// JSON: {"total_seconds": ..., "spans": [{"name": ..., ...}]}.
  /// Parseable by json::ParseJson (round-trip tested).
  std::string ToJson() const;

 private:
  friend class TraceSpanScope;
  using Clock = std::chrono::steady_clock;

  Clock::time_point epoch_{};
  double total_seconds_ = 0.0;
  std::vector<TraceSpan> spans_;
};

/// RAII span recorder. Null-safe: with trace == nullptr, construction
/// and destruction reduce to a pointer test — the untraced hot path
/// stays untouched. With a trace, construction snapshots the clock and
/// the query's tally, destruction appends the finished span.
class TraceSpanScope {
 public:
  TraceSpanScope(QueryTrace* trace, const char* name,
                 const storage::IoTally& tally);
  ~TraceSpanScope();

  TraceSpanScope(const TraceSpanScope&) = delete;
  TraceSpanScope& operator=(const TraceSpanScope&) = delete;

 private:
  QueryTrace* trace_;
  const char* name_;
  const storage::IoTally& tally_;
  QueryTrace::Clock::time_point start_{};
  storage::IoSnapshot io_before_;
};

}  // namespace vitri::core

#endif  // VITRI_CORE_QUERY_TRACE_H_
