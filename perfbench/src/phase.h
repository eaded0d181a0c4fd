// The parts both workloads share: the closed-loop client phase against
// the in-process server, the server stats reader, and the traced replay
// of one operation through the protocol codec.
#ifndef PERFBENCH_PHASE_H_
#define PERFBENCH_PHASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/vitri.h"
#include "harness.h"
#include "serving/client.h"
#include "serving/protocol.h"

namespace perfbench {

namespace serving = vitri::serving;

inline constexpr size_t kTopK = 10;
inline constexpr double kEpsilon = 0.15;

/// One scheduled operation: a KNN of distinct query `index`, or the
/// insert of pre-summarized clip `index`.
struct Op {
  bool insert = false;
  uint32_t index = 0;
};

/// A summarized video: a corpus entry, or a clip to insert during the
/// measured phase.
struct Insertable {
  uint32_t video_id = 0;
  uint32_t num_frames = 0;
  std::vector<vitri::core::ViTri> vitris;
};

/// Makes the near-duplicate query of every clip in `clips` whose id is
/// in `sources` (sorted): query i comes from video sources[i], perturbed
/// with seed Mix(seed, stream, i).
void TakeQueries(const std::vector<vitri::video::VideoSequence>& clips,
                 const std::vector<uint32_t>& sources, uint64_t seed,
                 uint64_t stream, const vitri::core::ViTriBuilder& builder,
                 std::vector<Query>* queries, Fingerprint* fp);

/// A summarized corpus and what making it took.
struct Corpus {
  std::vector<Insertable> videos;   // In id order.
  std::vector<double> summarize_s;  // One total per repetition.
  double synthesis_s = 0.0;
  uint64_t frames = 0;
};

/// Synthesizes `spec` a block of `threads` chunks at a time on `threads`
/// workers (untimed) and summarizes each block `reps` times on the
/// calling thread, timing every repetition; keeps the first
/// repetition's summaries. Query sources met on the way become queries
/// (TakeQueries with `query_stream`).
vitri::Result<Corpus> SummarizeCorpus(
    const SynthesisSpec& spec, size_t reps, size_t threads,
    const vitri::core::ViTriBuilder& builder,
    const std::vector<uint32_t>& sources, uint64_t query_stream,
    std::vector<Query>* queries, Fingerprint* fp);

serving::KnnRequest MakeKnnRequest(const Query& q, uint64_t request_id,
                                   int dimension);
serving::InsertRequest MakeInsertRequest(const Insertable& v,
                                         uint64_t request_id, int dimension);

/// What the client saw over one pass of a schedule.
struct PhaseResult {
  std::vector<double> knn_ms;
  std::vector<double> insert_ms;
  /// answers[i] answers the i-th KNN op of the schedule.
  std::vector<std::vector<vitri::core::VideoMatch>> answers;
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Runs `ops` in order over one connection, one request at a time, timing
/// each round trip. Nothing else runs between requests.
PhaseResult RunPhase(serving::Client* client, const std::vector<Op>& ops,
                     const std::vector<Query>& queries,
                     const std::vector<Insertable>& inserts, int dimension,
                     uint64_t first_request_id);

/// Server-side timings from the stats endpoint (serving.* histograms,
/// cumulative over the server's life).
struct ServerTimings {
  double exec_count = 0.0;
  double exec_sum_us = 0.0;
  double exec_p50_us = 0.0;
  double wait_count = 0.0;
  double wait_sum_us = 0.0;
  double wait_p50_us = 0.0;
};
bool ReadServerTimings(serving::Client* client, uint64_t request_id,
                       ServerTimings* out);

/// Traced replay of one KNN: encodes and decodes the request as the
/// client and server would, runs `execute` on the decoded queries inside
/// a span named `call` (layer `call_layer`), then encodes and decodes the
/// response. Returns the id of the call span.
uint32_t TraceKnn(
    Tracer* tracer, uint32_t root, uint64_t request_id, const Query& q,
    int dimension, const std::string& call, const std::string& call_layer,
    const std::function<std::vector<vitri::core::VideoMatch>(
        const serving::KnnRequest&)>& execute,
    std::vector<vitri::core::VideoMatch>* answer);

/// Traced replay of one insert (same shape as TraceKnn).
uint32_t TraceInsert(
    Tracer* tracer, uint32_t root, uint64_t request_id, const Insertable& v,
    int dimension, const std::string& call, const std::string& call_layer,
    const std::function<bool(const serving::InsertRequest&)>& execute);

/// Sum of the codec spans' durations under each root, in microseconds.
std::vector<double> CodecMicrosPerRoot(const Tracer& tracer);

/// Prints the per-layer self-time table and records each layer's self
/// time and share in `report`'s meta.
void SummarizeLayers(const Tracer& tracer, size_t ops, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PHASE_H_
