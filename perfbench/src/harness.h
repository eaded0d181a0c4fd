// Shared machinery of the end-to-end benchmark: seeded parallel input
// synthesis, the brute-force KNN oracle, the span recorder of the traced
// mode, host probes (steal time, RSS, filesystem), and the report that
// main.cc prints. Nothing here is timed as program work.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/vitri.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"
#include "video/video.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64 finalizer; derives independent sub-seeds from the workload
/// seed so every input stream is a pure function of (seed, stream, index).
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index = 0);

/// Parameters shared by every workload, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced-size inputs for the determinism self-test.
  bool small = false;
  /// Scratch directory (relative to the working directory) for the
  /// socket, durable index directories and the span file.
  std::string workdir;
};

/// Metric sink: name -> (value, unit), in insertion order for printing.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Exact per-layer counts compared by the self-test.
  void Count(const std::string& name, uint64_t value) { counts_[name] = value; }
  void Meta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }
  void Meta(const std::string& key, double value);

  /// Folds an answer list (ids, similarities at 6 decimals) into the
  /// answers digest.
  void HashAnswers(const std::vector<vitri::core::VideoMatch>& matches);

  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The full result document (metrics, meta, counts, digests).
  std::string ToJson() const;
  /// The one-line result: exactly correct/attempted/failed/metrics.
  std::string ResultLine() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, uint64_t> counts_;
  std::map<std::string, std::string> meta_;
  uint64_t answers_digest_ = 0xcbf29ce484222325ULL;
  std::vector<std::string> failures_;
};

/// Streaming 64-bit fingerprint over doubles and integers.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void AddClip(const vitri::video::VideoSequence& clip);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x6a09e667f3bcc908ULL;
};

/// Seeded, chunked, parallel clip synthesis. Chunk c uses its own
/// VideoSynthesizer seeded from (seed, c), so the output does not depend
/// on the thread count. Chunk c of C holds videos c, c + C, c + 2C, ...
/// (about `chunk_videos` of them), so any run of consecutive ids mixes
/// every chunk's footage: an index that fits its reference points on the
/// first videos it ingests sees a sample of the whole corpus. `duration`
/// > 0 gives fixed-length clips, 0 draws from the Table 2 mix.
struct SynthesisSpec {
  uint64_t seed = 1;
  uint64_t stream = 0;
  uint32_t first_id = 0;
  size_t num_videos = 0;
  size_t chunk_videos = 256;
  double duration = 0.0;
  int dimension = 16;
};

/// Synthesizes chunks [first_chunk, first_chunk + chunks) of `spec` on
/// `threads` workers. Returns the clips chunk by chunk and folds each
/// chunk's fingerprint into `fp` in chunk order.
std::vector<vitri::video::VideoSequence> SynthesizeChunks(
    const SynthesisSpec& spec, size_t first_chunk, size_t chunks,
    size_t threads, Fingerprint* fp);

size_t NumChunks(const SynthesisSpec& spec);

/// A near-duplicate query: a perturbed re-capture of a corpus clip.
struct Query {
  uint32_t source = 0;
  uint32_t num_frames = 0;
  std::vector<vitri::core::ViTri> vitris;
};

Query MakeQuery(const vitri::video::VideoSequence& source, uint64_t seed,
                const vitri::core::ViTriBuilder& builder, Fingerprint* fp);

/// Ordered top-k list under the repo-wide order (similarity desc, id asc).
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}
  void Offer(uint32_t video_id, double similarity);
  const std::vector<vitri::core::VideoMatch>& matches() const {
    return matches_;
  }

 private:
  size_t k_;
  std::vector<vitri::core::VideoMatch> matches_;
};

/// Sum of estimated shared frames between a query and one video's
/// ViTris, in the index's per-pair function.
double SharedFrames(const std::vector<vitri::core::ViTri>& query,
                    const std::vector<vitri::core::ViTri>& video);

/// The index's similarity formula applied to a shared-frame sum.
double Similarity(double shared, uint32_t query_frames,
                  uint32_t video_frames);

/// Same ids, similarities equal at 6 decimals. On mismatch writes a
/// description to `why`.
bool SameAnswer(const std::vector<vitri::core::VideoMatch>& got,
                const std::vector<vitri::core::VideoMatch>& want,
                std::string* why);

/// Percentile (nearest-rank on a sorted copy); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
/// Highest of {99, 95, 90, 50} with at least ten samples beyond it.
double SupportedTailPercentile(size_t n);
double Median(std::vector<double> values);
/// Values separated by spaces (per-pass or per-repetition metadata).
std::string Join(const std::vector<double>& values);
/// Medians of `windows` consecutive slices, space separated (a
/// diagnostic of drift within one measured phase).
std::string WindowMedians(const std::vector<double>& values, size_t windows);

/// Host probes.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
double StealPct(const CpuTimes& before, const CpuTimes& after);
double ResidentMegabytes();
/// Returns freed heap pages to the OS so RSS reflects live memory.
void TrimHeap();
/// Confines the calling thread, and every thread it starts afterwards,
/// to the vCPU it is running on; returns that vCPU, or -1 on failure.
int PinToCurrentCpu();
std::string FilesystemName(const std::string& path);
uint64_t FileSize(const std::string& path);
/// Removes `dir` recursively (if present) and recreates it empty.
bool FreshDirectory(const std::string& dir);

/// Span recorder of the traced mode. Spans stay in memory and are
/// written once, as JSON lines, by WriteJsonLines().
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root.
  uint64_t request = 0;
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// True when the interval was reconstructed from a duration the
  /// program reported (per-shard costs, QueryTrace stages) instead of
  /// being clocked around a call.
  bool derived = false;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  int64_t Now() const;
  /// Opens a span; returns its id. Close() stamps the end.
  uint32_t Open(const std::string& name, const std::string& layer,
                uint32_t parent, uint64_t request);
  void Close(uint32_t id);
  /// Records a finished span with explicit bounds.
  uint32_t Add(const std::string& name, const std::string& layer,
               uint32_t parent, uint64_t request, int64_t start_ns,
               int64_t end_ns, bool derived);
  const Span& span(uint32_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (span minus the union of its children's
  /// intervals clipped to it), in seconds, and the total root time.
  std::map<std::string, double> SelfSecondsByLayer(double* root_seconds) const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Run metadata common to every workload (git sha, build, SIMD backend,
/// nproc, seed).
void RecordCommonMeta(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
