#include "harness.h"

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/json.h"
#include "common/thread_pool.h"
#include "core/similarity.h"
#include "linalg/kernels.h"

namespace perfbench {

using vitri::core::VideoMatch;
using vitri::core::ViTri;

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL +
               index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Report ----------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = {value, unit};
}

void Report::Meta(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  meta_[key] = buf;
}

void Report::HashAnswers(const std::vector<VideoMatch>& matches) {
  auto fold = [this](uint64_t v) {
    answers_digest_ ^= v;
    answers_digest_ *= 0x100000001b3ULL;
  };
  fold(matches.size());
  for (const VideoMatch& m : matches) {
    fold(m.video_id);
    // 6-decimal rounding: the precision answers are compared at.
    fold(static_cast<uint64_t>(std::llround(m.similarity * 1e6)));
  }
}

void Report::Fail(const std::string& why) {
  if (failures_.size() < 20) failures_.push_back(why);
  if (failures_.size() == 20) failures_.push_back("(further failures elided)");
}

namespace {

void WriteMetrics(vitri::json::JsonWriter* w, const std::vector<std::string>& order,
                  const std::map<std::string, std::pair<double, std::string>>&
                      metrics) {
  w->BeginObject();
  for (const std::string& name : order) {
    const auto& [value, unit] = metrics.at(name);
    w->Key(name);
    w->BeginObject();
    w->Key("value");
    w->Double(value);
    w->Key("unit");
    w->String(unit);
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace

std::string Report::ResultLine() const {
  vitri::json::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Uint(attempted);
  w.Key("failed");
  w.Uint(failed);
  w.Key("metrics");
  WriteMetrics(&w, order_, metrics_);
  w.EndObject();
  return w.str();
}

std::string Report::ToJson() const {
  vitri::json::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Uint(attempted);
  w.Key("failed");
  w.Uint(failed);
  w.Key("metrics");
  WriteMetrics(&w, order_, metrics_);
  w.Key("meta");
  w.BeginObject();
  for (const auto& [k, v] : meta_) {
    w.Key(k);
    w.String(v);
  }
  w.EndObject();
  w.Key("counts");
  w.BeginObject();
  for (const auto& [k, v] : counts_) {
    w.Key(k);
    w.Uint(v);
  }
  w.EndObject();
  w.Key("answers_digest");
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, answers_digest_);
  w.String(digest);
  w.Key("failures");
  w.BeginArray();
  for (const std::string& f : failures_) w.String(f);
  w.EndArray();
  w.EndObject();
  return w.str();
}

// --- Fingerprint -----------------------------------------------------

void Fingerprint::Add(uint64_t v) {
  h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
  h_ *= 0xff51afd7ed558ccdULL;
  h_ ^= h_ >> 32;
}

void Fingerprint::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Fingerprint::AddClip(const vitri::video::VideoSequence& clip) {
  Add(static_cast<uint64_t>(clip.id));
  Add(static_cast<uint64_t>(clip.frames.size()));
  for (const auto& frame : clip.frames) {
    for (double v : frame) Add(v);
  }
}

// --- Synthesis -------------------------------------------------------

size_t NumChunks(const SynthesisSpec& spec) {
  return (spec.num_videos + spec.chunk_videos - 1) / spec.chunk_videos;
}

std::vector<vitri::video::VideoSequence> SynthesizeChunks(
    const SynthesisSpec& spec, size_t first_chunk, size_t chunks,
    size_t threads, Fingerprint* fp) {
  const size_t total = NumChunks(spec);
  chunks = std::min(chunks, total - std::min(first_chunk, total));
  std::vector<std::vector<vitri::video::VideoSequence>> out(chunks);
  std::vector<uint64_t> prints(chunks, 0);
  auto make_chunk = [&](size_t i) {
    const size_t c = first_chunk + i;
    vitri::video::SynthesizerOptions so;
    so.dimension = spec.dimension;
    so.seed = Mix(spec.seed, spec.stream, c);
    vitri::video::VideoSynthesizer synth(so);
    Fingerprint chunk_fp;
    for (size_t v = c; v < spec.num_videos; v += total) {
      const auto id = static_cast<uint32_t>(spec.first_id + v);
      out[i].push_back(spec.duration > 0.0
                           ? synth.GenerateClip(id, spec.duration)
                           : synth.GenerateMixClip(id));
      chunk_fp.AddClip(out[i].back());
    }
    prints[i] = chunk_fp.value();
  };
  if (threads <= 1 || chunks <= 1) {
    for (size_t i = 0; i < chunks; ++i) make_chunk(i);
  } else {
    vitri::ThreadPool pool(std::min(threads, chunks));
    pool.ParallelFor(chunks, make_chunk);
  }
  std::vector<vitri::video::VideoSequence> clips;
  for (size_t i = 0; i < chunks; ++i) {
    fp->Add(prints[i]);
    for (auto& clip : out[i]) clips.push_back(std::move(clip));
  }
  return clips;
}

Query MakeQuery(const vitri::video::VideoSequence& source, uint64_t seed,
                const vitri::core::ViTriBuilder& builder, Fingerprint* fp) {
  vitri::video::VideoSynthesizer synth;  // MakeNearDuplicate is stateless.
  vitri::video::NearDuplicateOptions nd;
  nd.seed = seed;
  const vitri::video::VideoSequence dup =
      synth.MakeNearDuplicate(source, source.id, nd);
  fp->AddClip(dup);
  Query q;
  q.source = source.id;
  q.num_frames = static_cast<uint32_t>(dup.num_frames());
  auto vitris = builder.Build(dup);
  if (vitris.ok()) q.vitris = std::move(*vitris);
  return q;
}

// --- Oracle ----------------------------------------------------------

void TopK::Offer(uint32_t video_id, double similarity) {
  auto before = [](const VideoMatch& a, const VideoMatch& b) {
    return a.similarity > b.similarity ||
           (a.similarity == b.similarity && a.video_id < b.video_id);
  };
  const VideoMatch m{video_id, similarity};
  if (matches_.size() == k_ && !before(m, matches_.back())) return;
  auto pos = std::upper_bound(matches_.begin(), matches_.end(), m, before);
  matches_.insert(pos, m);
  if (matches_.size() > k_) matches_.pop_back();
}

double SharedFrames(const std::vector<ViTri>& query,
                    const std::vector<ViTri>& video) {
  double shared = 0.0;
  for (const ViTri& v : video) {
    for (const ViTri& q : query) {
      shared += vitri::core::EstimatedSharedFrames(q, v);
    }
  }
  return shared;
}

double Similarity(double shared, uint32_t query_frames,
                  uint32_t video_frames) {
  return std::clamp(
      2.0 * shared / static_cast<double>(query_frames + video_frames), 0.0,
      1.0);
}

bool SameAnswer(const std::vector<VideoMatch>& got,
                const std::vector<VideoMatch>& want, std::string* why) {
  auto describe = [](const std::vector<VideoMatch>& ms) {
    std::string s;
    char buf[48];
    for (const VideoMatch& m : ms) {
      std::snprintf(buf, sizeof(buf), " %u:%.6f", m.video_id, m.similarity);
      s += buf;
    }
    return s;
  };
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    char a[32];
    char b[32];
    std::snprintf(a, sizeof(a), "%.6f", got[i].similarity);
    std::snprintf(b, sizeof(b), "%.6f", want[i].similarity);
    same = got[i].video_id == want[i].video_id && std::strcmp(a, b) == 0;
  }
  if (!same && why != nullptr) {
    *why = "got [" + describe(got) + " ] want [" + describe(want) + " ]";
  }
  return same;
}

// --- Statistics ------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[idx];
}

double SupportedTailPercentile(size_t n) {
  for (double p : {99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

std::string WindowMedians(const std::vector<double>& values, size_t windows) {
  std::string out;
  const size_t n = values.size();
  for (size_t w = 0; w < windows && n > 0; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(w * n / windows);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ",
                  Median(std::vector<double>(begin, end)));
    out += buf;
  }
  return out;
}

// --- Host probes -----------------------------------------------------

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t fields[8] = {};
  for (uint64_t& f : fields) in >> f;
  for (uint64_t f : fields) t.total += f;
  t.steal = fields[7];
  return t;
}

double StealPct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double ResidentMegabytes() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void TrimHeap() { malloc_trim(0); }

int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53:
      return "ext2/3/4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

namespace {

void RemoveTree(const std::string& path) {
  struct stat st {};
  if (lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    if (DIR* d = opendir(path.c_str())) {
      while (dirent* e = readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") RemoveTree(path + "/" + name);
      }
      closedir(d);
    }
    rmdir(path.c_str());
  } else {
    unlink(path.c_str());
  }
}

}  // namespace

bool FreshDirectory(const std::string& dir) {
  RemoveTree(dir);
  return mkdir(dir.c_str(), 0755) == 0;
}

// --- Tracer ----------------------------------------------------------

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

uint32_t Tracer::Open(const std::string& name, const std::string& layer,
                      uint32_t parent, uint64_t request) {
  const int64_t now = Now();
  return Add(name, layer, parent, request, now, now, false);
}

void Tracer::Close(uint32_t id) { spans_[id - 1].end_ns = Now(); }

uint32_t Tracer::Add(const std::string& name, const std::string& layer,
                     uint32_t parent, uint64_t request, int64_t start_ns,
                     int64_t end_ns, bool derived) {
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.derived = derived;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(
    double* root_seconds) const {
  std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
  for (const Span& s : spans_) children[s.parent].push_back(s.id);
  std::map<std::string, double> self;
  double roots = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == 0) roots += static_cast<double>(s.end_ns - s.start_ns);
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (uint32_t c : children[s.id]) {
      const Span& ch = spans_[c - 1];
      const int64_t lo = std::max(ch.start_ns, s.start_ns);
      const int64_t hi = std::min(ch.end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  if (root_seconds != nullptr) *root_seconds = roots * 1e-9;
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"request\":%" PRIu64
                 ",\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"derived\":%s}\n",
                 s.id, s.parent, s.request, s.name.c_str(), s.layer.c_str(),
                 s.start_ns, s.end_ns, s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

// --- Metadata --------------------------------------------------------

void RecordCommonMeta(const RunConfig& config, Report* report) {
  report->Meta("workload", config.workload);
  report->Meta("seed", std::to_string(config.seed));
  report->Meta("seconds", config.seconds);
  report->Meta("mode", config.trace ? "traced" : "untraced");
  report->Meta("size", config.small ? "small" : "full");
  report->Meta("build_type", PERFBENCH_BUILD_TYPE);
  report->Meta("simd_backend", vitri::linalg::KernelBackendName(
                                   vitri::linalg::ActiveKernelBackend()));
  report->Meta("nproc", std::to_string(std::thread::hardware_concurrency()));
}

}  // namespace perfbench
