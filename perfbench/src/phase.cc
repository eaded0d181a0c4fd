#include "phase.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace perfbench {

using vitri::core::VideoMatch;

void TakeQueries(const std::vector<vitri::video::VideoSequence>& clips,
                 const std::vector<uint32_t>& sources, uint64_t seed,
                 uint64_t stream, const vitri::core::ViTriBuilder& builder,
                 std::vector<Query>* queries, Fingerprint* fp) {
  for (const auto& clip : clips) {
    auto it = std::lower_bound(sources.begin(), sources.end(), clip.id);
    if (it != sources.end() && *it == clip.id) {
      const auto qi = static_cast<size_t>(it - sources.begin());
      (*queries)[qi] = MakeQuery(clip, Mix(seed, stream, qi), builder, fp);
    }
  }
}

vitri::Result<Corpus> SummarizeCorpus(
    const SynthesisSpec& spec, size_t reps, size_t threads,
    const vitri::core::ViTriBuilder& builder,
    const std::vector<uint32_t>& sources, uint64_t query_stream,
    std::vector<Query>* queries, Fingerprint* fp) {
  Corpus corpus;
  corpus.videos.reserve(spec.num_videos);
  corpus.summarize_s.assign(reps, 0.0);
  for (size_t c = 0; c < NumChunks(spec); c += threads) {
    Clock::time_point t0 = Clock::now();
    const std::vector<vitri::video::VideoSequence> clips =
        SynthesizeChunks(spec, c, threads, threads, fp);
    TakeQueries(clips, sources, spec.seed, query_stream, builder, queries, fp);
    corpus.synthesis_s += SecondsSince(t0);
    for (size_t r = 0; r < reps; ++r) {
      t0 = Clock::now();
      for (const auto& clip : clips) {
        VITRI_ASSIGN_OR_RETURN(std::vector<vitri::core::ViTri> vitris,
                               builder.Build(clip));
        if (r == 0) {
          corpus.videos.push_back(
              Insertable{clip.id, static_cast<uint32_t>(clip.num_frames()),
                         std::move(vitris)});
        }
      }
      corpus.summarize_s[r] += SecondsSince(t0);
    }
    for (const auto& clip : clips) corpus.frames += clip.num_frames();
  }
  // Id order interleaves the synthesis chunks (see SynthesizeChunks).
  std::sort(corpus.videos.begin(), corpus.videos.end(),
            [](const Insertable& a, const Insertable& b) {
              return a.video_id < b.video_id;
            });
  TrimHeap();
  return corpus;
}

serving::KnnRequest MakeKnnRequest(const Query& q, uint64_t request_id,
                                   int dimension) {
  serving::KnnRequest req;
  req.request_id = request_id;
  req.k = kTopK;
  req.method = vitri::core::KnnMethod::kComposed;
  req.dimension = static_cast<uint32_t>(dimension);
  req.queries.push_back(vitri::core::BatchQuery{q.vitris, q.num_frames});
  return req;
}

serving::InsertRequest MakeInsertRequest(const Insertable& v,
                                         uint64_t request_id, int dimension) {
  serving::InsertRequest req;
  req.request_id = request_id;
  req.video_id = v.video_id;
  req.num_frames = v.num_frames;
  req.dimension = static_cast<uint32_t>(dimension);
  req.vitris = v.vitris;
  return req;
}

PhaseResult RunPhase(serving::Client* client, const std::vector<Op>& ops,
                     const std::vector<Query>& queries,
                     const std::vector<Insertable>& inserts, int dimension,
                     uint64_t first_request_id) {
  // Requests are encoded-ready structs built before the clock starts, so
  // the timed loop holds only the round trips.
  std::vector<serving::KnnRequest> knn_reqs;
  std::vector<serving::InsertRequest> insert_reqs;
  for (size_t i = 0; i < ops.size(); ++i) {
    const uint64_t id = first_request_id + i;
    if (ops[i].insert) {
      insert_reqs.push_back(
          MakeInsertRequest(inserts[ops[i].index], id, dimension));
    } else {
      knn_reqs.push_back(MakeKnnRequest(queries[ops[i].index], id, dimension));
    }
  }
  PhaseResult r;
  r.knn_ms.reserve(knn_reqs.size());
  r.insert_ms.reserve(insert_reqs.size());
  r.answers.resize(knn_reqs.size());
  size_t next_knn = 0;
  size_t next_insert = 0;
  const Clock::time_point phase_start = Clock::now();
  for (const Op& op : ops) {
    ++r.attempted;
    const Clock::time_point t0 = Clock::now();
    if (op.insert) {
      const auto resp = client->Insert(insert_reqs[next_insert++]);
      const double ms = SecondsSince(t0) * 1e3;
      if (!resp.ok() || resp->head.status != serving::WireStatus::kOk) {
        ++r.failed;
        r.errors.push_back(resp.ok() ? resp->error : resp.status().ToString());
        continue;
      }
      r.insert_ms.push_back(ms);
    } else {
      const size_t slot = next_knn++;
      auto resp = client->Knn(knn_reqs[slot]);
      const double ms = SecondsSince(t0) * 1e3;
      if (!resp.ok() || resp->head.status != serving::WireStatus::kOk ||
          resp->results.size() != 1) {
        ++r.failed;
        r.errors.push_back(resp.ok() ? resp->error : resp.status().ToString());
        continue;
      }
      r.knn_ms.push_back(ms);
      r.answers[slot] = std::move(resp->results[0]);
    }
  }
  r.seconds = SecondsSince(phase_start);
  return r;
}

bool ReadServerTimings(serving::Client* client, uint64_t request_id,
                       ServerTimings* out) {
  auto resp = client->Stats(request_id);
  if (!resp.ok() || resp->head.status != serving::WireStatus::kOk) return false;
  auto doc = vitri::json::ParseJson(resp->json);
  if (!doc.ok()) return false;
  const auto* metrics = doc->Find("metrics");
  const auto* hist = metrics != nullptr ? metrics->Find("histograms") : nullptr;
  if (hist == nullptr) return false;
  auto read = [&](const char* name, double* count, double* sum, double* p50) {
    const auto* h = hist->Find(name);
    if (h == nullptr) return false;
    const auto* c = h->Find("count");
    const auto* s = h->Find("sum");
    const auto* p = h->Find("p50");
    if (c == nullptr || s == nullptr || p == nullptr) return false;
    *count = c->number;
    *sum = s->number;
    *p50 = p->number;
    return true;
  };
  return read("serving.request.latency_us", &out->exec_count,
              &out->exec_sum_us, &out->exec_p50_us) &&
         read("serving.queue.wait_us", &out->wait_count, &out->wait_sum_us,
              &out->wait_p50_us);
}

uint32_t TraceKnn(
    Tracer* tracer, uint32_t root, uint64_t request_id, const Query& q,
    int dimension, const std::string& call, const std::string& call_layer,
    const std::function<std::vector<VideoMatch>(const serving::KnnRequest&)>&
        execute,
    std::vector<VideoMatch>* answer) {
  const serving::KnnRequest req = MakeKnnRequest(q, request_id, dimension);
  std::vector<uint8_t> payload;
  std::vector<uint8_t> wire;
  uint32_t s = tracer->Open("serving.encode_request", "serving.codec", root,
                            request_id);
  serving::EncodeKnnRequest(req, &payload);
  serving::EncodeFrame(serving::MessageType::kKnnRequest, payload, &wire);
  tracer->Close(s);

  serving::Frame frame;
  size_t consumed = 0;
  s = tracer->Open("serving.decode_request", "serving.codec", root,
                   request_id);
  serving::DecodeFrame(wire, &frame, &consumed);
  auto decoded = serving::DecodeKnnRequest(frame.payload);
  tracer->Close(s);

  const uint32_t call_span = tracer->Open(call, call_layer, root, request_id);
  std::vector<VideoMatch> matches =
      decoded.ok() ? execute(*decoded) : std::vector<VideoMatch>{};
  tracer->Close(call_span);

  serving::KnnResponse resp;
  resp.head.request_id = request_id;
  resp.results.push_back(std::move(matches));
  payload.clear();
  wire.clear();
  s = tracer->Open("serving.encode_response", "serving.codec", root,
                   request_id);
  serving::EncodeKnnResponse(resp, &payload);
  serving::EncodeFrame(serving::MessageType::kKnnResponse, payload, &wire);
  tracer->Close(s);

  s = tracer->Open("serving.decode_response", "serving.codec", root,
                   request_id);
  serving::DecodeFrame(wire, &frame, &consumed);
  auto back = serving::DecodeKnnResponse(frame.payload);
  tracer->Close(s);
  answer->clear();
  if (back.ok() && back->results.size() == 1) *answer = back->results[0];
  return call_span;
}

uint32_t TraceInsert(
    Tracer* tracer, uint32_t root, uint64_t request_id, const Insertable& v,
    int dimension, const std::string& call, const std::string& call_layer,
    const std::function<bool(const serving::InsertRequest&)>& execute) {
  const serving::InsertRequest req = MakeInsertRequest(v, request_id, dimension);
  std::vector<uint8_t> payload;
  std::vector<uint8_t> wire;
  uint32_t s = tracer->Open("serving.encode_request", "serving.codec", root,
                            request_id);
  serving::EncodeInsertRequest(req, &payload);
  serving::EncodeFrame(serving::MessageType::kInsertRequest, payload, &wire);
  tracer->Close(s);

  serving::Frame frame;
  size_t consumed = 0;
  s = tracer->Open("serving.decode_request", "serving.codec", root,
                   request_id);
  serving::DecodeFrame(wire, &frame, &consumed);
  auto decoded = serving::DecodeInsertRequest(frame.payload);
  tracer->Close(s);

  const uint32_t call_span = tracer->Open(call, call_layer, root, request_id);
  const bool ok = decoded.ok() && execute(*decoded);
  tracer->Close(call_span);

  serving::ResponseHead head;
  head.request_id = request_id;
  head.status = ok ? serving::WireStatus::kOk
                   : serving::WireStatus::kInternalError;
  payload.clear();
  wire.clear();
  s = tracer->Open("serving.encode_response", "serving.codec", root,
                   request_id);
  serving::EncodeSimpleResponse(head, "", &payload);
  serving::EncodeFrame(serving::MessageType::kInsertResponse, payload, &wire);
  tracer->Close(s);

  s = tracer->Open("serving.decode_response", "serving.codec", root,
                   request_id);
  serving::DecodeFrame(wire, &frame, &consumed);
  auto back = serving::DecodeSimpleResponse(frame.payload);
  tracer->Close(s);
  (void)back;
  return call_span;
}

std::vector<double> CodecMicrosPerRoot(const Tracer& tracer) {
  std::vector<double> per_root;
  std::vector<size_t> slot_of(tracer.spans().size() + 1, 0);
  for (const Span& s : tracer.spans()) {
    if (s.parent == 0) {
      slot_of[s.id] = per_root.size();
      per_root.push_back(0.0);
    } else if (s.layer == "serving.codec") {
      per_root[slot_of[s.parent]] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    }
  }
  return per_root;
}

void SummarizeLayers(const Tracer& tracer, size_t ops, Report* report) {
  double root_seconds = 0.0;
  const auto self = tracer.SelfSecondsByLayer(&root_seconds);
  double accounted = 0.0;
  std::printf("# per-layer self time over %zu traced ops "
              "(%.3f s traced):\n", ops, root_seconds);
  std::printf("#   %-24s %12s %10s %8s\n", "layer", "self_s", "us/op",
              "share");
  for (const auto& [layer, seconds] : self) {
    accounted += seconds;
    const double share = root_seconds > 0.0 ? seconds / root_seconds : 0.0;
    std::printf("#   %-24s %12.6f %10.2f %7.2f%%\n", layer.c_str(), seconds,
                ops == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(ops),
                100.0 * share);
    report->Meta("trace.self_s." + layer, seconds);
    report->Meta("trace.share." + layer, share);
  }
  std::printf("#   %-24s %12.6f (layer shares sum to %.2f%% of traced time)\n",
              "total", accounted,
              root_seconds > 0.0 ? 100.0 * accounted / root_seconds : 0.0);
}

}  // namespace perfbench
