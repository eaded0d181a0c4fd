#include "core/query_trace.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace vitri::core {

void QueryTrace::Begin() {
  spans_.clear();
  // One allocation up front instead of push_back growth inside the
  // query (a KNN records at most five spans).
  spans_.reserve(6);
  total_seconds_ = 0.0;
  epoch_ = Clock::now();
}

void QueryTrace::End() {
  total_seconds_ =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void QueryTrace::SplitLastSpan(const char* name, double head_seconds) {
  if (spans_.empty()) return;
  TraceSpan& last = spans_.back();
  const double head =
      std::clamp(head_seconds, 0.0, last.duration_seconds);
  TraceSpan span;
  span.name = name;
  span.start_seconds = last.start_seconds + head;
  span.duration_seconds = last.duration_seconds - head;
  last.duration_seconds = head;
  spans_.push_back(span);
}

double QueryTrace::SpanSeconds() const {
  double sum = 0.0;
  for (const TraceSpan& s : spans_) sum += s.duration_seconds;
  return sum;
}

storage::IoSnapshot QueryTrace::TotalIo() const {
  storage::IoSnapshot total;
  for (const TraceSpan& s : spans_) total = total + s.io;
  return total;
}

std::string QueryTrace::ToString() const {
  std::ostringstream os;
  os << "query trace: total " << total_seconds_ * 1e3 << " ms\n";
  for (const TraceSpan& s : spans_) {
    os << "  " << s.name << ": start +" << s.start_seconds * 1e3
       << " ms, " << s.duration_seconds * 1e3 << " ms, "
       << s.io.logical_reads << " page accesses ("
       << s.io.physical_reads << " physical)\n";
  }
  return os.str();
}

std::string QueryTrace::ToJson() const {
  json::JsonWriter w;
  w.BeginObject();
  w.Key("total_seconds");
  w.Double(total_seconds_);
  w.Key("spans");
  w.BeginArray();
  for (const TraceSpan& s : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("start_seconds");
    w.Double(s.start_seconds);
    w.Key("duration_seconds");
    w.Double(s.duration_seconds);
    w.Key("io");
    w.BeginObject();
    w.Key("logical_reads");
    w.Uint(s.io.logical_reads);
    w.Key("cache_hits");
    w.Uint(s.io.cache_hits);
    w.Key("physical_reads");
    w.Uint(s.io.physical_reads);
    w.Key("physical_writes");
    w.Uint(s.io.physical_writes);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

TraceSpanScope::TraceSpanScope(QueryTrace* trace, const char* name,
                               const storage::IoTally& tally)
    : trace_(trace), name_(name), tally_(tally) {
  if (trace_ != nullptr) {
    start_ = QueryTrace::Clock::now();
    io_before_ = tally_.io;
  }
}

TraceSpanScope::~TraceSpanScope() {
  if (trace_ == nullptr) return;
  const QueryTrace::Clock::time_point end = QueryTrace::Clock::now();
  TraceSpan span;
  span.name = name_;
  span.start_seconds =
      std::chrono::duration<double>(start_ - trace_->epoch_).count();
  span.duration_seconds =
      std::chrono::duration<double>(end - start_).count();
  span.io = tally_.io - io_before_;
  trace_->spans_.push_back(span);
}

}  // namespace vitri::core
