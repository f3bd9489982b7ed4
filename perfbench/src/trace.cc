#include "perfbench/src/trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSimRun:
      return "sim.run";
    case SpanName::kWorkloadGen:
      return "workload.gen";
    case SpanName::kLsvdWrite:
      return "lsvd.write";
    case SpanName::kLsvdRead:
      return "lsvd.read";
    case SpanName::kObjPut:
      return "objstore.put";
    case SpanName::kObjGet:
      return "objstore.get";
    case SpanName::kBcacheWrite:
      return "baseline.bcache.write";
    case SpanName::kBcacheRead:
      return "baseline.bcache.read";
    case SpanName::kRbd:
      return "baseline.rbd";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::Begin(SpanName name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = HostNowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = HostNowNs();
  open_.pop_back();
}

std::array<double, static_cast<size_t>(SpanName::kCount)>
Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::array<double, static_cast<size_t>(SpanName::kCount)> self{};
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    self[static_cast<size_t>(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; i++) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", SpanNameString(s.name),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent);
  }
  std::fprintf(f, "],\"otherData\":{\"spans_recorded\":%zu}}\n",
               spans_.size());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
