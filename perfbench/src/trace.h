// Host-time spans around the benchmark's calls into each layer.
//
// In a traced round the layer boundaries are wrapped in pass-through
// decorators (decorators.h) that open a span for the duration of each
// synchronous call. A span carries its name, a start, an end, and the index
// of the span that was open when it began (its parent). Spans stay in memory
// until the run ends; a layer's self time is its spans' duration minus the
// part their child spans cover.
//
// Recording is single-threaded: traced rounds run the engine on the calling
// thread only (see workloads.cc), so no span is ever opened on a worker.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kSimRun,        // Simulator / SimDomainGroup Run(): the engine loop
  kWorkloadGen,   // one call of a src/workload generator
  kLsvdWrite,     // LsvdDisk::Write
  kLsvdRead,      // LsvdDisk::Read
  kObjPut,        // ObjectStore::Put
  kObjGet,        // ObjectStore::Get / GetRange
  kBcacheWrite,   // BcacheDevice::Write
  kBcacheRead,    // BcacheDevice::Read / Flush
  kRbd,           // any RbdDisk call made by bcache or the read-back
  kCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  SpanName name = SpanName::kSimRun;
};

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static Tracer& Get();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  int32_t Begin(SpanName name);
  void End(int32_t index);

  // Self seconds per span name over every span recorded so far.
  std::array<double, static_cast<size_t>(SpanName::kCount)> SelfSeconds()
      const;
  void Clear();

  // Writes the first `max_spans` spans as Chrome trace-event JSON (opens in
  // Perfetto or chrome://tracing). Returns false if the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indexes
  bool on_ = false;
};

// Opens a span for its lifetime when tracing is on; otherwise costs a branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name)
      : index_(Tracer::Get().on() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      Tracer::Get().End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
