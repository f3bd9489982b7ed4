// Pass-through decorators placed at layer boundaries in traced rounds.
//
// Each forwards every call unchanged to the object it wraps; around the
// synchronous part of each data call it opens a span and counts the call. Where the
// virtual-time latency of a call is a per-layer metric, the decorator also
// wraps the completion callback to record now() at completion; the wrapper
// runs inside the original callback's event, so event order is untouched.
// The self-tests prove this: a round's simulated-results digest is the same
// with and without the decorators.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/blockdev/virtual_disk.h"
#include "src/objstore/object_store.h"
#include "src/sim/simulator.h"

namespace perfbench {

// Counts and virtual-time latencies (ns) of one kind of call.
struct CallLog {
  uint64_t calls = 0;
  std::vector<int64_t> latency_ns;
};

class TracedDisk : public lsvd::VirtualDisk {
 public:
  // `sim` is the engine whose clock times completions; `write_span` and
  // `read_span` name the spans (flush/trim calls use `read_span`).
  TracedDisk(lsvd::Simulator* sim, lsvd::VirtualDisk* inner,
             SpanName write_span, SpanName read_span)
      : sim_(sim), inner_(inner), write_span_(write_span),
        read_span_(read_span) {}

  uint64_t size() const override { return inner_->size(); }

  void Write(uint64_t offset, lsvd::Buffer data,
             std::function<void(lsvd::Status)> done) override {
    ScopedSpan span(write_span_);
    calls_.calls++;
    inner_->Write(offset, std::move(data), Timed(std::move(done)));
  }
  void Read(uint64_t offset, uint64_t len,
            std::function<void(lsvd::Result<lsvd::Buffer>)> done) override {
    ScopedSpan span(read_span_);
    calls_.calls++;
    inner_->Read(offset, len, Timed(std::move(done)));
  }
  void Flush(std::function<void(lsvd::Status)> done) override {
    ScopedSpan span(read_span_);
    calls_.calls++;
    inner_->Flush(Timed(std::move(done)));
  }
  void Trim(uint64_t offset, uint64_t len,
            std::function<void(lsvd::Status)> done) override {
    ScopedSpan span(read_span_);
    calls_.calls++;
    inner_->Trim(offset, len, Timed(std::move(done)));
  }

  const CallLog& calls() const { return calls_; }

 private:
  template <typename T>
  std::function<void(T)> Timed(std::function<void(T)> done) {
    return [this, start = sim_->now(), done = std::move(done)](T r) {
      calls_.latency_ns.push_back(sim_->now() - start);
      done(std::move(r));
    };
  }

  lsvd::Simulator* sim_;
  lsvd::VirtualDisk* inner_;
  SpanName write_span_;
  SpanName read_span_;
  CallLog calls_;
};

class TracedObjectStore : public lsvd::ObjectStore {
 public:
  TracedObjectStore(lsvd::Simulator* sim, lsvd::ObjectStore* inner)
      : sim_(sim), inner_(inner) {}

  void Put(const std::string& name, lsvd::Buffer data,
           PutCallback done) override {
    ScopedSpan span(SpanName::kObjPut);
    puts_.calls++;
    inner_->Put(name, std::move(data), Timed(&puts_, std::move(done)));
  }
  void Get(const std::string& name, GetCallback done) override {
    ScopedSpan span(SpanName::kObjGet);
    gets_.calls++;
    inner_->Get(name, Timed(&gets_, std::move(done)));
  }
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override {
    ScopedSpan span(SpanName::kObjGet);
    gets_.calls++;
    inner_->GetRange(name, offset, len, Timed(&gets_, std::move(done)));
  }
  void Delete(const std::string& name, PutCallback done) override {
    inner_->Delete(name, std::move(done));
  }
  std::vector<std::string> List(const std::string& prefix) const override {
    return inner_->List(prefix);
  }
  lsvd::Result<uint64_t> Head(const std::string& name) const override {
    return inner_->Head(name);
  }

  const CallLog& puts() const { return puts_; }
  const CallLog& gets() const { return gets_; }

 private:
  template <typename T>
  std::function<void(T)> Timed(CallLog* log, std::function<void(T)> done) {
    return [this, log, start = sim_->now(), done = std::move(done)](T r) {
      log->latency_ns.push_back(sim_->now() - start);
      done(std::move(r));
    };
  }

  lsvd::Simulator* sim_;
  lsvd::ObjectStore* inner_;
  CallLog puts_;
  CallLog gets_;
};

// Self-test only: damages the `nth` successful read result, to prove the
// verifier notices wrong data. It flips the first byte or, with `lose`,
// returns zeros, as if the write that stored the block had been lost.
class CorruptingDisk : public lsvd::VirtualDisk {
 public:
  CorruptingDisk(lsvd::VirtualDisk* inner, uint64_t nth, bool lose)
      : inner_(inner), nth_(nth), lose_(lose) {}

  uint64_t size() const override { return inner_->size(); }
  void Write(uint64_t offset, lsvd::Buffer data,
             std::function<void(lsvd::Status)> done) override {
    inner_->Write(offset, std::move(data), std::move(done));
  }
  void Read(uint64_t offset, uint64_t len,
            std::function<void(lsvd::Result<lsvd::Buffer>)> done) override {
    inner_->Read(offset, len,
                 [this, done = std::move(done)](lsvd::Result<lsvd::Buffer> r) {
      if (r.ok() && ++reads_ == nth_) {
        if (lose_) {
          done(lsvd::Buffer::Zeros(r->size()));
          return;
        }
        std::vector<uint8_t> bytes = r->ToBytes();
        bytes[0] ^= 0xFF;
        done(lsvd::Buffer::FromBytes(bytes));
        return;
      }
      done(std::move(r));
    });
  }
  void Flush(std::function<void(lsvd::Status)> done) override {
    inner_->Flush(std::move(done));
  }

 private:
  lsvd::VirtualDisk* inner_;
  uint64_t nth_;
  bool lose_;
  uint64_t reads_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
