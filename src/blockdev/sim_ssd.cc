#include "src/blockdev/sim_ssd.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lsvd {
namespace {

bool Aligned(uint64_t v) { return v % kBlockSize == 0; }

}  // namespace

SimSsd::SimSsd(Simulator* sim, uint64_t capacity, SsdParams params)
    : sim_(sim),
      capacity_(capacity),
      params_(params),
      read_queue_(sim, params.channels),
      write_queue_(sim, params.channels) {
  assert(Aligned(capacity));
}

bool SimSsd::MatchStream(std::deque<uint64_t>* streams, uint64_t offset,
                         uint64_t end) {
  auto it = std::find(streams->begin(), streams->end(), offset);
  const bool sequential = it != streams->end();
  if (sequential) {
    streams->erase(it);
  }
  streams->push_back(end);
  while (streams->size() > params_.stream_slots) {
    streams->pop_front();
  }
  return sequential;
}

// Submits the request as one or more channel occupations (striping large
// requests across channels) and fires `done` when the slowest completes plus
// the fixed device latency.
template <typename Done>
void SimSsd::SubmitOp(bool is_write, uint64_t offset, uint64_t len,
                      Done done) {
  const uint64_t end = offset + len;
  bool sequential;
  Nanos op_cost;
  double bw;
  Nanos latency;
  if (is_write) {
    sequential = MatchStream(&write_streams_, offset, end);
    op_cost = sequential ? params_.sequential_write_op
                         : params_.random_write_op;
    bw = params_.channel_write_bw_bps;
    latency = params_.write_latency;
    if (sequential) {
      stats_.sequential_writes++;
    }
  } else {
    sequential = MatchStream(&read_streams_, offset, end);
    op_cost = sequential ? params_.sequential_read_op : params_.random_read_op;
    bw = params_.channel_read_bw_bps;
    latency = params_.read_latency;
  }

  uint64_t unit = sequential ? params_.sequential_stripe_unit
                             : params_.stripe_unit;
  if (unit == 0) {
    unit = len;
  }
  const uint64_t subops = std::max<uint64_t>(1, (len + unit - 1) / unit);
  ServerQueue& queue = is_write ? write_queue_ : read_queue_;
  if (subops == 1) {
    // Single-stripe requests (the common case for small IO) skip the shared
    // completion counter and its allocation.
    const auto transfer =
        static_cast<Nanos>(static_cast<double>(len) / bw * 1e9);
    queue.Submit(std::max(op_cost, transfer),
                 [this, latency, done = std::move(done)]() mutable {
                   sim_->After(latency, std::move(done));
                 });
    return;
  }
  // The stripes share one completion (copying `done` per stripe would
  // clone its captures); the last stripe to finish schedules it.
  struct Stripes {
    uint64_t remaining;
    Done done;
  };
  auto stripes =
      std::make_shared<Stripes>(Stripes{subops, std::move(done)});
  const auto finish = [this, stripes, latency]() {
    if (--stripes->remaining == 0) {
      sim_->After(latency, std::move(stripes->done));
    }
  };
  uint64_t left = len;
  for (uint64_t s = 0; s < subops; s++) {
    const uint64_t piece = std::min(unit, left);
    left -= piece;
    const auto transfer =
        static_cast<Nanos>(static_cast<double>(piece) / bw * 1e9);
    // The command-level cost is charged once (on the first stripe).
    const Nanos service = s == 0 ? std::max(op_cost, transfer) : transfer;
    queue.Submit(service, finish);
  }
}

void SimSsd::Write(uint64_t offset, Buffer data, WriteCallback done) {
  if (!Aligned(offset) || !Aligned(data.size()) || data.empty()) {
    done(Status::InvalidArgument("unaligned or empty SSD write"));
    return;
  }
  if (offset + data.size() > capacity_) {
    done(Status::OutOfRange("SSD write beyond capacity"));
    return;
  }
  stats_.write_ops++;
  stats_.write_bytes += data.size();
  if (fail_next_writes_ > 0) {
    fail_next_writes_--;
    SubmitOp(true, offset, data.size(), [done = std::move(done)]() {
      done(Status::Unavailable("injected SSD write failure"));
    });
    return;
  }
  // Contents are visible to reads as soon as the op is accepted;
  // completion is acknowledged after the service time.
  const uint64_t len = data.size();
  current_.Write(offset, data);
  unflushed_.push_back(Unflushed{next_write_seq_++, offset, std::move(data)});
  SubmitOp(true, offset, len,
           [done = std::move(done)]() { done(Status::Ok()); });
}

void SimSsd::Read(uint64_t offset, uint64_t len, ReadCallback done) {
  if (!Aligned(offset) || !Aligned(len) || len == 0) {
    done(Status::InvalidArgument("unaligned or empty SSD read"));
    return;
  }
  if (offset + len > capacity_) {
    done(Status::OutOfRange("SSD read beyond capacity"));
    return;
  }
  stats_.read_ops++;
  stats_.read_bytes += len;
  Buffer data = current_.Read(offset, len);
  SubmitOp(false, offset, len,
           [done = std::move(done), data = std::move(data)]() mutable {
    done(std::move(data));
  });
}

void SimSsd::Flush(WriteCallback done) {
  stats_.flushes++;
  // Writes accepted from here on are not covered by this flush.
  const uint64_t covers = next_write_seq_;
  write_queue_.Submit(params_.flush, [this, covers, done = std::move(done)]() {
    while (!unflushed_.empty() && unflushed_.front().seq < covers) {
      durable_.Write(unflushed_.front().offset, unflushed_.front().data);
      unflushed_.pop_front();
    }
    done(Status::Ok());
  });
}

void SimSsd::PowerFail() {
  for (const Unflushed& w : unflushed_) {
    current_.CopyFrom(durable_, w.offset, w.data.size());
  }
  unflushed_.clear();
}

void SimSsd::DiscardAll() {
  current_.Clear();
  durable_.Clear();
  unflushed_.clear();
}

}  // namespace lsvd
