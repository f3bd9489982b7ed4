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
  // Full size up front: MatchStream never grows them.
  write_streams_.reserve(params_.stream_slots + 1);
  read_streams_.reserve(params_.stream_slots + 1);
}

bool SimSsd::MatchStream(std::vector<uint64_t>* streams, uint64_t offset,
                         uint64_t end) {
  auto it = std::find(streams->begin(), streams->end(), offset);
  const bool sequential = it != streams->end();
  if (sequential) {
    streams->erase(it);
  }
  streams->push_back(end);
  if (streams->size() > params_.stream_slots) {
    const auto keep = static_cast<ptrdiff_t>(params_.stream_slots);
    streams->erase(streams->begin(), streams->end() - keep);
  }
  return sequential;
}

// Submits the request as one or more channel occupations (striping large
// requests across channels) and completes it when the slowest finishes plus
// the fixed device latency.
void SimSsd::SubmitOp(bool is_write, uint64_t offset, uint64_t len,
                      uint32_t slot) {
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
  // The stripes share the request's slot; the last to finish schedules the
  // completion.
  pending_[slot].stripes = subops;
  const auto finish = [this, slot, latency] {
    if (--pending_[slot].stripes == 0) {
      sim_->After(latency, [this, slot] { Complete(slot); });
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

void SimSsd::Complete(uint32_t slot) {
  // Runs in place (the slab never moves a slot) and frees the slot after:
  // the callback may submit new requests.
  Pending& op = pending_[slot];
  if (op.read_done) {
    if (op.failed) {
      op.read_done(Status::Unavailable("injected SSD read failure"));
    } else {
      op.read_done(std::move(op.data));
    }
  } else if (op.failed) {
    op.write_done(Status::Unavailable("injected SSD write failure"));
  } else {
    op.write_done(Status::Ok());
  }
  pending_.Free(slot);
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
  const uint64_t len = data.size();
  const uint32_t slot = pending_.Alloc();
  Pending& op = pending_[slot];
  op.write_done = std::move(done);
  if (fail_next_writes_ > 0) {
    fail_next_writes_--;
    op.failed = true;
  } else {
    // Contents are visible to reads as soon as the op is accepted;
    // completion is acknowledged after the service time.
    current_.Write(offset, data);
    unflushed_.push_back(
        Unflushed{next_write_seq_++, offset, std::move(data)});
  }
  SubmitOp(true, offset, len, slot);
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
  const uint32_t slot = pending_.Alloc();
  Pending& op = pending_[slot];
  op.read_done = std::move(done);
  if (fail_next_reads_ > 0) {
    fail_next_reads_--;
    op.failed = true;
  } else {
    op.data = current_.Read(offset, len);
  }
  SubmitOp(false, offset, len, slot);
}

void SimSsd::Flush(WriteCallback done) {
  stats_.flushes++;
  // Writes accepted from here on are not covered by this flush.
  const uint64_t covers = next_write_seq_;
  const uint32_t slot = pending_.Alloc();
  pending_[slot].write_done = std::move(done);
  write_queue_.Submit(params_.flush, [this, covers, slot]() {
    while (unflushed_head_ < unflushed_.size() &&
           unflushed_[unflushed_head_].seq < covers) {
      Unflushed& w = unflushed_[unflushed_head_++];
      durable_.Write(w.offset, w.data);
      w.data = Buffer();
    }
    // The promoted writes leave the front once they are half the list.
    if (2 * unflushed_head_ >= unflushed_.size()) {
      unflushed_.erase(unflushed_.begin(),
                       unflushed_.begin() +
                           static_cast<ptrdiff_t>(unflushed_head_));
      unflushed_head_ = 0;
    }
    Complete(slot);
  });
}

void SimSsd::PowerFail() {
  for (size_t i = unflushed_head_; i < unflushed_.size(); i++) {
    current_.CopyFrom(durable_, unflushed_[i].offset,
                      unflushed_[i].data.size());
  }
  unflushed_.clear();
  unflushed_head_ = 0;
}

void SimSsd::DiscardAll() {
  current_.Clear();
  durable_.Clear();
  unflushed_.clear();
  unflushed_head_ = 0;
}

}  // namespace lsvd
