#include "src/sim/disk_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace lsvd {

HddModel::HddModel(Simulator* sim, HddParams params)
    : sim_(sim), params_(params) {}

void HddModel::Submit(bool is_write, uint64_t offset, uint32_t len,
                      Simulator::Fn done) {
  pending_.push_back(Op{is_write, offset, len, std::move(done)});
  if (!in_service_) {
    StartNext();
  }
}

Nanos HddModel::ServiceTime(const Op& op) const {
  const uint64_t distance = op.offset > head_pos_ ? op.offset - head_pos_
                                                  : head_pos_ - op.offset;
  Nanos position;
  if (distance <= params_.near_distance) {
    position = params_.near_access;
  } else {
    const double frac = std::min(
        1.0, static_cast<double>(distance) /
                 static_cast<double>(params_.capacity));
    position = params_.seek_base +
               static_cast<Nanos>(static_cast<double>(params_.seek_full) *
                                  std::sqrt(frac));
  }
  const auto transfer = static_cast<Nanos>(
      static_cast<double>(op.len) / params_.bandwidth_bps * 1e9);
  return position + transfer;
}

void HddModel::StartNext() {
  if (pending_.empty()) {
    in_service_ = false;
    return;
  }
  in_service_ = true;
  // Elevator: among the first `queue_window` queued ops, serve the one with
  // the smallest positioning distance from the current head location.
  const size_t window = std::min(pending_.size(), params_.queue_window);
  size_t best = 0;
  uint64_t best_distance = UINT64_MAX;
  for (size_t i = 0; i < window; i++) {
    const uint64_t off = pending_[i].offset;
    const uint64_t d = off > head_pos_ ? off - head_pos_ : head_pos_ - off;
    if (d < best_distance) {
      best_distance = d;
      best = i;
    }
  }
  Op op = std::move(pending_[best]);
  pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(best));

  const Nanos service = ServiceTime(op);
  Account(op.is_write, op.len, service);
  head_pos_ = op.offset + op.len;
  current_done_ = std::move(op.done);
  sim_->After(service, [this] { FinishCurrent(); });
}

void HddModel::FinishCurrent() {
  Simulator::Fn done = std::move(current_done_);
  done();
  StartNext();
}

BackendSsdModel::BackendSsdModel(Simulator* sim, BackendSsdParams params)
    : params_(params), queue_(sim, params.channels) {}

void BackendSsdModel::Submit(bool is_write, uint64_t offset, uint32_t len,
                             Simulator::Fn done) {
  (void)offset;  // SSDs have no positional cost in this model.
  const Nanos op_cost = is_write ? params_.write_op : params_.read_op;
  const auto transfer = static_cast<Nanos>(
      static_cast<double>(len) / params_.channel_bandwidth_bps * 1e9);
  const Nanos service = std::max(op_cost, transfer);
  Account(is_write, len, service);
  queue_.Submit(service, std::move(done));
}

}  // namespace lsvd
