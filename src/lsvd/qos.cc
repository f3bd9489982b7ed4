#include "src/lsvd/qos.h"

#include <algorithm>
#include <utility>

namespace lsvd {

QosScheduler::QosScheduler(Simulator* sim, uint64_t shared_iops,
                           uint64_t shared_bytes_per_sec,
                           double burst_seconds)
    : sim_(sim),
      shared_iops_(static_cast<double>(shared_iops),
                   static_cast<double>(shared_iops) * burst_seconds),
      shared_bandwidth_(static_cast<double>(shared_bytes_per_sec),
                        static_cast<double>(shared_bytes_per_sec) *
                            burst_seconds) {}

int QosScheduler::RegisterVolume(const std::string& name, QosLimits limits,
                                 MetricsRegistry* metrics,
                                 const std::string& prefix) {
  const int id = next_id_++;
  Volume v;
  v.name = name;
  v.limits = limits;
  v.iops = TokenBucket(static_cast<double>(limits.iops),
                       static_cast<double>(limits.iops) *
                           limits.burst_seconds);
  v.bandwidth = TokenBucket(static_cast<double>(limits.bytes_per_sec),
                            static_cast<double>(limits.bytes_per_sec) *
                                limits.burst_seconds);
  if (metrics != nullptr) {
    v.c_admitted = metrics->GetCounter(prefix + ".qos.admitted");
    v.c_throttled = metrics->GetCounter(prefix + ".qos.throttled");
    v.h_wait_us = metrics->GetHistogram(prefix + ".qos.wait_us");
  }
  volumes_.emplace(id, std::move(v));
  return id;
}

void QosScheduler::UnregisterVolume(int id) { volumes_.erase(id); }

size_t QosScheduler::queued() const {
  size_t n = 0;
  for (const auto& [id, v] : volumes_) {
    n += v.queue.size();
  }
  return n;
}

// One op needs 1 IOPS token and `bytes` bandwidth tokens from the volume's
// own buckets, plus the same from the shared pool when it is a fair-share
// participant. All-or-nothing: tokens are taken only when every bucket has
// enough, so a large op cannot starve by losing partial claims.
bool QosScheduler::TryTake(Volume* v, uint64_t bytes) {
  const Nanos now = sim_->now();
  const double b = static_cast<double>(bytes);
  if (!v->iops.Has(1.0, now) || !v->bandwidth.Has(b, now)) {
    return false;
  }
  if (v->limits.fair_share &&
      (!shared_iops_.Has(1.0, now) || !shared_bandwidth_.Has(b, now))) {
    return false;
  }
  v->iops.Take(1.0);
  v->bandwidth.Take(b);
  if (v->limits.fair_share) {
    shared_iops_.Take(1.0);
    shared_bandwidth_.Take(b);
  }
  return true;
}

Nanos QosScheduler::AdmitEta(Volume* v, uint64_t bytes) {
  const Nanos now = sim_->now();
  const double b = static_cast<double>(bytes);
  Nanos eta = std::max(v->iops.Eta(1.0, now), v->bandwidth.Eta(b, now));
  if (v->limits.fair_share) {
    eta = std::max(eta, shared_iops_.Eta(1.0, now));
    eta = std::max(eta, shared_bandwidth_.Eta(b, now));
  }
  return eta;
}

void QosScheduler::Admit(int id, uint64_t bytes, Simulator::Fn fn) {
  auto it = volumes_.find(id);
  if (it == volumes_.end()) {
    return;  // detached volume: drop, like a killed component's callbacks
  }
  Volume& v = it->second;
  if (v.limits.unlimited()) {
    fn();
    return;
  }
  if (v.queue.empty() && TryTake(&v, bytes)) {
    if (v.c_admitted != nullptr) {
      v.c_admitted->Inc();
    }
    fn();
    return;
  }
  total_throttled_++;
  if (v.c_throttled != nullptr) {
    v.c_throttled->Inc();
  }
  v.queue.push_back(PendingOp{bytes, sim_->now(), std::move(fn)});
  Pump();
}

// Drains queues round-robin by volume id: each pass admits at most one op
// per volume, so a deep queue on one tenant cannot monopolize a refill.
// When nothing is admittable, arms one timer at the earliest ETA among the
// queue heads.
void QosScheduler::Pump() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [id, v] : volumes_) {
      if (v.queue.empty() || !TryTake(&v, v.queue.front().bytes)) {
        continue;
      }
      PendingOp op = std::move(v.queue.front());
      v.queue.pop_front();
      if (v.c_admitted != nullptr) {
        v.c_admitted->Inc();
      }
      RecordLatencyUs(v.h_wait_us, sim_->now() - op.enqueued_at);
      progressed = true;
      op.fn();
    }
  }
  Nanos min_eta = -1;
  for (auto& [id, v] : volumes_) {
    if (v.queue.empty()) {
      continue;
    }
    const Nanos eta = AdmitEta(&v, v.queue.front().bytes);
    if (min_eta < 0 || eta < min_eta) {
      min_eta = eta;
    }
  }
  if (min_eta >= 0) {
    ArmTimer(std::max<Nanos>(min_eta, 1));
  }
}

void QosScheduler::ArmTimer(Nanos delay) {
  // Re-arming invalidates any earlier pending timer via the epoch; only the
  // newest armed timer pumps, so queued ops cannot be double-admitted.
  const uint64_t epoch = ++timer_epoch_;
  auto alive = alive_;
  sim_->After(delay, [this, alive, epoch]() {
    if (!*alive || epoch != timer_epoch_) {
      return;
    }
    Pump();
  });
}

}  // namespace lsvd
