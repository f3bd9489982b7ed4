// Per-volume QoS admission control for a multi-tenant client host (§4.3's
// deployment story: many LSVD volumes share one hypervisor's SSD and CPUs).
//
// Each registered volume owns token buckets for IOPS and bandwidth,
// refilled on simulated time; a volume marked fair_share additionally draws
// from a host-wide shared pool, so capped tenants cannot exceed their slice
// while uncapped ones split the remainder. Admission is work-conserving: an
// op runs inline when its volume's queue is empty and tokens are available,
// otherwise it queues FIFO per volume and a single timer drains queues
// round-robin across volumes when tokens accrue.
#ifndef SRC_LSVD_QOS_H_
#define SRC_LSVD_QOS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/lsvd/config.h"
#include "src/sim/simulator.h"
#include "src/util/metrics.h"

namespace lsvd {

// Token bucket over simulated time. rate 0 = unlimited (always has tokens).
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double capacity)
      : rate_(rate_per_sec),
        capacity_(capacity < 1.0 ? 1.0 : capacity),
        tokens_(capacity_) {}

  bool unlimited() const { return rate_ <= 0.0; }

  void Refill(Nanos now) {
    if (unlimited()) {
      return;
    }
    const Nanos dt = now - last_refill_;
    if (dt > 0) {
      tokens_ += rate_ * ToSeconds(dt);
      if (tokens_ > capacity_) {
        tokens_ = capacity_;
      }
      last_refill_ = now;
    }
  }

  // An op larger than the bucket capacity is admitted once the bucket is
  // full and pushes the balance negative ("borrowing") — otherwise a 64 KiB
  // write against a 10 KiB burst could never be admitted at all. The debt
  // must be repaid before the next op, so the long-term rate still holds.
  bool Has(double tokens, Nanos now) {
    if (unlimited()) {
      return true;
    }
    Refill(now);
    return tokens_ >= tokens || tokens_ >= capacity_;
  }

  void Take(double tokens) {
    if (!unlimited()) {
      tokens_ -= tokens;  // may go negative for oversized ops (see Has)
    }
  }

  // Virtual-time delay until the op can be admitted; 0 if already.
  Nanos Eta(double tokens, Nanos now) {
    if (unlimited()) {
      return 0;
    }
    Refill(now);
    const double needed = tokens < capacity_ ? tokens : capacity_;
    if (tokens_ >= needed) {
      return 0;
    }
    // A deficit smaller than one tick's accrual truncates to 0 ns, which
    // would re-arm the admission timer at the current timestamp and spin the
    // event loop; any real deficit waits at least one tick.
    return std::max<Nanos>(FromSeconds((needed - tokens_) / rate_), 1);
  }

 private:
  double rate_ = 0.0;
  double capacity_ = 0.0;
  double tokens_ = 0.0;
  Nanos last_refill_ = 0;
};

class QosScheduler {
 public:
  // shared_iops / shared_bytes_per_sec bound the fair-share pool (0 =
  // unlimited). burst_seconds sizes the shared buckets.
  QosScheduler(Simulator* sim, uint64_t shared_iops,
               uint64_t shared_bytes_per_sec, double burst_seconds = 0.1);
  ~QosScheduler() { *alive_ = false; }

  QosScheduler(const QosScheduler&) = delete;
  QosScheduler& operator=(const QosScheduler&) = delete;

  // Registers a volume; limits.unlimited() volumes are admitted inline with
  // no bookkeeping. The optional registry records the volume's throttle
  // metrics under `prefix` (".qos.throttled", ".qos.wait_us", ...).
  int RegisterVolume(const std::string& name, QosLimits limits,
                     MetricsRegistry* metrics = nullptr,
                     const std::string& prefix = "lsvd");
  // Dropped queued admissions are never run (mirrors Kill() semantics of the
  // disk components: a detached volume's pending work just disappears).
  void UnregisterVolume(int id);

  // Runs `fn` when the volume's buckets allow one op of `bytes` bytes. A
  // capture of up to 64 bytes is held without allocating.
  void Admit(int id, uint64_t bytes, Simulator::Fn fn);

  size_t queued() const;
  uint64_t throttled() const { return total_throttled_; }

 private:
  struct PendingOp {
    uint64_t bytes = 0;
    Nanos enqueued_at = 0;
    Simulator::Fn fn;
  };
  struct Volume {
    std::string name;
    QosLimits limits;
    TokenBucket iops;
    TokenBucket bandwidth;
    std::deque<PendingOp> queue;
    Counter* c_admitted = nullptr;
    Counter* c_throttled = nullptr;
    Histogram* h_wait_us = nullptr;
  };

  bool TryTake(Volume* v, uint64_t bytes);
  Nanos AdmitEta(Volume* v, uint64_t bytes);
  void Pump();
  void ArmTimer(Nanos delay);

  Simulator* sim_;
  TokenBucket shared_iops_;
  TokenBucket shared_bandwidth_;
  std::map<int, Volume> volumes_;
  int next_id_ = 0;
  uint64_t timer_epoch_ = 0;  // invalidates armed timers on re-arm
  uint64_t total_throttled_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace lsvd

#endif  // SRC_LSVD_QOS_H_
