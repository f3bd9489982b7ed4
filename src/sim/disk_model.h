// Per-device storage service models for the backend cluster.
//
// Two device kinds from the paper's Table 1:
//  - HddModel: 10K RPM SAS HDD (config #2). Single actuator with an elevator
//    (shortest-seek-first) queue; writes within 128 KiB of the head are cheap
//    "near" accesses, matching the analysis in §4.5 of the paper.
//  - BackendSsdModel: consumer SATA SSD (config #1), ~10K sustained random
//    write IOPS per device, modeled as a small channel pool.
#ifndef SRC_SIM_DISK_MODEL_H_
#define SRC_SIM_DISK_MODEL_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "src/sim/server_queue.h"
#include "src/sim/simulator.h"
#include "src/util/units.h"

namespace lsvd {

// Cumulative per-device counters, sampled by benches to compute utilization
// windows (paper Figure 12 uses /proc/diskstats busy fractions).
struct DiskStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  Nanos busy = 0;
};

// Abstract device: asynchronous reads/writes against byte offsets.
class DiskModel {
 public:
  virtual ~DiskModel() = default;

  // `done` runs on the simulator when the device completes the op.
  virtual void Submit(bool is_write, uint64_t offset, uint32_t len,
                      Simulator::Fn done) = 0;

  const DiskStats& stats() const { return stats_; }

 protected:
  void Account(bool is_write, uint32_t len, Nanos service) {
    if (is_write) {
      stats_.write_ops++;
      stats_.write_bytes += len;
    } else {
      stats_.read_ops++;
      stats_.read_bytes += len;
    }
    stats_.busy += service;
  }

  DiskStats stats_;
};

struct HddParams {
  // Positioning cost when the target is within `near_distance` of the head
  // (track-following / same-cylinder access, e.g. consecutive OSD journal
  // appends).
  Nanos near_access = 150 * kMicrosecond;
  uint64_t near_distance = 128 * kKiB;
  // Graded long-seek cost: seek_base + seek_full * sqrt(distance/capacity),
  // the classic seek-curve shape. A lone random access on a 1 TB disk costs
  // ~3 ms (≈370 write IOPS as in the paper §4.5); a deep elevator queue
  // shrinks the achieved distance and thus the cost.
  Nanos seek_base = 600 * kMicrosecond;
  Nanos seek_full = 4500 * kMicrosecond;
  uint64_t capacity = kGiB * 1024;
  // Media transfer rate.
  double bandwidth_bps = 180.0 * 1e6;
  // Bound on the elevator's candidate window (ops considered for reordering).
  size_t queue_window = 64;
};

// Single-spindle hard disk with shortest-seek-first scheduling.
class HddModel : public DiskModel {
 public:
  HddModel(Simulator* sim, HddParams params);

  void Submit(bool is_write, uint64_t offset, uint32_t len,
              Simulator::Fn done) override;

 private:
  struct Op {
    bool is_write;
    uint64_t offset;
    uint32_t len;
    Simulator::Fn done;
  };

  void StartNext();
  // Completes the op in service and starts the next one.
  void FinishCurrent();
  Nanos ServiceTime(const Op& op) const;

  Simulator* sim_;
  HddParams params_;
  std::deque<Op> pending_;
  bool in_service_ = false;
  // The op in service's callback: the single actuator serves one op at a
  // time, so its completion event captures only `this`.
  Simulator::Fn current_done_;
  uint64_t head_pos_ = 0;
};

struct BackendSsdParams {
  int channels = 4;
  Nanos read_op = 100 * kMicrosecond;   // ~40K read IOPS across 4 channels
  Nanos write_op = 400 * kMicrosecond;  // ~10K sustained write IOPS
  double channel_bandwidth_bps = 125.0 * 1e6;  // ~500 MB/s aggregate
};

// Capacity/consumer SSD used as a backend pool device (config #1).
class BackendSsdModel : public DiskModel {
 public:
  BackendSsdModel(Simulator* sim, BackendSsdParams params);

  void Submit(bool is_write, uint64_t offset, uint32_t len,
              Simulator::Fn done) override;

 private:
  BackendSsdParams params_;
  ServerQueue queue_;
};

}  // namespace lsvd

#endif  // SRC_SIM_DISK_MODEL_H_
