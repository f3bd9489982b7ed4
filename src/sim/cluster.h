// Backend storage cluster model: N IOPS-limited devices behind a network.
//
// Reproduces the two Ceph pools from the paper's Table 1:
//   config #1: 4 nodes, 32 consumer SATA SSDs
//   config #2: 9 nodes, 62 10K-RPM SAS HDDs
// The cluster exposes raw per-disk reads/writes; placement policies
// (replication, erasure coding, RBD chunking) live in src/objstore and
// src/baseline and are expressed as patterns of these raw ops. Per-disk busy
// time, op counts, and a merged-sequential write-size histogram are tracked
// for the backend-load experiments (Figures 12-14).
#ifndef SRC_SIM_CLUSTER_H_
#define SRC_SIM_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/sim/simulator.h"
#include "src/util/histogram.h"
#include "src/util/metrics.h"
#include "src/util/units.h"

namespace lsvd {

enum class DiskKind { kHdd, kSsd };

struct ClusterConfig {
  DiskKind kind = DiskKind::kSsd;
  int num_disks = 32;
  HddParams hdd;
  BackendSsdParams ssd;
  // Logical capacity per disk, used only to spread placement offsets.
  uint64_t disk_capacity = kGiB * 1024;

  static ClusterConfig SsdPool() {  // Table 1 config #1
    ClusterConfig c;
    c.kind = DiskKind::kSsd;
    c.num_disks = 32;
    return c;
  }
  static ClusterConfig HddPool() {  // Table 1 config #2
    ClusterConfig c;
    c.kind = DiskKind::kHdd;
    c.num_disks = 62;
    return c;
  }
};

class BackendCluster {
 public:
  // If `metrics` is given, per-disk and cluster-total callback gauges
  // ("cluster.disk[i].busy_us" etc.) register there as live views over the
  // disk models; snapshots read them at snapshot time.
  BackendCluster(Simulator* sim, ClusterConfig config,
                 MetricsRegistry* metrics = nullptr,
                 const std::string& prefix = "cluster");

  int num_disks() const { return static_cast<int>(disks_.size()); }
  uint64_t disk_capacity() const { return config_.disk_capacity; }

  // Raw device ops. `disk` in [0, num_disks). `done` is scheduled on the
  // simulator as it is: a capture of up to 64 bytes costs no allocation.
  void Write(int disk, uint64_t offset, uint32_t len, Simulator::Fn done);
  void Read(int disk, uint64_t offset, uint32_t len, Simulator::Fn done);

  // Deterministic placement: the `replica`-th copy of an item with the given
  // hash, on distinct disks.
  int PickDisk(uint64_t hash, int replica) const;

  // Appends `len` bytes to the per-disk write-ahead-log region, which is
  // written sequentially (so HDD near-access costs apply), and returns the
  // offset written. Models Ceph OSD journaling behaviour.
  uint64_t WalAppend(int disk, uint32_t len, Simulator::Fn done);

  // --- statistics ---
  const DiskStats& disk_stats(int disk) const { return disks_[disk]->stats(); }
  DiskStats TotalStats() const;
  // Cumulative busy nanoseconds summed over all disks (sample twice and
  // subtract to get a window).
  Nanos TotalBusy() const;
  // Mean per-disk utilization in [t0, t1) given a busy sample from t0.
  double MeanUtilization(Nanos busy_at_t0, Nanos t0, Nanos t1) const;

  // Histogram of backend write sizes with consecutive sequential writes to
  // the same disk merged, as in the paper's Figure 14 analysis. Call
  // FlushWriteRuns() before reading.
  void FlushWriteRuns();
  const Histogram& write_size_histogram() const { return write_sizes_; }

 private:
  struct WriteRun {
    uint64_t end = UINT64_MAX;  // offset one past the last write
    uint64_t len = 0;
  };

  void AccountWrite(int disk, uint64_t offset, uint32_t len);

  Simulator* sim_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<DiskModel>> disks_;
  std::vector<uint64_t> wal_head_;   // per-disk WAL append offset
  std::vector<WriteRun> write_run_;  // per-disk open merge run
  Histogram write_sizes_;
};

}  // namespace lsvd

#endif  // SRC_SIM_CLUSTER_H_
