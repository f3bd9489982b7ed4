// Ceph RADOS Block Device (RBD) baseline (paper §2.1, §4.5, §5).
//
// The virtual disk image is split into 4 MiB mutable chunks distributed over
// the backend pool by consistent hashing, with triple replication. Each
// client write performs, at each of the three replicas, a write-ahead-log
// append (data + commit metadata, the 16/20/24 KiB writes of Figure 14) and
// an in-place data write — six backend I/Os per client write, matching the
// paper's measured 6x amplification (Figure 13). The write is acknowledged
// once all three WAL appends complete, so Flush is a no-op (acknowledged
// writes are already replicated-durable).
#ifndef SRC_BASELINE_RBD_DISK_H_
#define SRC_BASELINE_RBD_DISK_H_

#include <memory>
#include <vector>

#include "src/blockdev/block_store.h"
#include "src/blockdev/virtual_disk.h"
#include "src/sim/cluster.h"
#include "src/sim/net_link.h"
#include "src/sim/simulator.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace lsvd {

struct RbdConfig {
  uint64_t chunk_size = 4 * kMiB;
  int replicas = 3;
  // WAL overhead added to each journaled write (commit record / two-phase
  // metadata; the paper sees 16 KiB writes journaled as 16-24 KiB).
  uint64_t wal_overhead = 4 * kKiB;
};

struct RbdStats {
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
};

class RbdDisk : public VirtualDisk {
 public:
  RbdDisk(Simulator* sim, BackendCluster* cluster, NetLink* link,
          uint64_t volume_size, RbdConfig config, uint64_t volume_id = 0,
          MetricsRegistry* metrics = nullptr,
          const std::string& prefix = "rbd");

  uint64_t size() const override { return volume_size_; }
  void Write(uint64_t offset, Buffer data,
             std::function<void(Status)> done) override;
  void Read(uint64_t offset, uint64_t len,
            std::function<void(Result<Buffer>)> done) override;
  void Flush(std::function<void(Status)> done) override;

  // Drops contents (used to model an image that was never written).
  void Kill() { *alive_ = false; }

  RbdStats stats() const;

 private:
  uint64_t ChunkIndex(uint64_t offset) const { return offset / config_.chunk_size; }
  uint64_t ChunkHash(uint64_t chunk) const;
  // Deterministic on-disk home of a chunk replica.
  uint64_t ChunkBase(uint64_t chunk, int replica) const;

  // One client write, shared by the events of all its pieces and replicas:
  // the last durable WAL append schedules the ack.
  struct WriteState {
    std::shared_ptr<bool> alive;
    uint64_t offset;
    uint64_t bytes;
    Nanos submitted;
    int wal_left;  // WAL appends not yet durable, over all pieces
    std::function<void(Status)> done;
  };
  // One client read, carried through the request, disk read and transfer.
  struct ReadState {
    std::shared_ptr<bool> alive;
    uint64_t len;
    Nanos started;
    Buffer out;
    std::function<void(Result<Buffer>)> done;
  };

  // Sends every chunk-contained piece of the write to its replicas: a WAL
  // append and an in-place data write at each.
  void FanOut(const std::shared_ptr<WriteState>& st);
  void WalDurable(const std::shared_ptr<WriteState>& st);

  Simulator* sim_;
  BackendCluster* cluster_;
  NetLink* link_;
  uint64_t volume_size_;
  RbdConfig config_;
  uint64_t volume_id_;

  BlockStore image_;  // image contents; unwritten blocks read as zeros
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_writes_;
  Counter* c_write_bytes_;
  Counter* c_reads_;
  Counter* c_read_bytes_;
  // Ack latencies comparable to lsvd.write.ack_us / lsvd.read.e2e_us.
  Histogram* h_write_ack_us_;
  Histogram* h_read_e2e_us_;
};

}  // namespace lsvd

#endif  // SRC_BASELINE_RBD_DISK_H_
