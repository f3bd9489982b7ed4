// Data-bearing simulated NVMe SSD with a service-time model and crash
// injection.
//
// Timing is calibrated to the paper's client cache device (Intel DC P3700,
// Table 1 / §4.1): 2.8 / 1.9 GB/s sequential read/write, 460K / 90K random
// read/write IOPS. The device detects sequential streams, so a log-structured
// writer (LSVD's cache) gets bandwidth-bound service while a random writer
// (bcache allocation) pays the per-op random-write cost — the mechanism
// behind the paper's Figure 6 result.
//
// Crash semantics: reads always see the newest accepted write. A flush
// makes durable every write accepted before it was issued, once it
// completes. PowerFail() (crash with the device surviving) reverts the
// contents to what the last completed flush made durable; DiscardAll()
// models total cache loss (device gone / machine replaced).
#ifndef SRC_BLOCKDEV_SIM_SSD_H_
#define SRC_BLOCKDEV_SIM_SSD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/blockdev/block_store.h"
#include "src/sim/server_queue.h"
#include "src/sim/simulator.h"
#include "src/util/slab.h"

namespace lsvd {

struct SsdParams {
  int channels = 8;
  Nanos random_read_op = 17 * kMicrosecond;    // ~460K IOPS at saturation
  Nanos random_write_op = 88 * kMicrosecond;   // ~90K IOPS at saturation
  Nanos sequential_read_op = 8 * kMicrosecond;
  Nanos sequential_write_op = 10 * kMicrosecond;
  double channel_read_bw_bps = 2.8e9 / 8;
  double channel_write_bw_bps = 1.9e9 / 8;
  // Fixed completion latency added outside the channel occupancy (typical
  // NVMe: tens of microseconds for writes, ~100 for reads).
  Nanos read_latency = 70 * kMicrosecond;
  Nanos write_latency = 15 * kMicrosecond;
  Nanos flush = 120 * kMicrosecond;
  // Requests larger than this are striped across channels, as the device's
  // internal parallelism would. Sequential streams stripe at finer grain
  // (the device lays consecutive stripes across dies), which is what makes a
  // log-structured writer bandwidth-efficient even for medium-sized appends.
  uint64_t stripe_unit = 64 * kKiB;
  uint64_t sequential_stripe_unit = 16 * kKiB;
  // Number of concurrent sequential streams the device tracks.
  size_t stream_slots = 16;

  static SsdParams P3700() { return SsdParams{}; }
  // Zero-latency variant for unit tests.
  static SsdParams Instant() {
    SsdParams p;
    p.random_read_op = p.random_write_op = 0;
    p.sequential_read_op = p.sequential_write_op = 0;
    p.channel_read_bw_bps = p.channel_write_bw_bps = 1e18;
    p.read_latency = p.write_latency = 0;
    p.flush = 0;
    return p;
  }
  // AWS m5d.xlarge instance NVMe (§4.9): 230 / 128 MB/s measured.
  static SsdParams AwsInstanceNvme() {
    SsdParams p;
    p.channels = 4;
    p.random_read_op = 4 * 20 * kMicrosecond;
    p.random_write_op = 4 * 40 * kMicrosecond;
    p.channel_read_bw_bps = 230e6 / 4;
    p.channel_write_bw_bps = 128e6 / 4;
    return p;
  }
};

struct SsdStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t flushes = 0;
  uint64_t sequential_writes = 0;
};

class SimSsd : public BlockDevice {
 public:
  SimSsd(Simulator* sim, uint64_t capacity, SsdParams params);

  uint64_t capacity() const override { return capacity_; }

  void Write(uint64_t offset, Buffer data, WriteCallback done) override;
  void Read(uint64_t offset, uint64_t len, ReadCallback done) override;
  void Flush(WriteCallback done) override;

  // --- fault injection ---
  // Power failure: completed-but-unflushed writes are lost; the device stays
  // usable (contents = last flushed state).
  void PowerFail();
  // Catastrophic loss: all contents are gone (reads return zeros).
  void DiscardAll();
  // The next `n` writes complete with Unavailable after their service time
  // and store nothing (media error / aborted command).
  void FailNextWrites(int n) { fail_next_writes_ += n; }
  // The next `n` reads complete with Unavailable after their service time.
  void FailNextReads(int n) { fail_next_reads_ += n; }

  const SsdStats& stats() const { return stats_; }

 private:
  // An accepted write that no completed flush covers yet.
  struct Unflushed {
    uint64_t seq;
    uint64_t offset;
    Buffer data;
  };

  // A request from acceptance until its callback runs. Its events capture
  // only the slot, so the caller's callback (up to 64 bytes of capture
  // itself) is never copied or wrapped.
  struct Pending {
    WriteCallback write_done;  // writes and flushes
    ReadCallback read_done;    // reads
    Buffer data;               // a read's bytes
    uint64_t stripes = 0;      // channel occupations still in service
    bool failed = false;       // an injected write or read failure
  };

  // Occupies channels for the request in pending_[slot] (striping large
  // requests across channels) and completes it when the slowest stripe
  // finishes plus the fixed device latency.
  void SubmitOp(bool is_write, uint64_t offset, uint64_t len, uint32_t slot);
  // Runs pending_[slot]'s callback and frees the slot.
  void Complete(uint32_t slot);
  bool MatchStream(std::vector<uint64_t>* streams, uint64_t offset,
                   uint64_t end);

  Simulator* sim_;
  uint64_t capacity_;
  SsdParams params_;
  // Reads and writes are served by separate channel pools, matching how
  // NVMe devices quote (and roughly deliver) independent read and write
  // bandwidths.
  ServerQueue read_queue_;
  ServerQueue write_queue_;
  BlockStore current_;  // what reads see: every accepted write
  BlockStore durable_;  // what survives PowerFail
  // Accepted writes not yet in durable_, oldest first from unflushed_head_;
  // a completed flush promotes those accepted before it was issued.
  // PowerFail drops them, so a flush still in flight across a failure finds
  // nothing to promote. A vector, not a deque: emptied by a flush it keeps
  // its capacity, so steady write/flush cycles allocate nothing.
  std::vector<Unflushed> unflushed_;
  size_t unflushed_head_ = 0;
  uint64_t next_write_seq_ = 0;
  // Recent request end offsets, oldest first, at most stream_slots each.
  std::vector<uint64_t> write_streams_;
  std::vector<uint64_t> read_streams_;
  int fail_next_writes_ = 0;
  int fail_next_reads_ = 0;
  Slab<Pending, 256> pending_;
  SsdStats stats_;
};

}  // namespace lsvd

#endif  // SRC_BLOCKDEV_SIM_SSD_H_
