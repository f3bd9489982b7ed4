// bcache baseline: a write-back SSD cache layered over a remote virtual disk
// (paper §4: "RBD coupled with Linux bcache in write-back mode").
//
// Behavioural model of the properties the paper's evaluation exercises:
//  - Writes allocate cache-device space, journal their B-tree update (group
//    commit), and are acknowledged when data + journal are written. B-tree
//    insertion serializes on a single worker (`btree_cost`).
//  - A commit barrier must write out dirty B-tree nodes plus the journal and
//    flush the device — the extra metadata I/O that makes sync-heavy
//    workloads up to 4x slower than LSVD (§4.2.2).
//  - Writeback runs only when the client is idle (bcache throttles writeback
//    under load, Figure 11) and proceeds in LBA order — not write order — so
//    losing the cache mid-writeback leaves the backing image inconsistent
//    (Table 4). Under cache-full pressure writeback is forced and incoming
//    writes stall.
#ifndef SRC_BASELINE_BCACHE_DEVICE_H_
#define SRC_BASELINE_BCACHE_DEVICE_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/blockdev/virtual_disk.h"
#include "src/lsvd/client_host.h"
#include "src/lsvd/extent_map.h"
#include "src/util/metrics.h"
#include "src/util/run_allocator.h"

namespace lsvd {

struct BcacheConfig {
  Nanos btree_cost = 22 * kMicrosecond;  // per-insert serialization
  Nanos read_cost = 6 * kMicrosecond;    // read path (no btree write lock)
  // Dirty B-tree nodes written per commit barrier, as a function of updates
  // since the last barrier (1 node per this many updates, minimum 1).
  // Scattered small writes dirty roughly one leaf each; some share.
  uint64_t updates_per_btree_node = 2;
  uint64_t max_barrier_nodes = 8;
  // Writeback pacing.
  Nanos writeback_interval = 100 * kMillisecond;
  uint64_t writeback_batch_bytes = 4 * kMiB;
  uint64_t writeback_chunk = 256 * kKiB;  // max merged extent per backing write
  // Stall incoming writes when dirty data exceeds this fraction of the cache.
  double dirty_stall_fraction = 0.95;
};

struct BcacheStats {
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t reads = 0;
  uint64_t read_hits = 0;
  uint64_t journal_writes = 0;
  uint64_t barrier_node_writes = 0;
  uint64_t flushes = 0;
  uint64_t writeback_ops = 0;
  uint64_t writeback_bytes = 0;
  uint64_t stalled_writes = 0;
};

// One writeback backing write: `len` dirty bytes at `vlba`, cached at `plba`.
struct WritebackPiece {
  uint64_t vlba;
  uint64_t len;
  uint64_t plba;

  friend bool operator==(const WritebackPiece&,
                         const WritebackPiece&) = default;
};

// Selects up to `max_bytes` of dirty data in LBA order — not write order —
// starting at the first extent at or after `*cursor` and wrapping around to
// the extents before it, cut into pieces of at most `chunk` bytes. An extent
// the budget cuts short is resumed only after the wrap. Advances `*cursor`
// past every extent taken. Walks the map in place.
std::vector<WritebackPiece> SelectWritebackPieces(
    const ExtentMap<SsdTarget>& dirty, uint64_t* cursor, uint64_t max_bytes,
    uint64_t chunk);

class BcacheDevice : public VirtualDisk {
 public:
  BcacheDevice(ClientHost* host, VirtualDisk* backing, uint64_t cache_base,
               uint64_t cache_size, BcacheConfig config,
               MetricsRegistry* metrics = nullptr,
               const std::string& prefix = "bcache");

  uint64_t size() const override { return backing_->size(); }
  void Write(uint64_t offset, Buffer data,
             std::function<void(Status)> done) override;
  void Read(uint64_t offset, uint64_t len,
            std::function<void(Result<Buffer>)> done) override;
  void Flush(std::function<void(Status)> done) override;

  // Writes back every dirty extent, regardless of load (used to measure the
  // paper's §4.4 sync time; bcache itself only drains when idle).
  void WritebackAll(std::function<void()> done);

  uint64_t dirty_bytes() const { return dirty_.mapped_bytes(); }
  BcacheStats stats() const;

  void Kill() { *alive_ = false; }

 private:
  struct CleanEntry {
    uint64_t vlba;
    uint64_t len;
    uint64_t plba;
  };

  void DoWrite(uint64_t offset, Buffer data, std::function<void(Status)> done);
  // Frees cache space still mapped by `displaced` extents.
  void FreeDisplaced(const ExtentMap<SsdTarget>::ExtentVec& ext);
  // Allocates `len` contiguous bytes, evicting clean lines as needed.
  std::optional<uint64_t> AllocateEvicting(uint64_t len);
  void JoinJournal(std::function<void()> committed);
  void PumpJournal();
  void ArmWriteback();
  void ForceWriteback();
  // One writeback round, shared by the callbacks of all its pieces.
  struct Round {
    std::shared_ptr<bool> alive;
    size_t remaining;  // pieces not yet written back (or failed)
    std::function<void()> done;
  };

  void WritebackRound(uint64_t max_bytes, bool forced,
                      std::function<void()> done);
  // Moves the still-current ranges of a written-back piece to clean.
  void MarkClean(const WritebackPiece& p);
  // Counts one piece of `round` finished; the last ends the round.
  void PieceDone(Round* round);
  void RetryStalled();

  ClientHost* host_;
  SimSsd* ssd_;
  VirtualDisk* backing_;
  BcacheConfig config_;
  ServerQueue btree_cpu_;
  RunAllocator alloc_;

  ExtentMap<SsdTarget> dirty_;
  ExtentMap<SsdTarget> clean_;
  std::deque<CleanEntry> clean_fifo_;

  // Cache-device layout.
  uint64_t journal_base_ = 0;
  uint64_t journal_size_ = 0;
  uint64_t meta_base_ = 0;
  uint64_t meta_size_ = 0;
  uint64_t meta_counter_ = 0;

  // Journal group commit.
  std::vector<std::function<void()>> journal_waiters_;
  bool journal_in_flight_ = false;
  uint64_t journal_head_ = 0;  // sequential journal region cursor
  uint64_t updates_since_barrier_ = 0;

  // Writeback state.
  bool writeback_armed_ = false;
  bool writeback_running_ = false;
  bool force_retry_pending_ = false;
  uint64_t writes_since_tick_ = 0;
  uint64_t wb_cursor_ = 0;  // LBA-order scan position

  struct StalledWrite {
    uint64_t offset;
    Buffer data;
    std::function<void(Status)> done;
  };
  std::deque<StalledWrite> stalled_;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_writes_;
  Counter* c_write_bytes_;
  Counter* c_reads_;
  Counter* c_read_hits_;
  Counter* c_journal_writes_;
  Counter* c_barrier_node_writes_;
  Counter* c_flushes_;
  Counter* c_writeback_ops_;
  Counter* c_writeback_bytes_;
  Counter* c_stalled_writes_;
  // Write ack latency, comparable to lsvd.write.ack_us.
  Histogram* h_write_ack_us_;
  // Last member: destroyed first, so gauge callbacks never outlive the state
  // they read (the shared host registry outlives detached volumes).
  CallbackGuard callback_guard_;
};

}  // namespace lsvd

#endif  // SRC_BASELINE_BCACHE_DEVICE_H_
