// LsvdDisk: the log-structured virtual disk (paper Figure 1).
//
// Public block-device API over the three LSVD components:
//   - WriteCache  : log-structured write-back cache on the local SSD
//   - ReadCache   : block-granular read cache on the same SSD
//   - BackendStore: batched, immutable, sequence-numbered objects on an
//                   S3-compatible store, with GC, snapshots and clones
//
// Reads consult the write cache, then the read cache, then the backend
// (with temporal-locality prefetch); unmapped ranges read as zeros. A write
// is acknowledged when its journal record is on the SSD; a Flush is a single
// device commit barrier. Write-cache space is released only once the backend
// object containing the data has committed, so a crash can always rewind the
// cache log and replay the tail to the backend (§3.3):
//
//   Create()         : fresh volume (also materializes a clone's base map)
//   OpenAfterCrash() : cache survived — recovers every committed write
//   OpenCacheLost()  : cache gone — recovers a consistent prefix
//   CleanShutdown()  : drains writeback and persists all maps
#ifndef SRC_LSVD_LSVD_DISK_H_
#define SRC_LSVD_LSVD_DISK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/blockdev/virtual_disk.h"
#include "src/lsvd/backend_store.h"
#include "src/lsvd/client_host.h"
#include "src/lsvd/config.h"
#include "src/lsvd/read_cache.h"
#include "src/lsvd/write_cache.h"
#include "src/objstore/object_store.h"
#include "src/util/metrics.h"
#include "src/util/slab.h"
#include "src/util/small_vector.h"

namespace lsvd {

// View over the disk's registry counters (see docs/METRICS.md, "lsvd.*").
struct LsvdDiskStats {
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t flushes = 0;
  // TRIM/discard, zero until the volume's first Trim (lazy counters).
  uint64_t trims = 0;
  uint64_t trim_bytes = 0;
  // Read routing, counted per contiguous fragment.
  uint64_t write_cache_hits = 0;
  uint64_t read_cache_hits = 0;
  uint64_t backend_reads = 0;
  uint64_t zero_reads = 0;
};

// SSD regions backing a disk's caches; capture via regions() before a crash
// to re-open the same on-SSD state afterwards.
struct DiskRegions {
  uint64_t write_cache_base = 0;
  uint64_t read_cache_base = 0;
};

// Warm-handoff descriptor produced by DetachForMigration (DESIGN.md §15):
// after the write-cache tail has been drained into the backend and a fresh
// checkpoint written, these two pointers are all a target host needs to
// recover-attach the volume with zero replay beyond the checkpoint. The
// fleet layer ships a serialized form of this (plus the volume config) over
// a NetLink and charges its size against both hosts' links.
struct MigrationHandoff {
  uint64_t applied_seq = 0;     // backend image is complete through here
  uint64_t checkpoint_seq = 0;  // newest checkpoint at detach time
};

class LsvdDisk : public VirtualDisk {
 public:
  // Allocates fresh SSD regions from the host. If `metrics` is non-null all
  // of the disk's (and its components') metrics register there — e.g. a
  // bench-wide registry; the registry must outlive the disk's last snapshot.
  // Otherwise the disk owns a private registry, exposed via metrics().
  LsvdDisk(ClientHost* host, ObjectStore* store, LsvdConfig config,
           MetricsRegistry* metrics = nullptr);
  // Attaches to existing regions (re-open after a crash).
  LsvdDisk(ClientHost* host, ObjectStore* store, LsvdConfig config,
           DiskRegions regions, MetricsRegistry* metrics = nullptr);
  // Sharded backend (DESIGN.md §9): the object stream is striped round-robin
  // across `stores`; the stripe width is fixed for the volume's lifetime.
  LsvdDisk(ClientHost* host, std::vector<ObjectStore*> stores,
           LsvdConfig config, MetricsRegistry* metrics = nullptr);
  LsvdDisk(ClientHost* host, std::vector<ObjectStore*> stores,
           LsvdConfig config, DiskRegions regions,
           MetricsRegistry* metrics = nullptr);
  ~LsvdDisk() override;

  LsvdDisk(const LsvdDisk&) = delete;
  LsvdDisk& operator=(const LsvdDisk&) = delete;

  uint64_t size() const override { return config_.volume_size; }

  // --- lifecycle (call exactly one, then wait for its callback) ---
  void Create(std::function<void(Status)> done);
  void OpenAfterCrash(std::function<void(Status)> done);
  void OpenCacheLost(std::function<void(Status)> done);
  // Re-open after CleanShutdown: like OpenAfterCrash but also restores the
  // persisted read-cache map.
  void OpenClean(std::function<void(Status)> done);

  // --- block device operations (offsets/lengths multiples of 4 KiB) ---
  void Write(uint64_t offset, Buffer data,
             std::function<void(Status)> done) override;
  void Read(uint64_t offset, uint64_t len,
            std::function<void(Result<Buffer>)> done) override;
  void Flush(std::function<void(Status)> done) override;
  // TRIM/discard (DESIGN.md §13): journals a tombstone record, punches the
  // object map via a zero-payload extent in the object stream, and makes
  // reads of the range return zeros. Acknowledged like a write, once the
  // journal record is on the SSD.
  void Trim(uint64_t offset, uint64_t len,
            std::function<void(Status)> done) override;

  // --- management ---
  // Seals open batches and waits until the backend image matches the cache
  // (the precondition for VM migration, §4.3/§4.4).
  void Drain(std::function<void(Status)> done);
  // Drain + persist write-cache and read-cache maps + backend checkpoint.
  void CleanShutdown(std::function<void(Status)> done);
  // Live-migration source half (DESIGN.md §15): drain-and-seal the
  // write-cache tail into the backend, write a checkpoint so the target's
  // recover-attach replays nothing, and hand back the pointers the target
  // needs. The disk keeps serving reads until the caller destroys it; the
  // caller is responsible for fencing the stale attachment (epoch flip) and
  // freeing this host's SSD regions once the target is live.
  void DetachForMigration(std::function<void(Result<MigrationHandoff>)> done);

  void Snapshot(std::function<void(Result<uint64_t>)> done);
  void DeleteSnapshot(uint64_t seq, std::function<void(Status)> done);
  // Configuration for a new volume cloned from this volume's snapshot (or
  // current drained state) at object `seq`.
  LsvdConfig MakeCloneConfig(const std::string& clone_name,
                             uint64_t base_seq) const;

  // Simulates the client process dying: all pending callbacks are dropped.
  // The SSD/object-store contents survive per their own crash semantics.
  void Kill();

  // --- introspection ---
  DiskRegions regions() const { return DiskRegions{wc_base_, rc_base_}; }
  uint64_t volume_size() const { return config_.volume_size; }
  const LsvdConfig& config() const { return config_; }
  LsvdDiskStats stats() const;
  // Reads between their call and their last fragment; a read whose `done`
  // ran with an error stays here until its other fragments land.
  size_t reads_in_flight() const { return reading_.live(); }
  // The registry holding every metric of this disk and its components.
  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }
  WriteCache& write_cache() { return *write_cache_; }
  ReadCache& read_cache() { return *read_cache_; }
  BackendStore& backend() { return *backend_; }

 private:
  enum class FragmentKind { kWriteCache, kReadCache, kBackend, kZero };

  void InitComponents();
  // Write/Read bodies, entered after QoS admission; `submitted` is the
  // pre-admission timestamp so throttle wait shows up in client latency.
  void WriteAdmitted(uint64_t offset, Buffer data, Nanos submitted,
                     std::function<void(Status)> done);
  void TrimAdmitted(uint64_t offset, uint64_t len, Nanos submitted,
                    std::function<void(Status)> done);
  // A write or trim from admission to its journal ack: the caller's `done`
  // and what the ack needs. It sits in a slab slot, so the kernel-CPU
  // closure and the write cache's ack capture only the slot index and
  // allocate nothing.
  struct Journaled {
    uint64_t offset = 0;
    uint64_t len = 0;
    Buffer data;  // empty for a trim
    uint64_t batch_seq = 0;
    Nanos submitted = 0;  // pre-admission: throttle wait counts in latency
    bool is_trim = false;
    std::function<void(Status)> done;
  };
  // Holds `op`, charges the kernel CPU for it, then appends it to the write
  // cache.
  void Journal(Journaled op);
  // The journal record holding slot `slot` is on the SSD: record the ack
  // latency, drop stale read-cache lines and run the caller's `done`.
  void Acked(uint32_t slot, Status s);
  // A client read from its call to its last fragment: the routing plan,
  // each fragment's data and the caller's `done`. It sits in a slab slot,
  // so the QoS, kernel-CPU, user-CPU, cache-read and fetch callbacks capture
  // only the slot and a fragment index, and a 4 KiB read allocates nothing
  // of its own.
  struct Fragment {
    FragmentKind kind = FragmentKind::kZero;
    uint64_t vlba = 0;
    uint64_t len = 0;
    uint64_t plba = 0;       // caches
    ObjTarget target{};      // backend
    uint64_t fetch_len = 0;  // backend: len plus the prefetch window
  };
  struct Reading {
    uint64_t offset = 0;
    uint64_t len = 0;
    Nanos started = 0;  // pre-admission: throttle wait counts in latency
    SmallVector<Fragment, 4> plan;
    SmallVector<Buffer, 4> parts;  // one per fragment, filled as they land
    size_t remaining = 0;          // fragments not yet landed
    bool failed = false;           // `done` already ran with an error
    std::function<void(Result<Buffer>)> done;
  };
  // Charges the kernel-side lookup for the read in `slot`, then routes it.
  void ReadAdmitted(uint32_t slot);
  // Routes a read once its lookup is charged: plans fragments across the
  // write cache, read cache, backend and zeros, and issues them.
  void RouteRead(uint32_t slot);
  // Fragment `i` of the read in `slot` has landed with `r`. The first
  // error runs `done` at once; the last fragment to land frees the slot
  // and, if nothing failed, runs `done` with the assembled data.
  void FinishFragment(uint32_t slot, uint32_t i, Result<Buffer> r);
  Histogram* RouteHistogram(FragmentKind kind) const;
  // Installs a completed backend fetch of `target` at `vlba` in the read
  // cache, minus the pieces a newer write or trim has superseded.
  void CacheFetched(uint64_t vlba, ObjTarget target, const Buffer& data);
  void ArmBatchTimer();
  void ReplayCacheTail(std::function<void(Status)> done);
  void PollDrain(std::function<void(Status)> done);

  ClientHost* host_;
  std::vector<ObjectStore*> stores_;  // one per backend shard
  LsvdConfig config_;

  // Declared before the components so it outlives them on destruction.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;

  uint64_t wc_base_ = 0;
  uint64_t rc_base_ = 0;
  std::unique_ptr<WriteCache> write_cache_;
  std::unique_ptr<ReadCache> read_cache_;
  std::unique_ptr<BackendStore> backend_;

  bool batch_timer_armed_ = false;
  // Writes and trims between admission and ack.
  Slab<Journaled, 256> journaled_;
  // Reads between their call and their last fragment.
  Slab<Reading, 256> reading_;

  // Host registrations: QoS admission (-1 = uncapped volume, admission
  // bypassed) and the host's attached-volume registry.
  int qos_id_ = -1;
  int attach_id_ = -1;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  Counter* c_writes_;
  Counter* c_write_bytes_;
  Counter* c_reads_;
  Counter* c_read_bytes_;
  Counter* c_flushes_;
  Counter* c_write_cache_hits_;
  Counter* c_read_cache_hits_;
  Counter* c_backend_reads_;
  Counter* c_zero_reads_;
  Counter* c_trims_;
  Counter* c_trim_bytes_;
  // Write lifecycle head: submit -> journal record on SSD (the client ack).
  Histogram* h_write_ack_us_;
  // Read latencies: end-to-end per client read, and per routed fragment.
  Histogram* h_read_e2e_us_;
  Histogram* h_read_write_cache_us_;
  Histogram* h_read_read_cache_us_;
  Histogram* h_read_backend_us_;
  Histogram* h_read_zero_us_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_LSVD_DISK_H_
