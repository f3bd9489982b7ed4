// Log-structured write-back cache (paper §3.1, Figure 2).
//
// Incoming writes are appended to a circular on-SSD log as journal records
// (4 KiB header + data); the in-memory extent map (vLBA -> device offset) is
// updated when the SSD acknowledges the record. Because the log is written
// sequentially, small random client writes become large sequential device
// writes, and a commit barrier is a single device flush — no metadata
// write-out (the mechanism behind the paper's §4.2.2 varmail result).
//
// Region layout:
//   [base, base+4K)            superblock
//   [.., +2 checkpoint slots)  alternating checkpoints of the live records
//   [log_base, base+size)      circular record log
//
// Eviction is FIFO and gated on backend progress: a record may only be
// released once every backend batch it contributed to has committed
// (ReleaseThrough), and once a durable checkpoint lists it. When the log
// fills, appends stall — this is the writeback-bound regime of the paper's
// Figures 9-11.
#ifndef SRC_LSVD_WRITE_CACHE_H_
#define SRC_LSVD_WRITE_CACHE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/lsvd/client_host.h"
#include "src/lsvd/config.h"
#include "src/lsvd/extent_map.h"
#include "src/lsvd/journal.h"
#include "src/util/codec.h"
#include "src/util/metrics.h"

namespace lsvd {

// View over the write cache's registry counters (see docs/METRICS.md,
// "lsvd.write_cache.*").
struct WriteCacheStats {
  uint64_t appends = 0;
  uint64_t appended_bytes = 0;
  uint64_t records = 0;
  uint64_t record_bytes = 0;  // headers + data
  uint64_t stalled_appends = 0;
  uint64_t checkpoints = 0;
  uint64_t evicted_records = 0;
};

class WriteCache {
 public:
  // A live (not yet evicted) record as RecordsAfterBatch lists it for
  // post-crash replay to the backend; checkpoints list the same fields.
  struct RecordMeta {
    uint64_t seq = 0;
    uint64_t offset = 0;     // device offset of the header block
    uint64_t footprint = 0;  // size() plus any wrap gap preceding it
    uint64_t max_batch_seq = 0;
    bool is_trim = false;    // trim tombstone record (extents, no data)
    JournalExtentList extents;
    // Header + payload bytes in the log.
    uint64_t size() const { return JournalRecordSize(is_trim, extents); }
  };

  // `metrics`/`prefix` name this cache's counters in a shared registry; a
  // null registry gives the cache a private one (standalone tests, the
  // recovery probe). A non-zero `volume_limit` (virtual-disk size in bytes)
  // makes log replay reject journal extents past the end of the volume.
  WriteCache(ClientHost* host, uint64_t base, uint64_t size,
             const StageCosts& costs, MetricsRegistry* metrics = nullptr,
             const std::string& prefix = "lsvd.write_cache",
             uint64_t volume_limit = 0);

  // Initializes an empty cache (superblock + blank checkpoint) on SSD.
  void Format(std::function<void(Status)> done);

  // Appends one client write. `batch_seq` is the backend batch the write was
  // assigned to. `done` fires when the containing record is on the SSD —
  // this is the client's write acknowledgement point.
  void Append(uint64_t vlba, Buffer data, uint64_t batch_seq,
              std::function<void(Status)> done);

  // Journals a TRIM of [vlba, vlba+len) as a tombstone record (no payload).
  // When the record lands, the cache map entries for the range are punched
  // out and the range is tracked in trim_map() until backend batch
  // `batch_seq` commits, so reads in the window return zeros instead of
  // stale read-cache/backend data. `done` fires at record durability — the
  // client's discard acknowledgement point.
  void AppendTrim(uint64_t vlba, uint64_t len, uint64_t batch_seq,
                  std::function<void(Status)> done);

  // --- adaptive batching / group commit (DESIGN.md §12) ---
  // `plug_deadline` bounds how long a lone small write may sit "plugged"
  // waiting for company before its journal record is force-started. Set
  // (> 0), it also turns on group commit: concurrent Barrier() calls share
  // SSD flushes, and a small write skips the plug wait entirely while the
  // record pipeline is nearly idle. 0, the default, waits indefinitely and
  // flushes once per barrier.
  void SetAdaptiveBatching(Nanos plug_deadline) {
    plug_deadline_ = plug_deadline;
  }

  // Commit barrier: flush the SSD (§3.2).
  void Barrier(std::function<void(Status)> done);

  // Cache-map lookup structures for the read path.
  const ExtentMap<SsdTarget>& map() const { return map_; }
  // Trimmed ranges whose object-map punch has not yet committed to the
  // backend (target.seq is the punching batch). The read path must return
  // zeros for these instead of consulting the read cache or backend.
  const ExtentMap<ObjTarget>& trim_map() const { return trim_map_; }
  // Reads cached data by device offset (target of a map lookup). `done`
  // goes to the SSD as it is and runs even after Kill: each caller gates it
  // on its own liveness (LsvdDisk's reads and replay, the backend's GC cache
  // read), and LsvdDisk::Kill kills all its components together.
  void ReadData(uint64_t plba, uint64_t len, BlockDevice::ReadCallback done);

  // Marks records whose writes are all contained in backend objects with
  // seq <= `synced_batch_seq` as *releasable*. Eviction itself is lazy and
  // FIFO: releasable records are only dropped when the log needs space for
  // new appends, so cached data stays readable as long as possible (§3.1 —
  // the log's natural FIFO eviction).
  void ReleaseThrough(uint64_t synced_batch_seq);

  // True when every record's data is contained in committed backend objects
  // (the cache and backend are synchronized; safe to migrate).
  bool fully_synced() const {
    return records_.empty() ||
           records_.back().max_batch_seq <= release_watermark_;
  }

  // Checkpoints, then evicts every releasable record (after crash recovery,
  // so that no replayed record shadows newer backend data). Normal
  // operation relies on the lazy FIFO eviction instead.
  void EvictReleasable(std::function<void(Status)> done);

  // Charges the prototype's kernel/user SSD pass-through read (§4.7): the
  // userspace daemon reads `bytes` of outgoing batch data back from the log.
  void ChargeReadback(uint64_t bytes, std::function<void()> done);

  // Writes a checkpoint of the applied live records (alternating slots) and
  // flushes; a call made while one is in flight gets the next one. The
  // cache also checkpoints on its own (policy and invariants: DESIGN.md §6).
  void WriteCheckpoint(std::function<void(Status)> done);

  // Rebuilds state from SSD: superblock, newest valid checkpoint, then log
  // replay up to the first invalid/out-of-sequence record. Of the two
  // checkpoint slots only the first blocks and the one blob loaded are read.
  void Recover(std::function<void(Status)> done);
  // Device offset of checkpoint slot `slot` (0 or 1). Checkpoint generation
  // g is written to slot g % 2; Format writes generation 1.
  uint64_t checkpoint_slot_offset(int slot) const {
    return base_ + kBlockSize + static_cast<uint64_t>(slot) * slot_size_;
  }

  // Records whose data may be missing from the backend (max_batch_seq >
  // synced_seq), in log order; used for the rewind-and-replay step (§3.3).
  std::vector<RecordMeta> RecordsAfterBatch(uint64_t synced_seq) const;
  // Reads a record's payload directly from its log position (valid even if
  // the map has since been overwritten) and returns per-extent buffers.
  // Like ReadData, `done` runs even after Kill.
  void ReadRecordPayload(const RecordMeta& rec,
                         BlockDevice::ReadCallback done);

  // Invalidates all pending callbacks but those of ReadData and
  // ReadRecordPayload (crash simulation); the object must still be kept
  // alive until the simulator drains.
  void Kill() { *alive_ = false; }

  uint64_t free_bytes() const { return log_size_ - used_; }
  uint64_t used_bytes() const { return used_; }
  WriteCacheStats stats() const;
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct Pending {
    uint64_t vlba;
    Buffer data;
    uint64_t batch_seq;
    std::function<void(Status)> done;
    bool is_trim = false;
    uint64_t trim_len = 0;  // trims carry no data, so length lives here
  };

  // Where the writer puts a record of `size` bytes at `head`: there if it
  // fits before the region end, else at log_base_, with the skipped tail
  // counted in its footprint. Replay checks the same rule.
  struct Placement {
    uint64_t offset;
    uint64_t footprint;
  };
  Placement Place(uint64_t head, uint64_t size) const;

  void MaybeStartRecord();
  bool StartOneRecord();
  void ApplyCompletedRecords();
  // A live record. Records and their extents come and go in the same FIFO
  // order, so the extents of every live record share one deque,
  // record_extents_, and a record owns no heap block: its extents are the
  // extent_count entries from absolute index first_extent on.
  struct LiveRecord {
    uint64_t seq = 0;
    uint64_t offset = 0;     // device offset of the header block
    uint64_t footprint = 0;  // size plus any wrap gap preceding it
    uint64_t size = 0;       // header + payload bytes in the log
    uint64_t max_batch_seq = 0;
    // Append time, for the append-to-releasable lifecycle histogram; -1
    // for recovered records (whose true append time is unknown).
    Nanos appended_at = -1;
    uint64_t first_extent = 0;
    uint32_t extent_count = 0;
    bool is_trim = false;    // trim tombstone record (extents, no data)
  };
  auto ExtentsOf(const LiveRecord& rec) const {
    const auto first = record_extents_.begin() +
                       static_cast<ptrdiff_t>(rec.first_extent - extents_base_);
    return std::ranges::subrange(first, first + rec.extent_count);
  }
  // Appends a record, whose first_extent this sets, and its extents.
  void PushRecord(LiveRecord rec, std::span<const JournalExtent> extents);

  // The record lifecycle, shared by the writer, checkpoint load and replay:
  // ApplyRecord edits the cache map and trim tombstones for a record, and
  // EvictFront drops the front record's map entries and footprint.
  void ApplyRecord(const LiveRecord& rec);
  void EvictFront();
  // Adaptive batching (SetAdaptiveBatching): plug-deadline timer and the
  // coalesced barrier-flush pump.
  void ArmPlugTimer();
  void PlugTimerFire();
  void StartBarrierFlush();
  // Evicts releasable records (FIFO) until at least `needed` bytes are free
  // or nothing more can be evicted.
  void EvictForSpace(uint64_t needed);
  // Starts a checkpoint every kCheckpointRecords applied records, and when
  // the front record is the first one the durable checkpoint does not list.
  void MaybeCheckpoint();
  void StartCheckpoint();
  // Encodes the checkpoint blob. Each applied record's entry is encoded
  // once, into ckpt_entries_, and every later checkpoint copies it.
  Buffer EncodeCheckpointBlob();
  // Decodes a whole blob and, only if it is valid, replaces the cache state
  // with its records, folded through ApplyRecord.
  Status LoadCheckpointBlob(const Buffer& blob, uint64_t* ckpt_gen);
  // Recovery after the superblock: each slot's first block gives its
  // generation and blob length; slots are tried newest first, reading only
  // the blob, until one decodes. `slots` holds (offset, blob length) pairs.
  void RecoverFromSlot(std::vector<std::pair<uint64_t, uint64_t>> slots,
                       size_t i, std::function<void(Status)> done);

  // Log replay (see Recover), probing for the next record at `pos`.
  void ReplayStep(uint64_t pos, std::function<void(Status)> done);
  void ReplayMiss(uint64_t pos, std::function<void(Status)> done);
  void ReplayAccept(JournalRecord rec, Placement at,
                    std::function<void(Status)> done);

  ClientHost* host_;
  SimSsd* ssd_;
  StageCosts costs_;
  // Dedicated journal-writer worker (the device-mapper kernel thread): the
  // per-record wakeup does not queue behind per-write submission work.
  ServerQueue record_cpu_;

  uint64_t base_;
  uint64_t size_;
  uint64_t slot_size_;
  uint64_t log_base_;
  uint64_t log_size_;
  uint64_t volume_limit_;

  ExtentMap<SsdTarget> map_;
  // Trim tombstones not yet committed to the backend; empty on volumes that
  // never trim. Rebuilt from the live records during recovery.
  ExtentMap<ObjTarget> trim_map_;
  std::deque<LiveRecord> records_;
  std::deque<JournalExtent> record_extents_;
  uint64_t extents_base_ = 0;  // absolute index of record_extents_.front()
  // Writes and trims not yet acknowledged, in arrival order: the first
  // `started_` belong to records in flight, the rest wait for a record.
  std::deque<Pending> writes_;
  size_t started_ = 0;
  size_t waiting() const { return writes_.size() - started_; }
  // Up to kRecordWindow journal records may be in flight on the SSD
  // concurrently (pipelining); map updates and acknowledgements are applied
  // strictly in sequence order so later records always win. Records in
  // flight are the consecutive seqs [next_apply_seq_, next_seq_), so each
  // has a slot of its own in a ring indexed by seq.
  static constexpr size_t kRecordWindow = 12;
  struct InFlightRecord {
    size_t writes = 0;  // its writes: the front of writes_ when it applies
    bool write_done = false;
    Status status;
    Buffer encoded;  // header + payload, until the journal worker takes it
  };
  std::array<InFlightRecord, kRecordWindow> in_flight_;
  size_t in_flight() const { return next_seq_ - next_apply_seq_; }
  uint64_t next_seq_ = 1;
  uint64_t next_apply_seq_ = 1;
  uint64_t release_watermark_ = 0;  // highest backend-synced batch seen
  uint64_t head_;           // absolute append offset
  uint64_t apply_head_;     // end of the newest applied record
  uint64_t used_ = 0;       // log bytes occupied (incl. wrap gaps)

  // Adaptive batching (all inert until SetAdaptiveBatching).
  Nanos plug_deadline_ = 0;  // 0 = off: plugged writes wait indefinitely
  bool plug_timer_armed_ = false;
  bool flush_in_flight_ = false;    // coalescing path only
  std::vector<std::function<void(Status)>> pending_barriers_;

  // Checkpoint entries of records_[0, ckpt_encoded_) from byte
  // ckpt_entries_front_ on, in record order; EvictFront drops the front
  // record's entry and a blob load drops them all.
  Encoder ckpt_entries_;
  size_t ckpt_entries_front_ = 0;
  size_t ckpt_encoded_ = 0;
  uint64_t ckpt_gen_ = 0;   // checkpoint generation (picks newest slot)
  // Next seq of the newest durable checkpoint: it lists the records below.
  uint64_t ckpt_next_seq_ = 1;
  bool ckpt_in_flight_ = false;
  // WriteCheckpoint callers for the next checkpoint.
  std::vector<std::function<void(Status)>> ckpt_waiters_;
  uint64_t readback_head_ = 0;  // cursor for pass-through readback charging
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Metrics. `owned_metrics_` backs standalone instances; all counters live
  // in *metrics_ under `prefix`.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_appends_;
  Counter* c_appended_bytes_;
  Counter* c_records_;
  Counter* c_record_bytes_;
  Counter* c_stalled_appends_;
  Counter* c_checkpoints_;
  Counter* c_evicted_records_;
  Counter* c_deadline_seals_;
  Counter* c_coalesced_flushes_;
  Counter* c_trim_records_;
  // Journal append -> record releasable (backend batches committed): the
  // tail of the write lifecycle trace.
  Histogram* h_append_to_free_us_;
  // Records at the front of records_ whose append_to_free latency has been
  // recorded (timed records form a prefix, like eviction).
  size_t release_timed_count_ = 0;
  // Last member: destroyed first, so gauge callbacks never outlive the state
  // they read (the shared host registry outlives detached volumes).
  CallbackGuard callback_guard_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_WRITE_CACHE_H_
