// Log-structured block store (paper §3.1 Figure 3, §3.5, §3.6).
//
// Collects client writes into batches; each sealed batch becomes an
// immutable, sequence-numbered data object. The in-memory object map routes
// reads; a per-object info table (total/live payload bytes) drives Greedy
// garbage collection with 70/75 % thresholds. Map checkpoints go to numbered
// checkpoint objects; recovery loads the newest checkpoint, replays the
// consecutive run of data objects past it, and deletes stranded objects
// beyond the first gap (the prefix rule, §3.3).
//
// Clones (§3.6) share a base image's object stream prefix: sequence numbers
// <= base_last_seq resolve to the base volume's names and are never cleaned
// or deleted. Snapshots pin a log position; deletions of objects older than
// a snapshot are deferred as (N0, Ngc) pairs until the snapshot is dropped.
#ifndef SRC_LSVD_BACKEND_STORE_H_
#define SRC_LSVD_BACKEND_STORE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/lsvd/client_host.h"
#include "src/lsvd/config.h"
#include "src/lsvd/extent_map.h"
#include "src/lsvd/gc_policy.h"
#include "src/lsvd/object_format.h"
#include "src/lsvd/paged_extent_map.h"
#include "src/lsvd/write_cache.h"
#include "src/objstore/object_store.h"
#include "src/objstore/retry.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace lsvd {

// View over the backend store's registry counters (see docs/METRICS.md,
// "backend.*"). Note: gc_bytes_copied is registered as
// "backend.gc.bytes_moved".
struct BackendStoreStats {
  uint64_t client_bytes = 0;      // payload bytes handed to AddWrite
  uint64_t coalesced_bytes = 0;   // dropped by within-batch overwrite merging
  uint64_t objects_put = 0;
  uint64_t object_bytes = 0;      // headers + payload PUT to the store
  uint64_t payload_bytes = 0;     // payload only
  uint64_t gc_objects_cleaned = 0;
  uint64_t gc_bytes_copied = 0;
  uint64_t gc_cache_hits = 0;     // GC reads served from the local cache
  uint64_t objects_deleted = 0;
  uint64_t checkpoints = 0;
  uint64_t deferred_deletes = 0;
  uint64_t put_failures = 0;      // PUTs that exhausted their retry budget
  uint64_t retries = 0;           // backend op attempts after the first
  uint64_t timeouts = 0;          // attempts abandoned by the op timeout
  uint64_t gc_aborted_corrupt = 0;  // GC rounds aborted on a corrupt victim
};

class BackendStore {
 public:
  BackendStore(ClientHost* host, ObjectStore* store, WriteCache* cache,
               const LsvdConfig& config, MetricsRegistry* metrics = nullptr,
               const std::string& prefix = "backend");
  // Sharded backend (DESIGN.md §9): data object `seq` lives on
  // stores[ShardForSeq(seq, stores.size())]; checkpoints live on stores[0].
  // The stripe width is fixed for the volume's lifetime.
  BackendStore(ClientHost* host, std::vector<ObjectStore*> stores,
               WriteCache* cache, const LsvdConfig& config,
               MetricsRegistry* metrics = nullptr,
               const std::string& prefix = "backend");
  ~BackendStore();

  BackendStore(const BackendStore&) = delete;
  BackendStore& operator=(const BackendStore&) = delete;

  // Fires whenever the highest contiguously-applied object seq advances;
  // the owner uses it to release write-cache records.
  std::function<void(uint64_t)> on_synced;

  // Adds one client write to the open batch; returns the batch's object
  // sequence number (recorded in the journal for crash replay). Seals the
  // batch if it reached the configured size.
  uint64_t AddWrite(uint64_t vlba, Buffer data);

  // Adds one client TRIM to the object stream; returns the batch's object
  // sequence number (recorded in the journal like a write's). Any open client
  // batch holding writes is sealed first, so every write accepted before the
  // trim carries a smaller sequence number and the in-order apply can never
  // resurrect pre-trim data. Within a batch, trim entries always precede
  // write entries (a write arriving later may join the trim's batch; a later
  // trim re-seals). The trim becomes a zero-payload trim extent in the
  // object header whose apply punches the object map, feeding displaced
  // bytes to GC accounting.
  uint64_t AddTrim(uint64_t vlba, uint64_t len);

  // Seals the open batch if it has exceeded the configured age (called from
  // the owner's periodic tick) or unconditionally (drain paths).
  void SealIfAged(Nanos max_age);
  void Seal();
  void SealGcBatch();

  const PagedExtentMap<ObjTarget>& object_map() const { return object_map_; }

  // Fetches `len` bytes at `target` (an object-map lookup result).
  void Fetch(ObjTarget target, uint64_t len,
             std::function<void(Result<Buffer>)> done);

  // --- garbage collection (§3.5) ---
  double Utilization() const;
  // Utilization of one shard's slice of the object stream; victims are
  // selected per shard against the watermarks (DESIGN.md §9).
  double ShardUtilization(size_t shard) const;
  uint64_t live_bytes() const;
  uint64_t total_bytes() const;

  // --- sharding ---
  size_t shard_count() const { return shards_.size(); }
  size_t ShardOf(uint64_t seq) const {
    return ShardForSeq(seq, shards_.size());
  }
  // Highest contiguous seq per shard implied by the applied prefix.
  std::vector<uint64_t> consistency_vector() const {
    return ConsistencyVector(applied_seq_, shards_.size());
  }
  bool shard_degraded(size_t shard) const { return shards_[shard].degraded; }

  // --- snapshots (§3.6) ---
  // Pins the current applied log position; durability comes from the
  // checkpoint written immediately after. Returns the snapshot's object seq.
  void CreateSnapshot(std::function<void(Result<uint64_t>)> done);
  void DeleteSnapshot(uint64_t seq, std::function<void(Status)> done);
  const std::set<uint64_t>& snapshots() const { return snapshots_; }
  const std::vector<DeferredDelete>& deferred_deletes() const {
    return deferred_deletes_;
  }

  // --- checkpoint / recovery ---
  // `done` fires once a checkpoint that lists the state at this call is
  // durable: a call made while a checkpoint is in flight waits for it and
  // then for a fresh one.
  void WriteCheckpoint(std::function<void(Status)> done);
  // Rebuilds all state from the object store; safe on a brand-new volume
  // (results in an empty image).
  void Recover(std::function<void(Status)> done);

  uint64_t applied_seq() const { return applied_seq_; }
  uint64_t next_seq() const { return next_seq_; }
  uint64_t last_checkpoint_seq() const { return last_checkpoint_seq_; }
  // True while the store has given up on any backend shard (a PUT exhausted
  // its retry budget): that shard's sealed batches are parked in the queue —
  // the write cache keeps their data, so correctness is preserved — and only
  // a periodic probe PUT tests whether the shard came back. Healthy shards
  // keep absorbing their own stripe of the stream.
  bool degraded() const;
  // True once any PUT was rejected with kFenced: this attachment's epoch is
  // stale (another host took over the volume, see
  // src/objstore/volume_directory.h). Fencing is terminal — parked batches
  // stay parked and no degraded-mode probing runs, so a stale host winds
  // down instead of retrying forever. The write cache still holds the
  // unshipped tail; the new attachment recovers the consistent prefix.
  bool fenced() const { return fenced_; }
  // True when no batch is open and no PUT is outstanding.
  bool idle() const;
  BackendStoreStats stats() const;
  size_t object_count() const { return object_info_.size(); }
  // Persisted GC generations (from data-object headers), keyed by seq.
  // Exposed so tests can check a recovered store scores victims identically
  // to the pre-crash store (generations survive recovery; seal times do not).
  const std::map<uint64_t, uint32_t>& object_generations() const {
    return object_generation_;
  }
  std::optional<ObjectInfo> object_info_for(uint64_t seq) const {
    auto it = object_info_.find(seq);
    if (it == object_info_.end()) {
      return std::nullopt;
    }
    return it->second;
  }
  // The exact candidate the GC victim scan would score for this object.
  // For generation-tagged GC output every field is derived from persisted
  // state (sequence-clock age, never the seal clock), which is what makes
  // victim ranking crash-stable — the property the recovery regression
  // tests pin down through this accessor.
  std::optional<GcCandidate> gc_candidate_for(uint64_t seq) const;

  void Kill() { *alive_ = false; }

  // Object name for a sequence number, honoring the clone base prefix.
  std::string NameForSeq(uint64_t seq) const;

 private:
  struct BatchEntry {
    uint64_t vlba;
    Buffer data;
    // Set for GC-copied data; see ObjectExtent::conditional().
    std::optional<ObjTarget> expected;
    // TRIM tombstone entry: carries no payload (data stays empty); the
    // trimmed length lives in trim_len. See AddTrim for the ordering rules.
    bool is_trim = false;
    uint64_t trim_len = 0;
  };
  struct OpenBatch {
    uint64_t seq = 0;
    Nanos opened_at = -1;
    uint64_t raw_bytes = 0;
    // GC generation of the batch's data (docs/GC.md): 0 for client writes,
    // 1 + max victim generation for GC copies.
    uint32_t generation = 0;
    std::vector<BatchEntry> entries;
  };
  struct SealedObject {
    uint64_t seq = 0;
    DataObjectHeader header;
    Buffer object;          // encoded header + payload
    uint64_t payload_bytes = 0;
    bool from_gc = false;
    std::vector<uint64_t> cleaned_seqs;  // old objects to delete once applied
    Nanos sealed_at = -1;   // for the seal -> commit lifecycle histogram
  };

  // One backend shard: an independent object store (`io.store`, retried
  // under config.retry with retries counted here and in the aggregate) with
  // its own PUT window, degraded flag and (when sharded) metric counters.
  struct Shard {
    RetryContext io;
    int outstanding = 0;
    bool degraded = false;
    Counter* c_objects_put = nullptr;
    Counter* c_object_bytes = nullptr;
    Counter* c_put_failures = nullptr;
    Counter* c_retries = nullptr;
  };

  // Recovery pipeline state; owned only by the in-flight continuation
  // lambdas (never by a lambda reachable from itself, so no retain cycle).
  struct RecoverState {
    std::vector<std::string> ckpts;
    std::set<uint64_t> seqs;
    // Which checkpoint (ckpts back-index) the current attempt loaded, if
    // any; the sharded post-replay loss check falls back to the next older
    // one when a map reference turns out to be missing from its shard.
    size_t ckpt_back_index = 0;
    bool from_checkpoint = false;
    std::function<void(Status)> done;
  };

  const RetryContext& IoFor(uint64_t seq) const {
    return shards_[ShardOf(seq)].io;
  }
  ObjectStore* StoreFor(uint64_t seq) const { return IoFor(seq).store; }
  // Checkpoints and other volume metadata always live on shard 0.
  ObjectStore* meta_store() const { return shards_[0].io.store; }

  // Lazily opens the client batch (assigning the next sequence number) and
  // returns its seq.
  uint64_t OpenBatchSeq();
  // Seal-on-deadline (LsvdConfig::batch_seal_deadline): per-batch timer armed
  // at open that seals the client batch if it is still open when the
  // deadline passes.
  void ArmSealDeadline();
  // Seals the open client batch, if it holds any entries.
  void SealClientBatch();
  void SealBatch(OpenBatch batch, bool from_gc,
                 std::vector<uint64_t> cleaned_seqs);
  // Seals the open GC batch inline (size threshold reached mid-round).
  void SealGcBatchNow();
  void PumpPuts();
  void OnPutComplete(uint64_t seq, Status s);
  void ParkFailedPut(uint64_t seq);
  // PUT through the shared retry driver (src/objstore/retry.h); a fenced
  // PUT marks the store fenced(). GETs and DELETEs call the driver directly
  // (a DELETE is fire-and-forget: a final failure only leaves garbage).
  void PutWithRetry(size_t shard, std::string name, Buffer object,
                    std::function<void(Status)> done);
  void ScheduleDegradedProbe(size_t shard);
  void ApplyReady();
  void ApplyObjectExtents(uint64_t seq, const DataObjectHeader& header,
                          uint64_t payload_bytes);
  void AccountDisplaced(const ExtentMap<ObjTarget>::ExtentVec& displaced);
  void SetObjectInfo(uint64_t seq, ObjectInfo info);
  void EraseObjectInfo(std::map<uint64_t, ObjectInfo>::iterator it);
  // Recomputes shard_bytes_ after object_info_ is replaced wholesale.
  void RecountObjectInfo();
  void MaybeCheckpoint();
  void StartCheckpoint();
  void MaybeGc();
  void CleanOneObject(uint64_t victim);
  void FinishGcRound();
  void ProcessDelete(uint64_t seq);
  void ReexamineDeferred();
  std::optional<uint64_t> PickGcVictim(size_t shard) const;
  // Least-utilized victim across shards whose utilization is below
  // `watermark`; shards are tried in ascending-utilization order.
  std::optional<uint64_t> PickShardedVictim(double watermark) const;
  // Recovery pipeline (§3.3, sharded per DESIGN.md §9).
  // Empties everything a checkpoint load or replay rebuilds: the state of a
  // volume with no objects.
  void ResetRecoveredState();
  void RecoverTryCheckpoint(std::shared_ptr<RecoverState> st,
                            size_t back_index);
  void RecoverScanAndReplay(std::shared_ptr<RecoverState> st);
  void RecoverReplayNext(std::shared_ptr<RecoverState> st);
  void RecoverFinish(std::shared_ptr<RecoverState> st);

  ClientHost* host_;
  std::vector<Shard> shards_;
  WriteCache* cache_;
  LsvdConfig config_;

  // The object map: 256 MiB leaf pages (PagedExtentMap's default span),
  // packed down when their live bytes exceed config.map_resident_bytes
  // (0 = never pack; DESIGN.md §13).
  PagedExtentMap<ObjTarget> object_map_;
  // Applied data objects. Change entries only through SetObjectInfo,
  // EraseObjectInfo, AccountDisplaced or RecountObjectInfo, which keep
  // shard_bytes_ in step.
  std::map<uint64_t, ObjectInfo> object_info_;
  // Sums of object_info_'s live and total bytes per shard, so utilization
  // (read on every GC pick) costs O(shards) rather than a walk.
  struct ByteSums {
    uint64_t live = 0;
    uint64_t total = 0;
  };
  std::vector<ByteSums> shard_bytes_;
  // Per-object GC generation, feeding the policy's pedigree floor.
  // Persisted (data-object headers, checkpoint generation table), so victim
  // scoring — which also ages candidates on the recoverable object-sequence
  // clock, never a wall clock — is identical before and after recovery.
  std::map<uint64_t, uint32_t> object_generation_;
  std::optional<OpenBatch> batch_;              // client-write batch
  std::optional<OpenBatch> gc_batch_;           // GC-copy batch
  std::vector<uint64_t> gc_batch_cleaned_;      // victims of the open GC batch
  // Running generation of the open GC batch: 1 + max generation among the
  // victims whose copies it holds.
  uint32_t gc_batch_generation_ = 0;

  std::deque<SealedObject> put_queue_;
  std::map<uint64_t, SealedObject> in_flight_;  // seq -> awaiting ack
  std::map<uint64_t, SealedObject> completed_;  // acked, awaiting in-order apply
  int outstanding_puts_ = 0;  // across all shards
  int put_slot_id_ = -1;  // registration with the host's PutScheduler
  Rng retry_rng_;

  uint64_t next_seq_ = 1;
  uint64_t applied_seq_ = 0;
  uint64_t last_checkpoint_seq_ = 0;
  uint64_t objects_since_checkpoint_ = 0;
  uint64_t checkpoint_counter_ = 0;  // monotonic checkpoint-object id
  bool checkpoint_in_flight_ = false;
  // WriteCheckpoint callers for the next checkpoint.
  std::vector<std::function<void(Status)>> checkpoint_waiters_;

  // Victim-selection policy (docs/GC.md) from config.gc_policy; every shard
  // is cleaned under it.
  std::unique_ptr<GcPolicy> gc_policy_;

  bool gc_running_ = false;
  // Victims whose live data sits in the open (unsealed) GC batch: excluded
  // from re-selection; removed when their deletion is processed.
  std::set<uint64_t> gc_pending_victims_;
  std::set<uint64_t> snapshots_;
  std::vector<DeferredDelete> deferred_deletes_;
  bool fenced_ = false;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_client_bytes_;
  Counter* c_coalesced_bytes_;
  Counter* c_objects_put_;
  Counter* c_object_bytes_;
  Counter* c_payload_bytes_;
  Counter* c_gc_objects_cleaned_;
  Counter* c_gc_bytes_moved_;
  Counter* c_gc_cache_hits_;
  Counter* c_objects_deleted_;
  Counter* c_checkpoints_;
  Counter* c_deferred_deletes_;
  Counter* c_put_failures_;
  Counter* c_retries_;
  Counter* c_timeouts_;
  Counter* c_gc_aborted_corrupt_;
  Counter* c_trim_extents_;
  Counter* c_trim_punched_bytes_;
  Counter* c_gc_cold_objects_;  // GC-output objects
  Counter* c_deadline_seals_;  // batches sealed by batch_seal_deadline
  Gauge* g_cost_benefit_score_;  // score of the last GC victim picked
  // Write-lifecycle stages downstream of the journal ack: batch open ->
  // seal, and seal -> applied to the object map (commit).
  Histogram* h_open_to_seal_us_;
  Histogram* h_seal_to_commit_us_;
  // Last member: destroyed first, so gauge callbacks never outlive the state
  // they read (the shared host registry outlives detached volumes).
  CallbackGuard callback_guard_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_BACKEND_STORE_H_
