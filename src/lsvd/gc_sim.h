// Trace-driven simulator of LSVD's write batching and garbage collection
// (paper §4.6, Table 5).
//
// Runs at extent granularity with no data and no I/O timing, so week-long
// block traces simulate in seconds. Reports the three measures of Table 5:
//   - write amplification (backend bytes / client bytes),
//   - merge ratio (bytes eliminated by within-batch coalescing),
//   - final extent-map size (memory usage / fragmentation).
// Ablations: `merge` toggles within-batch coalescing, `defrag` toggles the
// modified collector that performs extra reads to plug holes of <= 8 KiB in
// copied data, merging map entries (the w01 result in the paper).
#ifndef SRC_LSVD_GC_SIM_H_
#define SRC_LSVD_GC_SIM_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/lsvd/extent_map.h"
#include "src/lsvd/gc_policy.h"
#include "src/lsvd/object_format.h"
#include "src/util/metrics.h"
#include "src/util/units.h"

namespace lsvd {

struct GcSimConfig {
  uint64_t batch_bytes = 32 * kMiB;  // paper's simulations use 32 MiB
  double gc_low_watermark = 0.70;
  double gc_high_watermark = 0.75;
  bool merge = true;    // within-batch write coalescing
  bool defrag = false;  // plug holes of <= 8 KiB during GC copies
  // Backend shards (DESIGN.md §9): objects stripe round-robin by seq and
  // each shard is collected independently against the watermarks. 1 = the
  // classic single-stream collector (bit-identical behavior).
  int shards = 1;
  // Victim-selection policy (docs/GC.md; DESIGN.md §11). `greedy` is
  // bit-identical to the historical least-utilized scan. Age is measured in
  // client batches written since the candidate was sealed.
  GcPolicyKind policy = GcPolicyKind::kGreedy;
  // Pack GC copies into shared cold output objects that fill across cleaning
  // rounds (instead of one copy object per victim), segregating twice-
  // written cold data from fresh client batches (DESIGN.md §11).
  bool segregate_cold = false;
  // Zoned/SMR-style backend: non-zero groups objects into sequential-only
  // zones of this size (use a multiple of batch_bytes). The cleaner picks a
  // whole closed zone, relocates its live data into the cold stream, then
  // resets the zone. Utilization is live bytes over zone capacity, so dead
  // space stranded in a zone counts against it. Requires shards == 1;
  // implies cold segregation for relocated data.
  uint64_t zone_bytes = 0;
};

struct GcSimResult {
  uint64_t client_bytes = 0;   // total bytes written by the trace
  uint64_t backend_bytes = 0;  // bytes written to backend (incl. GC copies)
  uint64_t merged_bytes = 0;   // bytes eliminated by coalescing
  uint64_t trimmed_bytes = 0;  // bytes discarded via Trim
  uint64_t gc_copied_bytes = 0;
  uint64_t objects_created = 0;
  uint64_t objects_deleted = 0;
  uint64_t zones_reset = 0;    // zoned mode: zones cleaned and reclaimed
  size_t extent_count = 0;     // final object-map size

  // Write amplification: backend bytes over the client bytes that actually
  // needed to reach the backend (i.e. net of within-batch coalescing, which
  // is a *reduction* accounted separately by merge_ratio; this matches how
  // Table 5's merge-mode WAF stays above 1 even at high merge ratios).
  double waf() const {
    const uint64_t net = client_bytes - merged_bytes;
    return net == 0 ? 0.0
                    : static_cast<double>(backend_bytes) /
                          static_cast<double>(net);
  }
  double merge_ratio() const {
    return client_bytes == 0
               ? 0.0
               : static_cast<double>(merged_bytes) /
                     static_cast<double>(client_bytes);
  }
};

class GcSimulator {
 public:
  // If `metrics` is given, live progress ("gcsim.*" callback gauges over the
  // running totals) registers there; the trace loop can snapshot mid-run.
  explicit GcSimulator(GcSimConfig config, MetricsRegistry* metrics = nullptr)
      : config_(config),
        shard_live_(config.shards > 1 ? config.shards : 1, 0),
        shard_total_(config.shards > 1 ? config.shards : 1, 0),
        policy_(GcPolicy::Create(config.policy)) {
    assert(config.zone_bytes == 0 || config.shards <= 1);
    if (metrics != nullptr) {
      metrics->RegisterCallback("gcsim.client_bytes", [this] {
        return static_cast<double>(result_.client_bytes);
      });
      metrics->RegisterCallback("gcsim.backend_bytes", [this] {
        return static_cast<double>(result_.backend_bytes);
      });
      metrics->RegisterCallback("gcsim.merged_bytes", [this] {
        return static_cast<double>(result_.merged_bytes);
      });
      metrics->RegisterCallback("gcsim.gc_copied_bytes", [this] {
        return static_cast<double>(result_.gc_copied_bytes);
      });
      metrics->RegisterCallback("gcsim.objects_created", [this] {
        return static_cast<double>(result_.objects_created);
      });
      metrics->RegisterCallback("gcsim.objects_deleted", [this] {
        return static_cast<double>(result_.objects_deleted);
      });
      metrics->RegisterCallback("gcsim.waf", [this] { return result_.waf(); });
      metrics->RegisterCallback("gcsim.utilization",
                                [this] { return Utilization(); });
      metrics->RegisterCallback("gcsim.extent_count", [this] {
        return static_cast<double>(map_.extent_count());
      });
    }
  }

  // One client write of `len` bytes at `vlba` (byte units, any alignment).
  void Write(uint64_t vlba, uint64_t len);

  // One client TRIM/discard of `len` bytes at `vlba`. Mirrors
  // BackendStore::AddTrim's seal-first protocol: the open batch seals, then
  // the trimmed range is punched out of the map, its displaced bytes dying
  // in their objects (which lowers utilization and can trigger cleaning).
  void Trim(uint64_t vlba, uint64_t len);

  // Seals the open batch and runs a final GC pass if needed.
  GcSimResult Finish();

  const ExtentMap<ObjTarget>& object_map() const { return map_; }

 private:
  // GC pieces to relocate: live creation extents of a victim, plus optional
  // defrag filler copied from other objects.
  struct Piece {
    uint64_t vlba;
    uint64_t len;
    bool plug;  // defrag filler copied from another object
  };
  // Per-object bookkeeping beyond ObjectInfo's byte counts.
  struct ObjMeta {
    uint64_t seal_clock = 0;  // result_.client_bytes when the object sealed
    uint32_t generation = 0;  // 0 = client data, else 1 + max victim gen
    uint64_t zone = 0;        // zoned mode: owning zone id (0 = none)
  };
  // Zoned mode: a sequential-only zone holding whole objects. Cleaned as a
  // unit (relocate live data, then reset).
  struct Zone {
    uint64_t total = 0;  // payload bytes appended
    uint64_t live = 0;
    uint64_t youngest_seal = 0;  // newest member object's seal clock
    bool cold = false;
    std::vector<uint64_t> objects;
  };

  void SealBatch();
  void MaybeGc();
  void CleanOne(uint64_t victim);
  std::vector<Piece> CollectLivePieces(uint64_t victim) const;
  // Appends relocated pieces to the shared cold output object, opening and
  // sealing cold objects at batch_bytes granularity.
  void AppendCold(const std::vector<Piece>& pieces, uint32_t generation);
  // Removes a cleaned object from all accounting (info, creation, meta,
  // sums, zone).
  void EraseObject(uint64_t victim);
  void Displace(const ExtentMap<ObjTarget>::ExtentVec& displaced,
                uint64_t self_seq);
  double Utilization() const;
  // Shard routing and per-shard occupancy (no-ops folded into the global
  // sums when config_.shards <= 1).
  size_t ShardOf(uint64_t seq) const {
    return ShardForSeq(seq, static_cast<size_t>(
                                config_.shards > 1 ? config_.shards : 1));
  }
  double ShardUtilization(size_t shard) const;
  // Policy-scored best victim, optionally restricted to one shard
  // (shard == SIZE_MAX means any). Only objects with utilization strictly
  // below `ceiling` are eligible; returns 0 if none qualifies.
  uint64_t PickVictim(size_t shard, double ceiling) const;
  double AgeOf(const ObjMeta& meta) const;

  // --- zoned mode ---
  // Places a newly sealed object into the open hot/cold zone (opening a new
  // zone as needed) and closes the zone once it reaches zone_bytes.
  void AssignZone(uint64_t seq, uint64_t total, uint64_t live, bool cold);
  double ZonedUtilization() const;
  uint64_t PickZoneVictim(double ceiling) const;
  // Relocates every live object in the zone into the cold stream, then
  // resets (erases) the zone.
  void CleanZone(uint64_t zid);

  GcSimConfig config_;
  ExtentMap<ObjTarget> map_;
  std::map<uint64_t, ObjectInfo> info_;
  std::map<uint64_t, ObjMeta> meta_;
  // Per-object at-creation extents, the GC's candidate examination input.
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> creation_;
  // Open batch: coalescing map (merge mode) or raw arrival list.
  ExtentMap<ObjTarget> batch_;
  std::vector<std::pair<uint64_t, uint64_t>> batch_list_;
  uint64_t batch_raw_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t live_sum_ = 0;
  uint64_t total_sum_ = 0;
  std::vector<uint64_t> shard_live_;
  std::vector<uint64_t> shard_total_;
  std::unique_ptr<GcPolicy> policy_;  // every shard's victim selection
  uint64_t self_dead_ = 0;  // bytes overwritten within the object being applied
  // Cold output object under construction (segregate_cold / zoned mode).
  uint64_t cold_seq_ = 0;    // 0 = no cold object open
  uint64_t cold_bytes_ = 0;  // payload accumulated in the open cold object
  uint64_t cold_offset_ = 0;
  // Zoned mode state.
  std::map<uint64_t, Zone> zones_;
  uint64_t next_zone_ = 1;
  uint64_t open_hot_zone_ = 0;   // 0 = none open
  uint64_t open_cold_zone_ = 0;
  GcSimResult result_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_GC_SIM_H_
