// LSVD volume configuration.
//
// Defaults follow the paper's prototype (§3.7, §4.1): 8-32 MiB backend
// batches, 70/75 % garbage-collection thresholds, a write cache taking ~20 %
// of the SSD allocation with the rest as read cache, and the prototype's
// "data passes through the SSD" kernel/user split (§4.7) as a switchable
// overhead model.
#ifndef SRC_LSVD_CONFIG_H_
#define SRC_LSVD_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/lsvd/gc_policy.h"
#include "src/objstore/retry.h"
#include "src/util/units.h"

namespace lsvd {

// Per-stage software overheads measured in the paper's Table 6. Charged
// against the client host's kernel / userspace CPU queues; the tbl06 bench
// echoes this decomposition against simulated end-to-end latency.
struct StageCosts {
  // Write path.
  Nanos write_map_update = 3 * kMicrosecond;       // k: map update
  Nanos write_submit = 9 * kMicrosecond;           // k: request handling
  Nanos record_context_switch = 65 * kMicrosecond; // k: wake journal worker
  Nanos batch_golang = 63 * kMicrosecond;          // u: per-batch daemon work
  Nanos return_to_kernel = 27 * kMicrosecond;      // u->k completion
  // Read path.
  Nanos read_map_lookup = 3 * kMicrosecond;        // k: map lookup
  Nanos read_hit = 12 * kMicrosecond;              // k: hit handling
  Nanos read_miss_kernel = 72 * kMicrosecond;      // k: switch + return paths
  Nanos read_miss_golang = 34 * kMicrosecond;      // u: daemon work
};

// Retry rules for backend object requests (src/objstore/retry.h, DESIGN.md
// §7) plus the backend's own two: a PUT or GET attempt with no answer within
// `op_timeout` counts as failed (a late answer is ignored), and a shard whose
// data PUT exhausted its budget goes degraded and is probed every
// `degraded_probe_interval`.
struct BackendRetryPolicy : RetryPolicy {
  Nanos op_timeout = 30 * kSecond;
  Nanos degraded_probe_interval = kSecond;
};

// Per-volume QoS caps, enforced by the client host's token-bucket admission
// (see src/lsvd/qos.h). Zero means uncapped on that axis; a volume with no
// caps and fair_share off bypasses admission entirely.
struct QosLimits {
  uint64_t iops = 0;           // client ops per second (reads + writes)
  uint64_t bytes_per_sec = 0;  // client payload bytes per second
  // Bucket capacity as seconds of accrual at the configured rate: how much
  // idle credit a bursty tenant may bank.
  double burst_seconds = 0.1;
  // Also draw from the host-wide shared pool (ClientHostConfig::fair_share_*)
  // so concurrent fair-share tenants split it round-robin.
  bool fair_share = false;

  bool unlimited() const {
    return iops == 0 && bytes_per_sec == 0 && !fair_share;
  }
};

struct LsvdConfig {
  std::string volume_name = "vol";
  uint64_t volume_size = 8 * kGiB;

  // SSD cache allocation (write cache includes superblock + map checkpoint
  // area; paper suggests ~20 % write / 80 % read split).
  uint64_t write_cache_size = 256 * kMiB;
  uint64_t read_cache_size = kGiB;

  // Backend batching (paper: 8 or 32 MiB).
  uint64_t batch_bytes = 8 * kMiB;
  Nanos batch_max_age = 100 * kMillisecond;
  int put_window = 8;  // concurrent outstanding PUTs (per backend shard)

  // --- Adaptive batching / group commit (DESIGN.md §12) ---
  // Seal-on-deadline: an open backend batch is sealed this long after its
  // first write even if far from batch_bytes, on a per-batch timer (unlike
  // batch_max_age, which is only polled at batch_max_age granularity). The
  // same deadline bounds how long the write cache "plugs" a lone small write
  // waiting for company before force-starting its journal record. Set, it
  // also turns on the journal's group commit: concurrent Flush barriers share
  // one SSD flush, and a lone small write skips the plug wait while the
  // record pipeline is nearly idle. 0 = off: only size sealing plus the
  // coarse age poll.
  Nanos batch_seal_deadline = 0;

  // Backend sharding (DESIGN.md §9): the volume's object stream is striped
  // round-robin by batch sequence across this many independent object-store
  // shards, each with its own disk pool, retry state and PUT window. Must
  // match the number of stores the volume was created with, and must never
  // change over a volume's lifetime (placement is derived from seq).
  int backend_shards = 1;

  // Garbage collection thresholds on live/total utilization (§3.5, §4.6).
  double gc_low_watermark = 0.70;   // start cleaning below this
  double gc_high_watermark = 0.75;  // stop cleaning at this
  bool gc_enabled = true;

  // Victim-selection policy (docs/GC.md; DESIGN.md §11), used for every
  // shard. `greedy` is the paper's least-utilized collector; `cost-benefit`
  // and `age-bucketed` also weigh object age.
  GcPolicyKind gc_policy = GcPolicyKind::kGreedy;

  // --- Paged object map (DESIGN.md §13) ---
  // Resident-memory budget for the backend object map's unpacked leaf pages
  // (256 MiB of address space each): when their live bytes exceed it, the
  // least recently used pages are packed down to their run-length form.
  // 0 (the default) never packs, so every page stays resident.
  uint64_t map_resident_bytes = 0;

  // Object-map checkpoint cadence, in data objects written.
  uint64_t checkpoint_interval_objects = 64;

  // Coalesce overwrites within a batch (§3.1: "writes may be coalesced
  // within a single batch, although not across batches").
  bool coalesce_within_batch = true;

  // Prototype overhead model (§4.7): the userspace daemon re-reads outgoing
  // data from the write cache SSD before each PUT.
  bool pass_through_ssd = true;

  StageCosts costs;

  BackendRetryPolicy retry;  // every shard's requests

  // Clone support (§3.6): objects with seq <= base_last_seq are read from
  // `base_image`'s object stream.
  std::string base_image;
  uint64_t base_last_seq = 0;

  // Snapshot mounting (§3.6): when non-zero, recovery backtracks to the last
  // checkpoint at or before this object seq and replays no further — the
  // volume opens read-only-in-spirit at the snapshot point.
  uint64_t open_limit_seq = 0;

  // Per-volume QoS admission caps (multi-tenant hosts).
  QosLimits qos;

  // Roots of this volume's metric names: "<metrics_prefix>.writes",
  // "<metrics_prefix>.write_cache.*", "<backend_metrics_prefix>.gc.*", ...
  // The defaults keep the historical single-volume names; hosts with several
  // volumes sharing one registry call SetPerVolumeMetricPrefixes() so names
  // become "lsvd.<vol>.*" / "lsvd.<vol>.backend.*" (docs/METRICS.md).
  std::string metrics_prefix = "lsvd";
  std::string backend_metrics_prefix = "backend";

  void SetPerVolumeMetricPrefixes() {
    metrics_prefix = "lsvd." + volume_name;
    backend_metrics_prefix = metrics_prefix + ".backend";
  }
};

}  // namespace lsvd

#endif  // SRC_LSVD_CONFIG_H_
