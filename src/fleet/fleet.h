// Fleet control plane (DESIGN.md §15, docs/FLEET.md): M client hosts sharing
// S backend shards, hosting thousands of LSVD volumes, under one controller
// that owns placement, live migration, and host-failure failover.
//
// The controller is deliberately thin: all durability comes from the LSVD
// data path itself. A volume's write cache is on its host's SSD and its
// object stream is in the shared backend, so moving a volume between hosts
// is "drain the cache tail, flip the ownership epoch, recover-attach from
// the backend" — the same crash-consistent recovery path tbl04 tortures,
// reused as a management operation. The VolumeDirectory's epoch fencing
// (src/objstore/volume_directory.h) is what makes the flip safe against
// stale hosts that were wrongly declared dead.
//
// Every host, every shard and the controller run on one Simulator.
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/placement.h"
#include "src/lsvd/client_host.h"
#include "src/lsvd/config.h"
#include "src/lsvd/lsvd_disk.h"
#include "src/objstore/sim_object_store.h"
#include "src/objstore/volume_directory.h"
#include "src/sim/cluster.h"
#include "src/sim/simulator.h"
#include "src/util/metrics.h"
#include "src/util/status.h"

namespace lsvd {

// Knobs for one fleet. Every field is documented in docs/FLEET.md (the
// check_docs.py config lint enforces this).
struct FleetConfig {
  int hosts = 8;
  int shards = 1;
  ClientHostConfig host;
  ClusterConfig cluster;
  SimObjectStoreConfig objstore;
  PlacementPolicyKind placement = PlacementPolicyKind::kLoadSpread;
  uint64_t placement_iops_budget = 0;
  Nanos heartbeat_interval = 50 * kMillisecond;
  Nanos lease_duration = 250 * kMillisecond;
  Nanos lease_check_interval = 50 * kMillisecond;
  bool auto_failover = true;
  uint64_t handoff_header_bytes = 4 * kKiB;
  uint64_t handoff_bytes_per_object = 32;
};

// Timing of one completed live migration, reported to the caller and into
// the fleet.migration.* histograms.
struct MigrationStats {
  int src_host = -1;
  int dst_host = -1;
  // MigrateVolume call -> handoff descriptor ready: the drain-and-seal of
  // the write-cache tail plus the checkpoint write on the source.
  Nanos drain = 0;
  // Handoff ready -> serving on the target: descriptor transfer, epoch flip
  // and recover-attach. This is the part no pre-copy scheme can hide.
  Nanos blackout = 0;
  // Call -> serving on the target (== drain + blackout here, because this
  // one-shot scheme freezes client I/O for the whole migration).
  Nanos total = 0;
  uint64_t handoff_bytes = 0;
  uint64_t applied_seq = 0;
};

class FleetController {
 public:
  using DoneCallback = std::function<void(Status)>;
  using MigrationCallback =
      std::function<void(Status, const MigrationStats&)>;

  enum class VolumeHealth {
    kCreating,    // Create/clone materialization in flight
    kActive,      // attached and serving
    kMigrating,   // live migration in progress (I/O frozen by the caller)
    kRecovering,  // failover or migration recover-attach in flight
    kDown,        // host died; waiting for the lease detector / failover
    kFailed,      // no host fits, or an open failed — needs operator action
  };

  // Every host, shard and the controller share `sim`. Null `metrics` gives
  // the controller a private registry (metrics()).
  FleetController(Simulator* sim, FleetConfig config,
                  MetricsRegistry* metrics = nullptr);
  ~FleetController();

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  // --- volume lifecycle ---
  // Places and creates a volume; returns its fleet id, or -1 if no host
  // fits (done still fires, with ResourceExhausted). `config.volume_name`
  // must be fleet-unique; backend_shards is overwritten with the fleet's.
  // With `track_metrics` the volume's lsvd.* metrics land in the fleet
  // registry under "lsvd.<name>." — use sparingly, thousands of tracked
  // volumes would bloat every snapshot; untracked volumes keep private
  // registries.
  int CreateVolume(LsvdConfig config, DoneCallback done = nullptr,
                   bool track_metrics = false);
  // Clone fan-out: place a copy-on-write clone of `base_volume` pinned at
  // object `base_seq` (from Snapshot, or applied_seq after a Drain). Counts
  // as a create plus a clone.
  int CloneVolume(int base_volume, const std::string& clone_name,
                  uint64_t base_seq, DoneCallback done = nullptr,
                  bool track_metrics = false);

  // --- live migration ---
  // Drain-and-seal on the source, ship the handoff descriptor over both
  // hosts' links, flip the directory epoch (fencing the source), recover-
  // attach on the target. The caller must stop issuing I/O to the volume
  // first and may resume when `done` fires. `dst_host` -1 lets the
  // placement policy choose. Errors: InvalidArgument (bad volume/host), ResourceExhausted (no host fits). If a failover steals
  // the volume mid-migration, done fires with Unavailable.
  Status MigrateVolume(int volume, int dst_host = -1,
                       MigrationCallback done = nullptr);

  // --- failure injection & failover ---
  // Host process death: every disk on it is Kill()ed (callbacks dropped,
  // SSD content survives per crash semantics) and its heartbeats stop. The
  // lease detector declares it dead after lease_duration.
  void KillHost(int host);
  // Network partition: heartbeats stop but the host keeps running — its
  // volumes serve on, and after failover their stale attachments write
  // into the fence (the double-attach scenario docs/FLEET.md tabulates).
  void PartitionHost(int host);
  // Re-places every volume of `host` onto survivors and recover-attaches
  // them via OpenCacheLost. Runs automatically from the lease detector when
  // auto_failover is set; exposed for deterministic
  // tests. Volumes that fit nowhere become kFailed.
  void FailoverHost(int host);

  // --- control plane ---
  // Runs heartbeats (each host -> controller, every heartbeat_interval)
  // and the lease detector (every lease_check_interval) up to virtual time
  // `until`, then quiesces — so Run() terminates. Call again to extend.
  void RunControlPlane(Nanos until);

  // --- introspection ---
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t volume_count() const { return volumes_.size(); }
  int volumes_on(int host) const;
  ClientHost* host(int i) { return hosts_[static_cast<size_t>(i)].client.get(); }
  bool host_process_alive(int i) const {
    return hosts_[static_cast<size_t>(i)].process_alive;
  }
  bool host_declared_dead(int i) const {
    return hosts_[static_cast<size_t>(i)].declared_dead;
  }
  VolumeHealth health(int volume) const {
    return volumes_[static_cast<size_t>(volume)]->state;
  }
  int host_of(int volume) const {
    return volumes_[static_cast<size_t>(volume)]->host;
  }
  // The live attachment (nullptr while kDown/kFailed).
  LsvdDisk* disk(int volume);
  // The newest abandoned attachment, still running if its host is only
  // partitioned — the double-attach victim tests poke at.
  LsvdDisk* stale_disk(int volume);
  uint64_t volume_epoch(int volume) const {
    return volumes_[static_cast<size_t>(volume)]->epoch;
  }
  VolumeDirectory& directory() { return directory_; }
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  struct Shard {
    std::unique_ptr<BackendCluster> cluster;
    // The one namespace every host's view of the shard shares.
    std::unique_ptr<ObjectBucket> bucket;
  };

  struct FleetHost {
    std::unique_ptr<ClientHost> client;
    bool process_alive = true;
    bool partitioned = false;
    bool declared_dead = false;
    bool hb_running = false;
    Nanos last_heartbeat = 0;  // arrival time of the newest heartbeat
    Nanos down_since = 0;      // kill/partition time, for detect latency
  };

  struct VolumeState {
    int id = -1;
    std::string name;
    LsvdConfig config;
    bool track_metrics = false;
    uint64_t ssd_bytes = 0;  // placement footprint
    uint64_t iops = 0;       // placement reservation
    int host = -1;
    uint64_t epoch = 0;
    VolumeHealth state = VolumeHealth::kCreating;
    bool migration_inflight = false;
    Nanos freeze_time = 0;  // when client I/O (or the host) stopped
    // Declaration order = reverse destruction order: the live disk dies
    // before its store views, stale disks before theirs.
    std::vector<std::unique_ptr<SimObjectStore>> stale_raw_views;
    std::vector<std::unique_ptr<FencedObjectStore>> stale_views;
    std::vector<std::unique_ptr<LsvdDisk>> stale_disks;
    std::vector<std::unique_ptr<SimObjectStore>> raw_views;
    std::vector<std::unique_ptr<FencedObjectStore>> views;
    std::unique_ptr<LsvdDisk> disk;
  };

  enum class OpenMode { kCreate, kCacheLost };

  void RegisterMetrics();
  int Pick(const PlacementRequest& req) const;
  // Builds store views + disk for v on `host_id` and starts the open.
  void Attach(VolumeState& v, int host_id, OpenMode mode, DoneCallback done);
  // Moves the current attachment to the stale_* lists (no Kill, no free:
  // a merely-partitioned host keeps running it until the fence stops it).
  void Abandon(VolumeState& v);
  void FinishMigration(int volume, int dst, Nanos freeze, Nanos detached,
                       uint64_t handoff_bytes, uint64_t applied_seq,
                       MigrationCallback done);
  void ScheduleHeartbeat(int i);
  void OnHeartbeat(int i);
  void ScheduleLeaseCheck();
  void DeclareDead(int i);

  FleetConfig config_;
  Simulator* sim_;

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;

  VolumeDirectory directory_;
  std::vector<Shard> shards_;
  std::vector<FleetHost> hosts_;
  std::vector<std::unique_ptr<VolumeState>> volumes_;

  // Control-plane horizon: heartbeat/lease chains stop past this time so
  // the simulation quiesces.
  Nanos control_until_ = 0;
  bool control_inited_ = false;
  bool lease_running_ = false;

  Counter* c_creates_;
  Counter* c_create_failures_;
  Counter* c_clones_;
  Counter* c_placement_rejected_;
  Counter* c_heartbeats_;
  Counter* c_leases_expired_;
  Counter* c_migrations_;
  Counter* c_migrations_aborted_;
  Counter* c_migrations_failed_;
  Counter* c_failovers_;
  Counter* c_failover_volumes_;
  Counter* c_handoff_bytes_;
  Histogram* h_blackout_us_;
  Histogram* h_migration_total_us_;
  Histogram* h_recovery_us_;
  Histogram* h_detect_us_;

  // Last member: the fleet.* gauges read hosts_/volumes_ above.
  CallbackGuard callback_guard_;
};

}  // namespace lsvd

#endif  // SRC_FLEET_FLEET_H_
