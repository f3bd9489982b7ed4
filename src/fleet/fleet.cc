#include "src/fleet/fleet.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lsvd {

FleetController::FleetController(Simulator* sim, FleetConfig config,
                                 MetricsRegistry* metrics)
    : config_(config), sim_(sim) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  shards_.resize(static_cast<size_t>(config_.shards));
  for (int s = 0; s < config_.shards; s++) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    sh.cluster = std::make_unique<BackendCluster>(
        sim, config_.cluster, metrics_, "cluster.shard" + std::to_string(s));
    sh.bucket = std::make_unique<ObjectBucket>();
  }
  hosts_.resize(static_cast<size_t>(config_.hosts));
  for (int i = 0; i < config_.hosts; i++) {
    ClientHostConfig hc = config_.host;
    hc.metric_prefix = "host." + std::to_string(i);
    hosts_[static_cast<size_t>(i)].client =
        std::make_unique<ClientHost>(sim, hc, metrics_);
  }
  RegisterMetrics();
}

FleetController::~FleetController() = default;

void FleetController::RegisterMetrics() {
  callback_guard_.Register(metrics_, "fleet.hosts", [this] {
    return static_cast<double>(hosts_.size());
  });
  callback_guard_.Register(metrics_, "fleet.hosts_alive", [this] {
    double n = 0;
    for (const FleetHost& h : hosts_) {
      if (!h.declared_dead) {
        n++;
      }
    }
    return n;
  });
  callback_guard_.Register(metrics_, "fleet.volumes", [this] {
    return static_cast<double>(volumes_.size());
  });
  callback_guard_.Register(metrics_, "fleet.volumes_active", [this] {
    double n = 0;
    for (const auto& v : volumes_) {
      if (v->state == VolumeHealth::kActive) {
        n++;
      }
    }
    return n;
  });
  c_creates_ = metrics_->GetCounter("fleet.creates");
  c_create_failures_ = metrics_->GetCounter("fleet.create_failures");
  c_clones_ = metrics_->GetCounter("fleet.clones");
  c_placement_rejected_ = metrics_->GetCounter("fleet.placement_rejected");
  c_heartbeats_ = metrics_->GetCounter("fleet.heartbeats");
  c_leases_expired_ = metrics_->GetCounter("fleet.leases_expired");
  c_migrations_ = metrics_->GetCounter("fleet.migrations");
  c_migrations_aborted_ = metrics_->GetCounter("fleet.migrations_aborted");
  c_migrations_failed_ = metrics_->GetCounter("fleet.migrations_failed");
  c_failovers_ = metrics_->GetCounter("fleet.failovers");
  c_failover_volumes_ = metrics_->GetCounter("fleet.failover_volumes");
  c_handoff_bytes_ = metrics_->GetCounter("fleet.handoff_bytes");
  h_blackout_us_ = metrics_->GetHistogram("fleet.migration.blackout_us");
  h_migration_total_us_ = metrics_->GetHistogram("fleet.migration.total_us");
  h_recovery_us_ = metrics_->GetHistogram("fleet.failover.recovery_us");
  h_detect_us_ = metrics_->GetHistogram("fleet.failover.detect_us");
}

int FleetController::Pick(const PlacementRequest& req) const {
  std::vector<HostLoad> loads;
  loads.reserve(hosts_.size());
  for (size_t i = 0; i < hosts_.size(); i++) {
    const FleetHost& h = hosts_[i];
    HostLoad load;
    load.host = static_cast<int>(i);
    load.alive = h.process_alive && !h.declared_dead;
    load.ssd_free_bytes = h.client->ssd_regions()->free_bytes();
    load.volumes = 0;
    load.reserved_iops = 0;
    for (const auto& v : volumes_) {
      if (v->host == static_cast<int>(i) &&
          v->state != VolumeHealth::kFailed) {
        load.volumes++;
        load.reserved_iops += v->iops;
      }
    }
    loads.push_back(load);
  }
  return ChoosePlacement(config_.placement, loads, req);
}

int FleetController::volumes_on(int host) const {
  int n = 0;
  for (const auto& v : volumes_) {
    if (v->host == host && v->disk != nullptr) {
      n++;
    }
  }
  return n;
}

LsvdDisk* FleetController::disk(int volume) {
  return volumes_[static_cast<size_t>(volume)]->disk.get();
}

LsvdDisk* FleetController::stale_disk(int volume) {
  auto& stale = volumes_[static_cast<size_t>(volume)]->stale_disks;
  return stale.empty() ? nullptr : stale.back().get();
}

void FleetController::Attach(VolumeState& v, int host_id, OpenMode mode,
                             DoneCallback done) {
  FleetHost& h = hosts_[static_cast<size_t>(host_id)];
  std::vector<ObjectStore*> ptrs;
  for (int s = 0; s < config_.shards; s++) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    auto raw = std::make_unique<SimObjectStore>(
        sim_, sh.cluster.get(), h.client->link(), config_.objstore, nullptr,
        "objstore", sh.bucket.get());
    auto fenced = std::make_unique<FencedObjectStore>(
        sim_, raw.get(), &directory_, v.name, v.epoch);
    ptrs.push_back(fenced.get());
    v.raw_views.push_back(std::move(raw));
    v.views.push_back(std::move(fenced));
  }
  v.disk = std::make_unique<LsvdDisk>(h.client.get(), ptrs, v.config,
                                      v.track_metrics ? metrics_ : nullptr);
  auto cb = [done = std::move(done)](Status s) {
    if (done) {
      done(std::move(s));
    }
  };
  if (mode == OpenMode::kCreate) {
    v.disk->Create(std::move(cb));
  } else {
    v.disk->OpenCacheLost(std::move(cb));
  }
}

void FleetController::Abandon(VolumeState& v) {
  if (v.disk != nullptr) {
    v.stale_disks.push_back(std::move(v.disk));
  }
  for (auto& f : v.views) {
    v.stale_views.push_back(std::move(f));
  }
  v.views.clear();
  for (auto& r : v.raw_views) {
    v.stale_raw_views.push_back(std::move(r));
  }
  v.raw_views.clear();
}

int FleetController::CreateVolume(LsvdConfig config, DoneCallback done,
                                  bool track_metrics) {
  config.backend_shards = config_.shards;
  if (track_metrics) {
    config.SetPerVolumeMetricPrefixes();
  }
  PlacementRequest req;
  req.ssd_bytes = config.write_cache_size + config.read_cache_size;
  req.iops = config.qos.iops;
  req.iops_budget = config_.placement_iops_budget;
  const int host_id = Pick(req);
  if (host_id < 0) {
    c_create_failures_->Inc();
    c_placement_rejected_->Inc();
    if (done) {
      sim_->After(0, [done = std::move(done)] {
        done(Status::ResourceExhausted("no host fits volume"));
      });
    }
    return -1;
  }
  const int id = static_cast<int>(volumes_.size());
  volumes_.push_back(std::make_unique<VolumeState>());
  VolumeState& v = *volumes_.back();
  v.id = id;
  v.name = config.volume_name;
  v.config = std::move(config);
  v.track_metrics = track_metrics;
  v.ssd_bytes = req.ssd_bytes;
  v.iops = req.iops;
  v.host = host_id;
  v.epoch = directory_.Register(v.name, host_id);
  c_creates_->Inc();
  Attach(v, host_id, OpenMode::kCreate,
         [this, id, done = std::move(done)](Status s) {
           VolumeState& v = *volumes_[static_cast<size_t>(id)];
           if (v.state == VolumeHealth::kCreating) {
             if (s.ok()) {
               v.state = VolumeHealth::kActive;
             } else {
               v.state = VolumeHealth::kFailed;
               c_create_failures_->Inc();
             }
           }
           if (done) {
             done(std::move(s));
           }
         });
  return id;
}

int FleetController::CloneVolume(int base_volume, const std::string& clone_name,
                                 uint64_t base_seq, DoneCallback done,
                                 bool track_metrics) {
  VolumeState& base = *volumes_[static_cast<size_t>(base_volume)];
  assert(base.disk != nullptr && "clone base must be attached");
  c_clones_->Inc();
  return CreateVolume(base.disk->MakeCloneConfig(clone_name, base_seq),
                      std::move(done), track_metrics);
}

Status FleetController::MigrateVolume(int volume, int dst_host,
                                      MigrationCallback done) {
  if (volume < 0 || volume >= static_cast<int>(volumes_.size())) {
    return Status::InvalidArgument("unknown volume");
  }
  VolumeState& v = *volumes_[static_cast<size_t>(volume)];
  if (v.state != VolumeHealth::kActive) {
    return Status::InvalidArgument("volume is not active");
  }
  PlacementRequest req;
  req.ssd_bytes = v.ssd_bytes;
  req.iops = v.iops;
  req.exclude_host = v.host;
  req.iops_budget = config_.placement_iops_budget;
  if (dst_host < 0) {
    dst_host = Pick(req);
    if (dst_host < 0) {
      return Status::ResourceExhausted("no host fits volume");
    }
  } else {
    const FleetHost& dh = hosts_[static_cast<size_t>(dst_host)];
    if (dst_host == v.host || dst_host >= config_.hosts ||
        !dh.process_alive || dh.declared_dead) {
      return Status::InvalidArgument("bad migration target");
    }
  }
  v.state = VolumeHealth::kMigrating;
  v.migration_inflight = true;
  v.freeze_time = sim_->now();
  const uint64_t epoch = v.epoch;
  const Nanos freeze = v.freeze_time;
  const int dst = dst_host;
  // Every continuation re-checks (state, epoch): a failover that steals the
  // volume mid-flight flips both, and the stale steps must become no-ops.
  auto stale = [this, volume, epoch] {
    VolumeState& v = *volumes_[static_cast<size_t>(volume)];
    return v.state != VolumeHealth::kMigrating || v.epoch != epoch;
  };
  v.disk->DetachForMigration([this, volume, dst, freeze, epoch, stale,
                              done](Result<MigrationHandoff> r) {
    VolumeState& v = *volumes_[static_cast<size_t>(volume)];
    if (stale()) {
      if (done) {
        done(Status::Unavailable("migration aborted by failover"),
             MigrationStats{});
      }
      return;
    }
    if (!r.ok()) {
      v.state = VolumeHealth::kActive;
      v.migration_inflight = false;
      c_migrations_failed_->Inc();
      if (done) {
        done(r.status(), MigrationStats{});
      }
      return;
    }
    const Nanos detached = sim_->now();
    const uint64_t handoff_bytes =
        config_.handoff_header_bytes +
        config_.handoff_bytes_per_object * r->applied_seq;
    const uint64_t applied_seq = r->applied_seq;
    c_handoff_bytes_->Inc(handoff_bytes);
    // Ship the descriptor: source tx, propagation, target rx.
    NetLink* src_link = hosts_[static_cast<size_t>(v.host)].client->link();
    src_link->SendToBackend(handoff_bytes, [this, volume, dst, freeze,
                                            detached, handoff_bytes,
                                            applied_seq, stale, done,
                                            src_link] {
      if (stale()) {
        if (done) {
          done(Status::Unavailable("migration aborted by failover"),
               MigrationStats{});
        }
        return;
      }
      sim_->After(src_link->half_rtt(), [this, volume, dst, freeze,
                                                 detached, handoff_bytes,
                                                 applied_seq, stale, done] {
        if (stale()) {
          if (done) {
            done(Status::Unavailable("migration aborted by failover"),
                 MigrationStats{});
          }
          return;
        }
        hosts_[static_cast<size_t>(dst)].client->link()->ReceiveFromBackend(
            handoff_bytes, [this, volume, dst, freeze, detached,
                            handoff_bytes, applied_seq, stale, done] {
              if (stale()) {
                if (done) {
                  done(Status::Unavailable("migration aborted by failover"),
                       MigrationStats{});
                }
                return;
              }
              FinishMigration(volume, dst, freeze, detached, handoff_bytes,
                              applied_seq, done);
            });
      });
    });
  });
  return Status::Ok();
}

void FleetController::FinishMigration(int volume, int dst, Nanos freeze,
                                      Nanos detached, uint64_t handoff_bytes,
                                      uint64_t applied_seq,
                                      MigrationCallback done) {
  VolumeState& v = *volumes_[static_cast<size_t>(volume)];
  const int src = v.host;
  // Retire the source attachment: the tail is drained, so the source's SSD
  // regions hold nothing the backend doesn't. Destroying the disk detaches
  // it from the source host; then its cache regions go back to the
  // allocator.
  const DiskRegions old_regions = v.disk->regions();
  v.disk.reset();
  v.views.clear();
  v.raw_views.clear();
  SsdRegionAllocator* regions =
      hosts_[static_cast<size_t>(src)].client->ssd_regions();
  Status freed = regions->Free(old_regions.write_cache_base);
  assert(freed.ok());
  freed = regions->Free(old_regions.read_cache_base);
  assert(freed.ok());
  (void)freed;
  // Epoch flip: from here any straggler writes under the old attachment are
  // fenced (none exist on this path — the source is gone — but the flip is
  // what makes the protocol safe when it races a failover).
  v.epoch = directory_.Flip(v.name, dst);
  v.host = dst;
  v.state = VolumeHealth::kRecovering;
  Attach(v, dst, OpenMode::kCacheLost,
         [this, volume, src, dst, freeze, detached, handoff_bytes,
          applied_seq, done = std::move(done)](Status s) {
           VolumeState& v = *volumes_[static_cast<size_t>(volume)];
           if (v.state != VolumeHealth::kRecovering) {
             return;  // a failover of dst took over
           }
           v.migration_inflight = false;
           if (!s.ok()) {
             v.state = VolumeHealth::kFailed;
             c_migrations_failed_->Inc();
             if (done) {
               done(std::move(s), MigrationStats{});
             }
             return;
           }
           v.state = VolumeHealth::kActive;
           v.freeze_time = 0;
           MigrationStats stats;
           stats.src_host = src;
           stats.dst_host = dst;
           stats.drain = detached - freeze;
           stats.blackout = sim_->now() - detached;
           stats.total = sim_->now() - freeze;
           stats.handoff_bytes = handoff_bytes;
           stats.applied_seq = applied_seq;
           c_migrations_->Inc();
           RecordLatencyUs(h_blackout_us_, stats.blackout);
           RecordLatencyUs(h_migration_total_us_, stats.total);
           if (done) {
             done(Status::Ok(), stats);
           }
         });
}

void FleetController::KillHost(int host) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  if (!h.process_alive) {
    return;
  }
  h.process_alive = false;
  h.down_since = sim_->now();
  for (auto& vp : volumes_) {
    VolumeState& v = *vp;
    if (v.host != host || v.disk == nullptr) {
      continue;
    }
    v.disk->Kill();
    v.freeze_time = sim_->now();
    v.state = VolumeHealth::kDown;
  }
}

void FleetController::PartitionHost(int host) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  h.partitioned = true;
  if (h.down_since == 0) {
    h.down_since = sim_->now();
  }
}

void FleetController::FailoverHost(int host) {
  FleetHost& fh = hosts_[static_cast<size_t>(host)];
  fh.declared_dead = true;
  c_failovers_->Inc();
  const Nanos now = sim_->now();
  for (size_t i = 0; i < volumes_.size(); i++) {
    VolumeState& v = *volumes_[i];
    if (v.host != host || v.state == VolumeHealth::kFailed) {
      continue;
    }
    if (v.migration_inflight) {
      v.migration_inflight = false;
      c_migrations_aborted_->Inc();
    }
    if (v.freeze_time == 0) {
      // Partitioned host: the volume never stopped serving locally; clock
      // its outage from the failover decision.
      v.freeze_time = now;
    }
    Abandon(v);
    PlacementRequest req;
    req.ssd_bytes = v.ssd_bytes;
    req.iops = v.iops;
    req.exclude_host = host;
    req.iops_budget = config_.placement_iops_budget;
    const int dst = Pick(req);
    if (dst < 0) {
      v.state = VolumeHealth::kFailed;
      c_placement_rejected_->Inc();
      continue;
    }
    v.epoch = directory_.Flip(v.name, dst);
    v.host = dst;
    v.state = VolumeHealth::kRecovering;
    const Nanos freeze = v.freeze_time;
    const int id = static_cast<int>(i);
    Attach(v, dst, OpenMode::kCacheLost, [this, id, freeze](Status s) {
      VolumeState& v = *volumes_[static_cast<size_t>(id)];
      if (v.state != VolumeHealth::kRecovering) {
        return;  // a second failure re-failed-over the volume
      }
      if (!s.ok()) {
        v.state = VolumeHealth::kFailed;
        return;
      }
      v.state = VolumeHealth::kActive;
      v.freeze_time = 0;
      c_failover_volumes_->Inc();
      RecordLatencyUs(h_recovery_us_, sim_->now() - freeze);
    });
  }
}

void FleetController::RunControlPlane(Nanos until) {
  if (!control_inited_) {
    control_inited_ = true;
    for (FleetHost& h : hosts_) {
      h.last_heartbeat = sim_->now();
    }
  }
  control_until_ = std::max(control_until_, until);
  for (int i = 0; i < static_cast<int>(hosts_.size()); i++) {
    FleetHost& h = hosts_[static_cast<size_t>(i)];
    if (!h.hb_running && h.process_alive && !h.partitioned) {
      h.hb_running = true;
      sim_->After(0, [this, i] { ScheduleHeartbeat(i); });
    }
  }
  if (!lease_running_) {
    lease_running_ = true;
    sim_->After(0, [this] { ScheduleLeaseCheck(); });
  }
}

void FleetController::ScheduleHeartbeat(int i) {
  sim_->After(config_.heartbeat_interval, [this, i] {
    FleetHost& h = hosts_[static_cast<size_t>(i)];
    if (!h.process_alive || h.partitioned || sim_->now() > control_until_) {
      h.hb_running = false;
      return;
    }
    sim_->After(h.client->link()->half_rtt(), [this, i] { OnHeartbeat(i); });
    ScheduleHeartbeat(i);
  });
}

void FleetController::OnHeartbeat(int i) {
  c_heartbeats_->Inc();
  hosts_[static_cast<size_t>(i)].last_heartbeat = sim_->now();
}

void FleetController::ScheduleLeaseCheck() {
  sim_->After(config_.lease_check_interval, [this] {
    if (sim_->now() > control_until_) {
      lease_running_ = false;
      return;
    }
    const Nanos now = sim_->now();
    for (int i = 0; i < static_cast<int>(hosts_.size()); i++) {
      FleetHost& h = hosts_[static_cast<size_t>(i)];
      // Strict '>' so a heartbeat landing exactly at expiry keeps the
      // lease: the verdict never depends on same-timestamp delivery order.
      if (!h.declared_dead && now - h.last_heartbeat > config_.lease_duration) {
        DeclareDead(i);
      }
    }
    ScheduleLeaseCheck();
  });
}

void FleetController::DeclareDead(int i) {
  FleetHost& h = hosts_[static_cast<size_t>(i)];
  h.declared_dead = true;
  c_leases_expired_->Inc();
  if (h.down_since != 0) {
    RecordLatencyUs(h_detect_us_, sim_->now() - h.down_since);
  }
  if (config_.auto_failover) {
    FailoverHost(i);
  }
}

}  // namespace lsvd
