// Figure 19 (extension): fleet-scale control plane — placement, clone
// fan-out, live migration, host failover (docs/FLEET.md, DESIGN.md §15).
//
// The paper's deployment model is a hypervisor fleet: every host runs many
// LSVD volumes against a shared backend (§4.3), and the properties that
// make LSVD attractive there are control-plane ones — a volume is "a write
// cache you can drain plus an object stream you can recover", so migration
// and failover are the crash-recovery path reused on purpose. This bench
// stands up M hosts x S shards under one FleetController and measures:
//   - placement: volumes hosted, spread across hosts;
//   - clone fan-out: one golden image -> N-1 snapshot-pinned clones;
//   - live migration: a concurrent wave, migrations/s and blackout time;
//   - failover: kill a host, lease-expiry detection time, recover-attach
//     time for its volumes, and the p99 write impact on a tenant
//     co-located with the recovery storm.
// Every host, shard and the controller run on one Simulator.
#include "bench/common.h"
#include "src/fleet/fleet.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

// A World-alike owning the fleet; declaration order makes the registry
// outlive every component whose gauges it holds.
struct FleetRig {
  MetricsRegistry metrics;
  Simulator sim;
  FleetController fleet;

  explicit FleetRig(const FleetConfig& fc) : fleet(&sim, fc, &metrics) {}

  ~FleetRig() {
    PerfTotals& totals = GlobalPerfTotals();
    totals.events += sim.events_processed();
    totals.sim_seconds += ToSeconds(sim.now());
  }
};

// Runs a driver on `disk` to its deadline and returns the p99 of
// "<victim.write_us>" from a private registry.
double DriveVictim(FleetRig* rig, VirtualDisk* disk, double seconds,
                   uint64_t volume_size, uint64_t seed) {
  MetricsRegistry reg;
  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandWrite;
  fio.block_size = 4 * kKiB;
  fio.volume_size = volume_size;
  fio.seed = seed;
  Driver driver(&rig->sim, disk, MakeFioGen(fio), /*queue_depth=*/16,
                rig->sim.now() + FromSeconds(seconds), &reg, "victim");
  bool done = false;
  driver.Run([&] { done = true; });
  rig->sim.Run();
  if (!done) {
    std::fprintf(stderr, "victim workload stalled\n");
    std::abort();
  }
  GlobalPerfTotals().sim_ios += driver.stats().ops;
  return reg.Snapshot().Percentile("victim.write_us", 0.99);
}

}  // namespace

int main(int argc, char** argv) {
  PerfScope perf(argc, argv, "fig19_fleet");
  const bool smoke = ArgFlag(argc, argv, "smoke");
  const int hosts = ArgInt(argc, argv, "hosts", smoke ? 4 : 8);
  const int volumes = ArgInt(argc, argv, "volumes", smoke ? 48 : 1024);
  const int shards = ArgInt(argc, argv, "shards", 1);
  const int migrations = ArgInt(argc, argv, "migrations", smoke ? 4 : 16);
  const double serve_s = ArgDouble(argc, argv, "seconds", smoke ? 0.2 : 0.75);
  const double failover_s = 1.0;  // covers kill + lease expiry + recovery
  const uint64_t volume_size = smoke ? 256 * kMiB : kGiB;
  const uint64_t cache = 80 * kMiB;  // 64 MiB wc floor + 16 MiB rc
  const uint64_t image_bytes = smoke ? 16 * kMiB : 64 * kMiB;

  PrintHeader("fig19: fleet-scale control plane",
              "extension of §4.3 — placement, live migration, failover");

  FleetConfig fc;
  fc.hosts = hosts;
  fc.shards = shards;
  fc.cluster = ClusterConfig::SsdPool();
  if (smoke) {
    fc.cluster.num_disks = 8;
  }
  FleetRig rig(fc);
  FleetController& fleet = rig.fleet;

  // --- golden image: create, fill, snapshot ---
  LsvdConfig gcfg = DefaultLsvdConfig(volume_size, cache);
  gcfg.volume_name = "golden";
  std::optional<Status> created;
  const int golden =
      fleet.CreateVolume(gcfg, [&](Status s) { created = s; },
                         /*track_metrics=*/true);
  rig.sim.Run();
  if (golden < 0 || !created.has_value() || !created->ok()) {
    std::fprintf(stderr, "golden create failed\n");
    return 1;
  }
  const int golden_host = fleet.host_of(golden);
  {
    FioConfig fill;
    fill.pattern = FioConfig::Pattern::kSeqWrite;
    fill.block_size = 256 * kKiB;
    fill.volume_size = volume_size;
    fill.max_bytes = image_bytes;
    Driver filler(&rig.sim, fleet.disk(golden), MakeFioGen(fill),
                  /*queue_depth=*/8);
    bool done = false;
    filler.Run([&] { done = true; });
    rig.sim.Run();
    if (!done) {
      std::fprintf(stderr, "image fill stalled\n");
      return 1;
    }
    GlobalPerfTotals().sim_ios += filler.stats().ops;
  }
  std::optional<uint64_t> snap_seq;
  fleet.disk(golden)->Snapshot([&](Result<uint64_t> r) {
    if (r.ok()) {
      snap_seq = *r;
    }
  });
  rig.sim.Run();
  if (!snap_seq.has_value()) {
    std::fprintf(stderr, "golden snapshot failed\n");
    return 1;
  }

  // --- clone fan-out ---
  // The wave ends at the last clone's callback; quiescence time is useless
  // as a wave clock because dangling PUT-timeout timers pad it by 30
  // virtual seconds.
  const Nanos clone_start = rig.sim.now();
  Nanos clone_end = clone_start;
  int clone_ok = 0;
  for (int i = 1; i < volumes; i++) {
    fleet.CloneVolume(golden, "clone" + std::to_string(i), *snap_seq,
                      [&](Status s) {
                        clone_ok += s.ok() ? 1 : 0;
                        clone_end = std::max(clone_end, rig.sim.now());
                      });
  }
  rig.sim.Run();
  const int clone_fail = volumes - 1 - clone_ok;
  const double clone_wave_s = ToSeconds(clone_end - clone_start);
  int max_per_host = 0;
  for (int i = 0; i < hosts; i++) {
    max_per_host = std::max(max_per_host, fleet.volumes_on(i));
  }
  std::printf("fleet: %d hosts x %d shard(s), engine=sequential\n", hosts,
              shards);
  std::printf("volumes hosted:     %zu (golden + %d clones, %d failed)\n",
              fleet.volume_count(), clone_ok, clone_fail);
  std::printf("clone fan-out:      %d clones in %.3f s (%.0f/s), "
              "max %d volumes/host\n",
              clone_ok, clone_wave_s,
              clone_wave_s > 0 ? clone_ok / clone_wave_s : 0.0, max_per_host);

  // --- baseline victim latency (tenant on the golden image's host) ---
  const double p99_before =
      DriveVictim(&rig, fleet.disk(golden), serve_s, volume_size, 3);

  // --- live migration wave ---
  {
    std::vector<int> wave;
    for (int v = 1; v < static_cast<int>(fleet.volume_count()) &&
                    static_cast<int>(wave.size()) < migrations;
         v++) {
      if (fleet.host_of(v) != golden_host &&
          fleet.health(v) == FleetController::VolumeHealth::kActive) {
        wave.push_back(v);
      }
    }
    const Nanos wave_start = rig.sim.now();
    Nanos wave_end = wave_start;
    int mig_ok = 0;
    int mig_fail = 0;
    for (int v : wave) {
      Status s = fleet.MigrateVolume(
          v, /*dst_host=*/-1,
          [&](Status st, const MigrationStats&) {
            st.ok() ? mig_ok++ : mig_fail++;
            wave_end = std::max(wave_end, rig.sim.now());
          });
      if (!s.ok()) {
        mig_fail++;
      }
    }
    rig.sim.Run();
    const double wave_s = ToSeconds(wave_end - wave_start);
    const MetricsSnapshot snap = rig.metrics.Snapshot();
    std::printf("migration wave:     %d/%zu ok in %.3f s (%.1f/s)\n", mig_ok,
                wave.size(), wave_s, wave_s > 0 ? mig_ok / wave_s : 0.0);
    std::printf("  drain+blackout:   total p50=%.1f ms, blackout p50=%.2f ms "
                "p99=%.2f ms, handoff=%.0f KiB\n",
                snap.Percentile("fleet.migration.total_us", 0.5) / 1e3,
                snap.Percentile("fleet.migration.blackout_us", 0.5) / 1e3,
                snap.Percentile("fleet.migration.blackout_us", 0.99) / 1e3,
                static_cast<double>(
                    rig.metrics.GetCounter("fleet.handoff_bytes")->value()) /
                    1024.0 / std::max(1, mig_ok));
  }

  // --- host failure: kill, lease-expiry detection, failover, victim p99 ---
  const int kill_host = (golden_host + 1) % hosts;
  const int victims_before = fleet.volumes_on(kill_host);
  const Nanos t0 = rig.sim.now();
  fleet.RunControlPlane(t0 + FromSeconds(failover_s));
  rig.sim.At(t0 + 200 * kMillisecond, [&] { fleet.KillHost(kill_host); });
  const double p99_during =
      DriveVictim(&rig, fleet.disk(golden), failover_s, volume_size, 4);
  rig.sim.Run();  // let recovery finish past the victim's deadline
  {
    const MetricsSnapshot snap = rig.metrics.Snapshot();
    const uint64_t recovered =
        rig.metrics.GetCounter("fleet.failover_volumes")->value();
    std::printf("failover:           host %d killed (%d volumes), detect "
                "%.0f ms\n",
                kill_host, victims_before,
                snap.Percentile("fleet.failover.detect_us", 0.5) / 1e3);
    std::printf("  recover-attach:   %llu volumes, recovery p50=%.0f ms "
                "p99=%.0f ms\n",
                static_cast<unsigned long long>(recovered),
                snap.Percentile("fleet.failover.recovery_us", 0.5) / 1e3,
                snap.Percentile("fleet.failover.recovery_us", 0.99) / 1e3);
    std::printf("victim p99 write:   %.1f us before, %.1f us during "
                "failover (%+.0f%%)\n",
                p99_before, p99_during,
                p99_before > 0 ? (p99_during / p99_before - 1) * 100 : 0.0);
  }

  if (ArgFlag(argc, argv, "json")) {
    std::printf("%s\n", rig.metrics.ToJson().c_str());
  }
  return 0;
}
