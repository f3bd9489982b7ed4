// Figure 18 (extension; DESIGN.md §9): backend scale-out — one LSVD volume
// striped round-robin across N independent object-store shards, each backed
// by its own small HDD pool, driven by a writeback-bound random-write
// workload. Aggregate client write throughput should scale with the shard
// count until the client NIC (10 GbE) becomes the bottleneck: the client
// host, which the paper shows is the limit long before the backend (§4.5),
// stays fixed while the backend grows.
//
// Acceptance target: >= 3x aggregate write throughput at 4 shards vs 1
// shard with the same per-shard disk count.
//
// --shards=K narrows the sweep to a single point. --clients=C scales the
// *fleet*: C client hosts, each with its own NIC and its own volume striped
// over the same shards; --ssd-shards (SSD-backed shards) keeps the backend
// from becoming the bottleneck at fleet-aggregate bandwidth.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

// One client host of the fleet: host + NIC + per-shard stores + its volume.
// Client 0 borrows the World's host/link and registers into the world
// metrics registry, so --clients=1 stays byte-identical with the pre-fleet
// bench; extra clients own private components with private registries
// (the null-registry convention) to keep gauge names collision-free.
struct ClientRig {
  ClientHost* host = nullptr;
  NetLink* link = nullptr;
  std::unique_ptr<ClientHost> owned_host;
  std::unique_ptr<NetLink> owned_link;
  std::vector<std::unique_ptr<SimObjectStore>> stores;
  std::unique_ptr<LsvdDisk> disk;
};

}  // namespace

int main(int argc, char** argv) {
  const int clients = ArgInt(argc, argv, "clients", 1);
  const bool ssd_shards = ArgFlag(argc, argv, "ssd-shards");
  // Per-config perf snapshots (BENCH_fig18_scaleout[_cC].json).
  std::string perf_name = "fig18_scaleout";
  if (clients > 1) {
    perf_name += "_c" + std::to_string(clients);
  }
  PerfScope perf(argc, argv, perf_name);
  const bool smoke = ArgFlag(argc, argv, "smoke");
  const double seconds = ArgDouble(argc, argv, "seconds", smoke ? 0.2 : 6.0);
  const double warmup = ArgDouble(argc, argv, "warmup", smoke ? 0.05 : 1.5);
  const double vol_gib =
      ArgDouble(argc, argv, "volume-gib", smoke ? 0.25 : 8.0);
  const double cache_gib =
      ArgDouble(argc, argv, "cache-gib", smoke ? 0.25 : 1.0);
  const int disks_per_shard =
      static_cast<int>(ArgDouble(argc, argv, "disks-per-shard", 2));
  const int max_shards =
      static_cast<int>(ArgDouble(argc, argv, "max-shards", smoke ? 2 : 8));
  // --shards=K: measure exactly one sweep point instead of 1,2,...
  const int only_shards = ArgInt(argc, argv, "shards", 0);

  PrintHeader("fig18_scaleout",
              "extension — write throughput vs backend shard count, one "
              "volume striped over N object stores");
  std::printf("256 KiB randwrite QD32, writeback-bound (%g GiB cache), "
              "%gs measured after %gs warmup, %d %s per shard\n",
              cache_gib, seconds, warmup, disks_per_shard,
              ssd_shards ? "SSDs" : "HDDs");
  if (clients > 1) {
    std::printf("fleet mode: %d client hosts, each its own NIC and volume, "
                "striped over the same shards\n", clients);
  }
  std::printf("\n");

  const auto volume =
      static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  const auto cache =
      static_cast<uint64_t>(cache_gib * static_cast<double>(kGiB));

  Table table({"shards", "client MB/s", "speedup", "backend MB/s",
               "mean shard util %"});
  double base_mbps = 0;
  double speedup4 = 0;
  // The last sweep point survives the loop so --json can snapshot its
  // registry; declaration order gives world-last destruction (components
  // deregister their gauge callbacks before the registry dies).
  std::unique_ptr<World> last_world;
  std::vector<std::unique_ptr<BackendCluster>> last_clusters;
  std::vector<ClientRig> last_rigs;

  const int first_shards = only_shards > 0 ? only_shards : 1;
  const int last_shards = only_shards > 0 ? only_shards : max_shards;
  for (int shards = first_shards; shards <= last_shards; shards *= 2) {
    // The World's built-in cluster is unused here (every shard brings its
    // own pool); keep it minimal.
    ClusterConfig unused_pool;
    unused_pool.kind = DiskKind::kHdd;
    unused_pool.num_disks = 1;
    auto world = std::make_unique<World>(unused_pool);
    Simulator* sim = &world->sim;

    std::vector<ClientRig> rigs(static_cast<size_t>(clients));
    rigs[0].host = world->host.get();
    rigs[0].link = world->backend_link.get();
    for (int c = 1; c < clients; c++) {
      ClientRig& rig = rigs[static_cast<size_t>(c)];
      rig.owned_host =
          std::make_unique<ClientHost>(sim, world->host_config, nullptr);
      rig.host = rig.owned_host.get();
      rig.owned_link = std::make_unique<NetLink>(sim, NetParams{});
      rig.link = rig.owned_link.get();
    }

    ClusterConfig shard_pool;
    shard_pool.kind = ssd_shards ? DiskKind::kSsd : DiskKind::kHdd;
    shard_pool.num_disks = disks_per_shard;

    std::vector<std::unique_ptr<BackendCluster>> clusters;
    for (int i = 0; i < shards; i++) {
      const std::string prefix = "shard" + std::to_string(i);
      clusters.push_back(std::make_unique<BackendCluster>(
          sim, shard_pool, &world->metrics, prefix + ".cluster"));
      rigs[0].stores.push_back(std::make_unique<SimObjectStore>(
          sim, clusters.back().get(), world->backend_link.get(),
          SimObjectStoreConfig{}, &world->metrics, prefix + ".objstore"));
    }
    // Extra clients' stores share each shard's cluster (their own allocator
    // heads; the cluster just queues disk ops from both).
    for (int c = 1; c < clients; c++) {
      ClientRig& rig = rigs[static_cast<size_t>(c)];
      for (int i = 0; i < shards; i++) {
        rig.stores.push_back(std::make_unique<SimObjectStore>(
            sim, clusters[static_cast<size_t>(i)].get(), rig.link,
            SimObjectStoreConfig{}, nullptr));
      }
    }

    LsvdConfig config = DefaultLsvdConfig(volume, cache);
    std::vector<std::optional<Status>> created(static_cast<size_t>(clients));
    for (int c = 0; c < clients; c++) {
      ClientRig& rig = rigs[static_cast<size_t>(c)];
      std::vector<ObjectStore*> ptrs;
      for (auto& s : rig.stores) {
        ptrs.push_back(s.get());
      }
      rig.disk = std::make_unique<LsvdDisk>(
          rig.host, ptrs, config, c == 0 ? &world->metrics : nullptr);
      rig.disk->Create(
          [&created, c](Status s) { created[static_cast<size_t>(c)] = s; });
    }
    sim->Run();
    for (const auto& st : created) {
      if (!st.has_value() || !st->ok()) {
        std::fprintf(stderr, "create failed\n");
        return 1;
      }
    }

    FioConfig fio;
    fio.pattern = FioConfig::Pattern::kRandWrite;
    fio.block_size = 256 * kKiB;
    fio.volume_size = volume;

    // One driver per client, all run to quiescence together; returns the
    // aggregate write throughput (Bps). For --clients=1 this is exactly
    // RunFio's sequence, so single-client output stays byte-identical.
    auto run_fleet = [&](uint64_t seed, double secs) {
      std::vector<std::unique_ptr<Driver>> drivers;
      for (int c = 0; c < clients; c++) {
        ClientRig& rig = rigs[static_cast<size_t>(c)];
        FioConfig f = fio;
        // Decorrelated seeds: each client writes its own volume, so streams
        // must differ; client 0 keeps the legacy seed.
        f.seed = c == 0 ? seed : seed * 1000 + static_cast<uint64_t>(c);
        drivers.push_back(std::make_unique<Driver>(
            sim, rig.disk.get(), MakeFioGen(f), 32,
            sim->now() + FromSeconds(secs),
            c == 0 ? &world->metrics : nullptr));
        drivers.back()->Run([] {});
      }
      sim->Run();
      double write_bps = 0;
      for (auto& d : drivers) {
        GlobalPerfTotals().sim_ios += d->stats().ops;
        write_bps += d->stats().WriteThroughputBps();
      }
      return write_bps;
    };

    // Warmup populates the maps and object stream; the run then drains to
    // quiescence, so the measured window starts from an empty write cache
    // (its one-time fill slightly favours the 1-shard baseline).
    run_fleet(1, warmup);

    const Nanos t0 = sim->now();
    std::vector<Nanos> busy0(static_cast<size_t>(shards));
    uint64_t put_bytes0 = 0;
    for (int i = 0; i < shards; i++) {
      busy0[static_cast<size_t>(i)] = clusters[static_cast<size_t>(i)]
                                          ->TotalBusy();
    }
    for (auto& rig : rigs) {
      for (auto& s : rig.stores) {
        put_bytes0 += s->stats().put_bytes;
      }
    }

    // The run goes to quiescence, which appends a long cache-drain tail
    // after the drivers' deadline; sample the backend counters *at* the
    // deadline so backend MB/s and utilization describe the loaded window,
    // like the client-side stats do.
    double util_sum = 0;
    uint64_t put_bytes1 = 0;
    sim->At(sim->now() + FromSeconds(seconds), [&] {
      const Nanos tm = sim->now();
      for (int i = 0; i < shards; i++) {
        util_sum += clusters[static_cast<size_t>(i)]->MeanUtilization(
            busy0[static_cast<size_t>(i)], t0, tm);
      }
      for (auto& rig : rigs) {
        for (auto& s : rig.stores) {
          put_bytes1 += s->stats().put_bytes;
        }
      }
    });

    const double write_bps = run_fleet(2, seconds);

    const double mbps = write_bps / 1e6;
    const double backend_mbps =
        static_cast<double>(put_bytes1 - put_bytes0) / seconds / 1e6;
    if (shards == 1) {
      base_mbps = mbps;
    }
    const double speedup = base_mbps > 0 ? mbps / base_mbps : 0;
    if (shards == 4) {
      speedup4 = speedup;
    }
    table.AddRow({std::to_string(shards), Table::Fmt(mbps, 1),
                  Table::Fmt(speedup, 2) + "x", Table::Fmt(backend_mbps, 1),
                  Table::Fmt(util_sum / shards * 100, 1)});
    // Retire the previous point before its world (registry) goes away.
    last_rigs = std::move(rigs);
    last_clusters = std::move(clusters);
    last_world = std::move(world);
  }
  table.Print();
  if (only_shards == 0 && max_shards >= 4) {
    std::printf("\nspeedup at 4 shards: %.2fx (target >= 3x; client NIC is "
                "the eventual ceiling)\n",
                speedup4);
  }
  if (last_world != nullptr) {
    MaybeDumpMetrics(*last_world, argc, argv);
  }
  return 0;
}
