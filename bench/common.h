// Shared experiment plumbing for the paper-reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper's §4; the
// helpers here assemble the two systems under test on the paper's hardware
// (Table 1):
//   - LSVD: client host (P3700 cache SSD, 10 GbE) -> RGW-style erasure-coded
//     object store on a Ceph pool.
//   - bcache+RBD: same host, bcache write-back cache -> triple-replicated
//     RBD on the same pool.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "src/baseline/bcache_device.h"
#include "src/baseline/rbd_disk.h"
#include "src/lsvd/lsvd_disk.h"
#include "src/objstore/sim_object_store.h"
#include "src/util/crc32c.h"
#include "src/util/metrics.h"
#include "src/util/table.h"
#include "src/workload/driver.h"
#include "src/workload/fio_gen.h"

namespace lsvd {
namespace bench {

// Process-wide tallies behind the --perf harness (docs/PERF.md). Worlds add
// their event-engine totals on destruction; the workload helpers add driver
// op counts. All of it is virtual-time state, so the tallies are exactly as
// deterministic as the simulation itself — only wall_seconds varies run to
// run.
struct PerfTotals {
  uint64_t events = 0;       // simulator events processed, all worlds
  uint64_t sim_ios = 0;      // driver ops completed (reads+writes+flushes)
  double sim_seconds = 0.0;  // virtual seconds simulated, summed over worlds
};

inline PerfTotals& GlobalPerfTotals() {
  static PerfTotals totals;
  return totals;
}

// Resident bytes held by paged extent maps at the end of the run, reported
// in the --perf JSON as `map_resident_bytes`. Benches that exercise
// `LsvdConfig::map_resident_bytes` set this from the map's ResidentBytes();
// everything else leaves it 0 (fully resident flat maps are accounted in
// peak RSS, not here).
inline uint64_t& GlobalMapResidentBytes() {
  static uint64_t bytes = 0;
  return bytes;
}

// Paper defaults (§4.1).
inline constexpr uint64_t kVolumeSize = 80 * kGiB;
inline constexpr uint64_t kLargeCache = 100 * kGiB;  // "larger than volume"
inline constexpr uint64_t kSmallCache = 5 * static_cast<uint64_t>(1e9);

inline LsvdConfig DefaultLsvdConfig(uint64_t volume_size,
                                    uint64_t cache_size) {
  LsvdConfig config;
  config.volume_name = "vol";
  config.volume_size = volume_size;
  // ~20% write cache / 80% read cache split (§3.1).
  config.write_cache_size =
      std::max<uint64_t>(64 * kMiB, cache_size / 5) / kBlockSize * kBlockSize;
  config.read_cache_size =
      (cache_size - config.write_cache_size) / kBlockSize * kBlockSize;
  config.batch_bytes = 8 * kMiB;
  return config;
}

// One client machine + one backend cluster world. Every component built via
// the system helpers below registers its metrics into `metrics`, so a bench
// can snapshot/dump the whole world uniformly (see MaybeDumpMetrics).
// `metrics` is declared first so it outlives the components whose callback
// gauges it holds.
struct World {
  MetricsRegistry metrics;
  Simulator sim;
  ClientHostConfig host_config;
  std::unique_ptr<ClientHost> host;
  std::unique_ptr<BackendCluster> cluster;
  std::unique_ptr<NetLink> backend_link;

  explicit World(ClusterConfig cluster_config,
                 uint64_t ssd_capacity = 800 * kGiB) {
    host_config.ssd_capacity = ssd_capacity;
    Init(cluster_config);
  }

  // Multi-tenant worlds (fig17) configure the host explicitly: fair-share
  // QoS pool, host-wide PUT window, SSD size.
  World(ClusterConfig cluster_config, ClientHostConfig hc) {
    host_config = hc;
    Init(cluster_config);
  }

  ~World() {
    PerfTotals& totals = GlobalPerfTotals();
    totals.events += sim.events_processed();
    totals.sim_seconds += ToSeconds(sim.now());
  }

 private:
  void Init(ClusterConfig cluster_config) {
    host = std::make_unique<ClientHost>(&sim, host_config, &metrics);
    cluster =
        std::make_unique<BackendCluster>(&sim, cluster_config, &metrics);
    backend_link = std::make_unique<NetLink>(&sim, NetParams{});
  }
};

struct LsvdSystem {
  std::unique_ptr<SimObjectStore> store;
  std::unique_ptr<LsvdDisk> disk;

  static LsvdSystem Create(World* world, LsvdConfig config) {
    LsvdSystem sys;
    sys.store = std::make_unique<SimObjectStore>(
        &world->sim, world->cluster.get(), world->backend_link.get(),
        SimObjectStoreConfig{}, &world->metrics);
    sys.disk = std::make_unique<LsvdDisk>(world->host.get(), sys.store.get(),
                                          std::move(config), &world->metrics);
    std::optional<Status> s;
    sys.disk->Create([&](Status st) { s = st; });
    world->sim.Run();
    if (!s.has_value() || !s->ok()) {
      std::fprintf(stderr, "LSVD create failed\n");
      std::abort();
    }
    return sys;
  }
};

struct BcacheRbdSystem {
  std::unique_ptr<RbdDisk> rbd;
  std::unique_ptr<BcacheDevice> bcache;

  static BcacheRbdSystem Create(World* world, uint64_t volume_size,
                                uint64_t cache_size) {
    BcacheRbdSystem sys;
    sys.rbd = std::make_unique<RbdDisk>(&world->sim, world->cluster.get(),
                                        world->backend_link.get(), volume_size,
                                        RbdConfig{}, /*volume_id=*/0,
                                        &world->metrics);
    auto region = world->host->AllocRegion(cache_size / kBlockSize *
                                           kBlockSize);
    if (!region.ok()) {
      std::fprintf(stderr, "bcache region allocation failed\n");
      std::abort();
    }
    sys.bcache = std::make_unique<BcacheDevice>(
        world->host.get(), sys.rbd.get(), *region,
        cache_size / kBlockSize * kBlockSize, BcacheConfig{},
        &world->metrics);
    return sys;
  }
};

// Fills the volume with data (§4.1 preconditioning), then lets writeback
// settle so experiments start from a steady state.
inline void Precondition(World* world, VirtualDisk* disk) {
  Driver driver(&world->sim, disk, MakePreconditionGen(disk->size(), 4 * kMiB),
                /*queue_depth=*/16);
  bool done = false;
  driver.Run([&] { done = true; });
  world->sim.Run();
  if (!done) {
    std::fprintf(stderr, "precondition stalled\n");
    std::abort();
  }
  GlobalPerfTotals().sim_ios += driver.stats().ops;
}

// Runs a fio-style workload for `seconds` of virtual time and returns stats.
// Per-op client latencies land in the world registry ("driver.*_us").
inline DriverStats RunFio(World* world, VirtualDisk* disk, FioConfig fio,
                          int queue_depth, double seconds) {
  Driver driver(&world->sim, disk, MakeFioGen(fio), queue_depth,
                world->sim.now() + FromSeconds(seconds), &world->metrics);
  bool done = false;
  driver.Run([&] { done = true; });
  world->sim.Run();
  GlobalPerfTotals().sim_ios += driver.stats().ops;
  return driver.stats();
}

// Parses "--flag=value" style arguments; returns fallback when absent.
inline double ArgDouble(int argc, char** argv, const std::string& flag,
                        double fallback) {
  const std::string prefix = "--" + flag + "=";
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stod(arg.substr(prefix.size()));
    }
  }
  return fallback;
}

// Integer-valued "--flag=value" arguments (e.g. --clients=8).
inline int ArgInt(int argc, char** argv, const std::string& flag,
                  int fallback) {
  return static_cast<int>(ArgDouble(argc, argv, flag, fallback));
}

// True when a bare "--flag" (no value) is present.
inline bool ArgFlag(int argc, char** argv, const std::string& flag) {
  const std::string want = "--" + flag;
  for (int i = 1; i < argc; i++) {
    if (want == argv[i]) {
      return true;
    }
  }
  return false;
}

// Wall-clock perf harness (docs/PERF.md). Declare first in main():
//
//   PerfScope perf(argc, argv, "fig06_randwrite");
//
// When "--perf" was passed, the destructor writes BENCH_<name>.json into the
// working directory with wall time, event-engine throughput, and simulated-IO
// throughput, and prints a one-line summary. Without --perf it is inert, so
// bench stdout stays byte-identical to the pre-harness output.
class PerfScope {
 public:
  PerfScope(int argc, char** argv, std::string name)
      : name_(std::move(name)),
        enabled_(ArgFlag(argc, argv, "perf")),
        start_(std::chrono::steady_clock::now()) {}

  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

  ~PerfScope() {
    if (!enabled_) {
      return;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const PerfTotals& totals = GlobalPerfTotals();
    const double events_per_sec =
        wall > 0 ? static_cast<double>(totals.events) / wall : 0.0;
    const double ios_per_sec =
        wall > 0 ? static_cast<double>(totals.sim_ios) / wall : 0.0;
#ifdef NDEBUG
    const char* build_type = "opt";
#else
    const char* build_type = "debug";
#endif
    // ru_maxrss is KiB on Linux; peak RSS covers the whole process (maps,
    // caches, simulator state), so regressions in any of them show up here.
    struct rusage usage {};
    const uint64_t peak_rss_bytes =
        getrusage(RUSAGE_SELF, &usage) == 0
            ? static_cast<uint64_t>(usage.ru_maxrss) * 1024
            : 0;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\"bench\":\"%s\",\"wall_seconds\":%.6f,"
                 "\"events\":%llu,\"events_per_sec\":%.1f,"
                 "\"sim_ios\":%llu,\"sim_ios_per_sec\":%.1f,"
                 "\"sim_seconds\":%.6f,"
                 "\"peak_rss_bytes\":%llu,\"map_resident_bytes\":%llu,"
                 "\"crc32c_impl\":\"%s\",\"build_type\":\"%s\"}\n",
                 name_.c_str(), wall,
                 static_cast<unsigned long long>(totals.events),
                 events_per_sec,
                 static_cast<unsigned long long>(totals.sim_ios), ios_per_sec,
                 totals.sim_seconds,
                 static_cast<unsigned long long>(peak_rss_bytes),
                 static_cast<unsigned long long>(GlobalMapResidentBytes()),
                 Crc32cImplName(), build_type);
    std::fclose(f);
    std::printf("[perf] %s: %.3fs wall, %.3gM events (%.3gM/s), "
                "%llu sim IOs (%.3gK/s), %.3g sim-s -> %s\n",
                name_.c_str(), wall,
                static_cast<double>(totals.events) / 1e6, events_per_sec / 1e6,
                static_cast<unsigned long long>(totals.sim_ios),
                ios_per_sec / 1e3, totals.sim_seconds, path.c_str());
  }

 private:
  std::string name_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

// Uniform metrics dump: when "--json" was passed, prints the whole world
// registry as one JSON object on a single line (machine-parseable; see
// docs/METRICS.md). Call at the end of main, after the last workload.
inline void MaybeDumpMetrics(const World& world, int argc, char** argv) {
  if (ArgFlag(argc, argv, "json")) {
    std::printf("%s\n", world.metrics.ToJson().c_str());
  }
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper.c_str());
  std::printf("setup: Table 1 — client 800G NVMe cache + 10GbE;"
              " backends: config#1 32-SSD pool / config#2 62-HDD pool\n\n");
}

}  // namespace bench
}  // namespace lsvd

#endif  // BENCH_COMMON_H_
