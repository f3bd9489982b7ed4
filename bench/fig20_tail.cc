// Figure 20 (extension): open-loop tail latency vs offered load — fixed vs
// adaptive group commit.
//
// The paper's fio numbers (figs 6-10) are closed-loop: a fixed queue depth
// measures service time, and offered load collapses to whatever the system
// completes. Production virtual-disk clients are open-loop — they issue when
// *they* decide — and under bursts the host-side queue, not the device, sets
// p99/p99.9. This bench drives 4 KiB random writes from a Poisson burst
// arrival process (src/workload/arrival.h) at several offered loads and
// reports the client-observed latency distribution:
//   - LSVD with default (fixed) sealing,
//   - LSVD with adaptive batching (plug/seal deadline, journal flush
//     coalescing, small-write fast path; DESIGN.md §12),
//   - bcache+RBD as the baseline system,
// plus closed-loop QD16 rows for contrast with the paper's methodology.
// Expected shape: at low-to-moderate load, adaptive sealing cuts LSVD's
// open-loop p99 (a lone write no longer waits out the plug heuristic);
// at saturation the queue dominates and all systems degrade together.
#include <string>
#include <vector>

#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

// Host-side concurrency bound for the open-loop driver: a virtio-style
// submission queue. Arrivals beyond this wait in the host queue, split out
// as "w.queue_us" vs "w.service_us".
constexpr int kOpenLoopDepth = 64;

struct CellResult {
  double kiops = 0;       // achieved completion rate
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double queue_p99_us = 0;  // open loop only: host-queue wait
  std::string metrics_json;
};

enum class Sys { kLsvdFixed, kLsvdAdaptive, kBcache };

const char* SysName(Sys s) {
  switch (s) {
    case Sys::kLsvdFixed:
      return "lsvd fixed";
    case Sys::kLsvdAdaptive:
      return "lsvd adaptive";
    case Sys::kBcache:
      return "bcache+rbd";
  }
  return "?";
}

// One (system, mode, load) cell gets its own world so cells are independent
// and deterministic regardless of ordering.
CellResult RunCell(Sys sys, bool open_loop, double rate_iops, double seconds,
                   uint64_t volume, double seal_deadline_us, bool want_json) {
  World world(ClusterConfig::SsdPool());

  LsvdSystem lsvd_sys;
  BcacheRbdSystem bcache_sys;
  VirtualDisk* disk = nullptr;
  if (sys == Sys::kBcache) {
    bcache_sys = BcacheRbdSystem::Create(&world, volume, kSmallCache);
    disk = bcache_sys.bcache.get();
  } else {
    LsvdConfig config = DefaultLsvdConfig(volume, kSmallCache);
    if (sys == Sys::kLsvdAdaptive) {
      config.batch_seal_deadline = FromSeconds(seal_deadline_us * 1e-6);
    }
    lsvd_sys = LsvdSystem::Create(&world, config);
    disk = lsvd_sys.disk.get();
  }
  Precondition(&world, disk);

  // Pre-create the driver's latency histograms with log-linear sub-buckets
  // (sub_bits=6, ~1.6% resolution) so p99.9 is not quantized to powers of
  // two; the driver's GetHistogram then resolves these instances.
  world.metrics.GetHistogram("w.write_us", 6);
  world.metrics.GetHistogram("w.queue_us", 6);
  world.metrics.GetHistogram("w.service_us", 6);

  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandWrite;
  fio.block_size = 4 * kKiB;
  fio.volume_size = volume;
  const Nanos deadline = world.sim.now() + FromSeconds(seconds);
  Driver driver(&world.sim, disk, MakeFioGen(fio), /*queue_depth=*/16,
                deadline, &world.metrics, "w");
  if (open_loop) {
    ArrivalConfig arrivals;
    arrivals.profile = ArrivalConfig::Profile::kBurst;
    arrivals.rate = rate_iops;
    // Several burst cycles per run: 4x the mean rate for the first fifth of
    // each period.
    arrivals.period = FromSeconds(seconds / 5.0);
    arrivals.burst_duration = arrivals.period / 5;
    arrivals.multiplier = 4.0;
    driver.EnableOpenLoop(arrivals, kOpenLoopDepth);
  }

  bool done = false;
  driver.Run([&] { done = true; });
  world.sim.Run();
  if (!done) {
    std::fprintf(stderr, "fig20 cell stalled\n");
    std::abort();
  }
  GlobalPerfTotals().sim_ios += driver.stats().ops;

  const MetricsSnapshot snap = world.metrics.Snapshot();
  CellResult r;
  r.kiops = driver.stats().Iops() / 1e3;
  r.p50_us = snap.Percentile("w.write_us", 0.50);
  r.p99_us = snap.Percentile("w.write_us", 0.99);
  r.p999_us = snap.Percentile("w.write_us", 0.999);
  if (open_loop) {
    r.queue_p99_us = snap.Percentile("w.queue_us", 0.99);
  }
  if (want_json) {
    r.metrics_json = world.metrics.ToJson();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  PerfScope perf(argc, argv, "fig20_tail");
  const bool smoke = ArgFlag(argc, argv, "smoke");
  const double seconds = ArgDouble(argc, argv, "seconds", smoke ? 0.05 : 2.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib",
                                   smoke ? 0.25 : 4.0);
  const double seal_deadline_us =
      ArgDouble(argc, argv, "seal-deadline-us", 500.0);
  const bool want_json = ArgFlag(argc, argv, "json");

  PrintHeader("fig20_tail",
              "extension — open-loop bursty arrivals, tail latency vs offered "
              "load, fixed vs adaptive group commit");
  std::printf("4K randwrite; open loop: Poisson bursts (4x rate, 1/5 duty), "
              "host QD cap %d; closed loop: QD16; %gs per cell, %g GiB "
              "volumes; adaptive seal deadline %g us\n\n",
              kOpenLoopDepth, seconds, vol_gib, seal_deadline_us);

  const auto volume =
      static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  std::vector<double> loads_kiops =
      smoke ? std::vector<double>{5, 20} : std::vector<double>{10, 15, 60};

  Table table({"system", "mode", "offered kIOPS", "done kIOPS", "p50 us",
               "p99 us", "p99.9 us", "queue p99 us"});
  auto row = [&](Sys sys, const char* mode, double offered,
                 const CellResult& r) {
    table.AddRow({SysName(sys), mode,
                  offered > 0 ? Table::Fmt(offered, 0) : "-",
                  Table::Fmt(r.kiops, 1), Table::Fmt(r.p50_us, 0),
                  Table::Fmt(r.p99_us, 0), Table::Fmt(r.p999_us, 0),
                  offered > 0 ? Table::Fmt(r.queue_p99_us, 0) : "-"});
  };

  // Closed-loop contrast rows (the paper's methodology).
  for (Sys sys : {Sys::kLsvdFixed, Sys::kBcache}) {
    const CellResult r = RunCell(sys, /*open_loop=*/false, 0.0, seconds,
                                 volume, seal_deadline_us,
                                 /*want_json=*/false);
    row(sys, "closed", 0.0, r);
  }

  // Open-loop sweep; the final adaptive cell's world is the one dumped with
  // --json (it carries the new deadline_seals / coalesced_flushes counters).
  std::string json;
  for (size_t i = 0; i < loads_kiops.size(); i++) {
    const double load = loads_kiops[i];
    const bool last = i + 1 == loads_kiops.size();
    for (Sys sys : {Sys::kLsvdFixed, Sys::kLsvdAdaptive, Sys::kBcache}) {
      const bool dump = want_json && last && sys == Sys::kLsvdAdaptive;
      const CellResult r = RunCell(sys, /*open_loop=*/true, load * 1e3,
                                   seconds, volume, seal_deadline_us, dump);
      row(sys, "open", load, r);
      if (dump) {
        json = r.metrics_json;
      }
    }
  }
  table.Print();
  std::printf("\nexpected shape: open-loop p99/p99.9 >> closed-loop at the "
              "same throughput once bursts queue; adaptive sealing cuts "
              "lsvd's open-loop tail at low-to-moderate load and converges "
              "with fixed sealing at saturation\n");

  if (want_json) {
    std::printf("%s\n", json.c_str());
  }
  return 0;
}
