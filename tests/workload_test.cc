// Unit tests for workload generators and the closed- and open-loop driver.
#include <gtest/gtest.h>

#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/filebench.h"
#include "src/workload/fio_gen.h"
#include "src/workload/trace_gen.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

TEST(FioGen, RandWriteStaysAlignedAndBounded) {
  FioConfig config;
  config.pattern = FioConfig::Pattern::kRandWrite;
  config.block_size = 16 * kKiB;
  config.volume_size = kGiB;
  config.max_ops = 500;
  auto gen = MakeFioGen(config);
  WorkloadOp op;
  int count = 0;
  while (gen(&op)) {
    EXPECT_EQ(op.kind, WorkloadOp::Kind::kWrite);
    EXPECT_EQ(op.len, 16 * kKiB);
    EXPECT_EQ(op.offset % (16 * kKiB), 0u);
    EXPECT_LE(op.offset + op.len, kGiB);
    count++;
  }
  EXPECT_EQ(count, 500);
}

TEST(FioGen, SequentialAdvancesAndWraps) {
  FioConfig config;
  config.pattern = FioConfig::Pattern::kSeqWrite;
  config.block_size = 64 * kKiB;
  config.volume_size = 256 * kKiB;  // 4 blocks: wraps quickly
  config.max_ops = 6;
  auto gen = MakeFioGen(config);
  WorkloadOp op;
  std::vector<uint64_t> offsets;
  while (gen(&op)) {
    offsets.push_back(op.offset);
  }
  EXPECT_EQ(offsets, (std::vector<uint64_t>{0, 65536, 131072, 196608, 0,
                                            65536}));
}

TEST(FioGen, ByteBudgetStops) {
  FioConfig config;
  config.pattern = FioConfig::Pattern::kRandRead;
  config.block_size = 4 * kKiB;
  config.volume_size = kMiB;
  config.max_bytes = 40 * kKiB;
  auto gen = MakeFioGen(config);
  WorkloadOp op;
  uint64_t bytes = 0;
  while (gen(&op)) {
    bytes += op.len;
  }
  EXPECT_EQ(bytes, 40 * kKiB);
}

TEST(PreconditionGen, CoversWholeVolumeOnce) {
  auto gen = MakePreconditionGen(10 * kMiB, kMiB);
  WorkloadOp op;
  uint64_t covered = 0;
  uint64_t expected_offset = 0;
  while (gen(&op)) {
    EXPECT_EQ(op.offset, expected_offset);
    expected_offset += op.len;
    covered += op.len;
  }
  EXPECT_EQ(covered, 10 * kMiB);
}

TEST(Filebench, ProfilesMatchTable3Statistics) {
  for (const auto& profile :
       {FilebenchProfile::Fileserver(), FilebenchProfile::Oltp(),
        FilebenchProfile::Varmail()}) {
    auto gen = MakeFilebenchGen(profile, 32 * kGiB, 7);
    WorkloadOp op;
    uint64_t writes = 0;
    uint64_t write_bytes = 0;
    uint64_t flushes = 0;
    for (int i = 0; i < 200000; i++) {
      ASSERT_TRUE(gen(&op));
      if (op.kind == WorkloadOp::Kind::kWrite) {
        writes++;
        write_bytes += op.len;
        EXPECT_EQ(op.offset % kBlockSize, 0u);
        EXPECT_EQ(op.len % kBlockSize, 0u);
      } else if (op.kind == WorkloadOp::Kind::kFlush) {
        flushes++;
      }
    }
    ASSERT_GT(writes, 0u) << profile.name;
    const double mean_write =
        static_cast<double>(write_bytes) / static_cast<double>(writes);
    // The mean is coarse (block-aligned exponential), allow 40% error.
    EXPECT_NEAR(mean_write, profile.mean_write_size,
                profile.mean_write_size * 0.4)
        << profile.name;
    if (profile.writes_per_sync < 1000) {
      ASSERT_GT(flushes, 0u) << profile.name;
      const double per_sync =
          static_cast<double>(writes) / static_cast<double>(flushes);
      EXPECT_NEAR(per_sync, profile.writes_per_sync,
                  profile.writes_per_sync * 0.3)
          << profile.name;
    }
  }
}

TEST(Filebench, VarmailIsSyncHeavy) {
  auto gen = MakeFilebenchGen(FilebenchProfile::Varmail(), kGiB, 3);
  WorkloadOp op;
  uint64_t flushes = 0;
  for (int i = 0; i < 10000; i++) {
    ASSERT_TRUE(gen(&op));
    if (op.kind == WorkloadOp::Kind::kFlush) {
      flushes++;
    }
  }
  EXPECT_GT(flushes, 500u);  // roughly one flush per ~12 ops
}

TEST(TraceGen, RespectsBudgetAndFootprint) {
  for (const auto& profile : TraceProfile::Table5()) {
    auto stream = MakeTraceStream(profile, /*scale=*/64, 5);
    uint64_t vlba = 0;
    uint64_t len = 0;
    uint64_t total = 0;
    uint64_t max_end = 0;
    while (stream(&vlba, &len)) {
      total += len;
      max_end = std::max(max_end, vlba + len);
      ASSERT_EQ(vlba % kBlockSize, 0u) << profile.name;
      ASSERT_EQ(len % kBlockSize, 0u) << profile.name;
    }
    EXPECT_GE(total, profile.total_write_bytes / 64) << profile.name;
    EXPECT_LE(max_end, profile.footprint / 64 + 8 * kMiB) << profile.name;
  }
}

TEST(TraceGen, OverwriteProfileIsCoalescable) {
  // w41 has immediate_overwrite = 0.71: many repeats of recent writes.
  TraceProfile w41;
  for (const auto& t : TraceProfile::Table5()) {
    if (t.name == "w41") {
      w41 = t;
    }
  }
  auto stream = MakeTraceStream(w41, 512, 9);
  uint64_t vlba = 0;
  uint64_t len = 0;
  std::map<uint64_t, int> seen;
  uint64_t repeats = 0;
  uint64_t ops = 0;
  while (stream(&vlba, &len)) {
    ops++;
    if (seen[vlba]++ > 0) {
      repeats++;
    }
  }
  ASSERT_GT(ops, 100u);
  EXPECT_GT(static_cast<double>(repeats) / static_cast<double>(ops), 0.4);
}

TEST(Arrival, PoissonGapsHaveExponentialMeanAndVariance) {
  // Constant profile: inter-arrival gaps are iid Exponential(1/rate), so the
  // sample mean is 1/rate and the sample variance is (1/rate)^2.
  ArrivalConfig config;
  config.profile = ArrivalConfig::Profile::kConstant;
  config.rate = 10000.0;  // mean gap 100 us
  config.seed = 42;
  ArrivalProcess arrivals(config);
  const int n = 20000;
  std::vector<double> gaps;
  Nanos prev = 0;
  for (int i = 0; i < n; i++) {
    const Nanos t = arrivals.Next();
    ASSERT_GT(t, prev);  // strictly increasing
    gaps.push_back(ToSeconds(t - prev));
    prev = t;
  }
  double sum = 0;
  for (const double g : gaps) {
    sum += g;
  }
  const double mean = sum / n;
  double var = 0;
  for (const double g : gaps) {
    var += (g - mean) * (g - mean);
  }
  var /= n - 1;
  const double expect_mean = 1.0 / config.rate;
  EXPECT_NEAR(mean, expect_mean, expect_mean * 0.03);
  EXPECT_NEAR(var, expect_mean * expect_mean,
              expect_mean * expect_mean * 0.10);
}

TEST(Arrival, ThinningPreservesLongRunMeanRate) {
  // Burst profile long-run rate = rate * (1 + (multiplier-1) * duty_cycle).
  ArrivalConfig config;
  config.profile = ArrivalConfig::Profile::kBurst;
  config.rate = 5000.0;
  config.period = 10 * kMillisecond;
  config.burst_duration = 2 * kMillisecond;  // 20% duty
  config.multiplier = 4.0;
  config.seed = 7;
  ArrivalProcess arrivals(config);
  const Nanos horizon = 4 * kSecond;
  uint64_t count = 0;
  while (arrivals.Next() < horizon) {
    count++;
  }
  const double expected =
      config.rate * (1.0 + (config.multiplier - 1.0) * 0.2) *
      ToSeconds(horizon);
  EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.05);
}

TEST(Arrival, RateAtFollowsProfile) {
  ArrivalConfig burst;
  burst.profile = ArrivalConfig::Profile::kBurst;
  burst.rate = 1000.0;
  burst.period = 10 * kMillisecond;
  burst.burst_duration = kMillisecond;
  burst.multiplier = 8.0;
  ArrivalProcess bp(burst);
  EXPECT_DOUBLE_EQ(bp.RateAt(0), 8000.0);
  EXPECT_DOUBLE_EQ(bp.RateAt(5 * kMillisecond), 1000.0);
  EXPECT_DOUBLE_EQ(bp.RateAt(10 * kMillisecond), 8000.0);  // periodic

  ArrivalConfig diurnal;
  diurnal.profile = ArrivalConfig::Profile::kDiurnal;
  diurnal.rate = 1000.0;
  diurnal.period = 4 * kSecond;
  diurnal.depth = 0.5;
  ArrivalProcess dp(diurnal);
  EXPECT_NEAR(dp.RateAt(kSecond), 1500.0, 1e-6);      // sin peak at T/4
  EXPECT_NEAR(dp.RateAt(3 * kSecond), 500.0, 1e-6);   // trough at 3T/4
}

TEST(Arrival, SameSeedSameSequence) {
  ArrivalConfig config;
  config.profile = ArrivalConfig::Profile::kDiurnal;
  config.rate = 2000.0;
  config.period = kSecond;
  config.depth = 0.8;
  config.seed = 99;
  ArrivalProcess a(config);
  ArrivalProcess b(config);
  for (int i = 0; i < 1000; i++) {
    ASSERT_EQ(a.Next(), b.Next()) << "diverged at arrival " << i;
  }
  ArrivalConfig other = config;
  other.seed = 100;
  ArrivalProcess a2(config);
  ArrivalProcess c(other);
  bool differs = false;
  for (int i = 0; i < 100 && !differs; i++) {
    differs = a2.Next() != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(Driver, RunsWorkloadToCompletion) {
  TestWorld world;
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  LsvdDisk disk(&world.host, &world.store, config);
  ASSERT_TRUE(OpenSync(&world.sim, &disk, &LsvdDisk::Create).ok());

  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandWrite;
  fio.block_size = 16 * kKiB;
  fio.volume_size = disk.size();
  fio.max_ops = 200;
  Driver driver(&world.sim, &disk, MakeFioGen(fio), /*queue_depth=*/8);
  bool done = false;
  driver.Run([&] { done = true; });
  world.sim.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(driver.stats().ops, 200u);
  EXPECT_EQ(driver.stats().bytes_written, 200u * 16 * kKiB);
  EXPECT_EQ(disk.stats().writes, 200u);
}

TEST(Driver, DeadlineStopsLongWorkload) {
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = 8 * kGiB;
  hc.ssd = SsdParams::P3700();  // realistic latency so time passes
  ClientHost host(&sim, hc);
  MemObjectStore store(&sim);
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  LsvdDisk disk(&host, &store, config);
  ASSERT_TRUE(OpenSync(&sim, &disk, &LsvdDisk::Create).ok());

  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandWrite;
  fio.block_size = 4 * kKiB;
  fio.volume_size = disk.size();
  Driver driver(&sim, &disk, MakeFioGen(fio), 4,
                /*deadline=*/sim.now() + 50 * kMillisecond);
  bool done = false;
  driver.Run([&] { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(driver.stats().ops, 0u);
  EXPECT_LE(driver.stats().finished_at, sim.now());
}

namespace openloop {

// One complete open-loop run against a realistic-latency LSVD volume with
// adaptive batching on; returns the full metrics dump so determinism checks
// cover arrivals, queueing split, and every component counter at once.
std::string RunOnce(uint64_t seed, uint64_t* ops_out = nullptr) {
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = 8 * kGiB;
  hc.ssd = SsdParams::P3700();  // realistic latency so queues actually form
  ClientHost host(&sim, hc);
  MemObjectStore store(&sim);
  MetricsRegistry metrics;
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  config.batch_seal_deadline = 200 * kMicrosecond;
  LsvdDisk disk(&host, &store, config, &metrics);
  EXPECT_TRUE(OpenSync(&sim, &disk, &LsvdDisk::Create).ok());

  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandWrite;
  fio.block_size = 4 * kKiB;
  fio.volume_size = disk.size();
  Driver driver(&sim, &disk, MakeFioGen(fio), /*queue_depth=*/8,
                /*deadline=*/sim.now() + 50 * kMillisecond, &metrics, "drv");
  ArrivalConfig arrivals;
  arrivals.profile = ArrivalConfig::Profile::kBurst;
  arrivals.rate = 20000.0;
  arrivals.period = 10 * kMillisecond;
  arrivals.burst_duration = 2 * kMillisecond;
  arrivals.multiplier = 4.0;
  arrivals.seed = seed;
  driver.EnableOpenLoop(arrivals, /*max_outstanding=*/32);
  bool done = false;
  driver.Run([&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_GT(driver.stats().ops, 0u);
  if (ops_out != nullptr) {
    *ops_out = driver.stats().ops;
  }
  return metrics.ToJson();
}

}  // namespace openloop

TEST(Driver, OpenLoopCompletesAndSplitsQueueing) {
  uint64_t ops = 0;
  const std::string json = openloop::RunOnce(7, &ops);
  // ~20k/s * 50ms * burst uplift => on the order of a thousand arrivals.
  EXPECT_GT(ops, 500u);
  // Open-loop mode registers the queue/service split alongside the
  // client-observed totals.
  EXPECT_NE(json.find("drv.queue_us"), std::string::npos);
  EXPECT_NE(json.find("drv.service_us"), std::string::npos);
  EXPECT_NE(json.find("drv.write_us"), std::string::npos);
}

TEST(Driver, OpenLoopSameSeedIsFullyDeterministic) {
  // The whole world dump — arrival-driven op counts, latency histograms,
  // component counters — must be byte-identical across runs with one seed,
  // and must differ for another seed (different arrival sequence).
  const std::string a = openloop::RunOnce(7);
  const std::string b = openloop::RunOnce(7);
  EXPECT_EQ(a, b);
  const std::string c = openloop::RunOnce(8);
  EXPECT_NE(a, c);
}

TEST(Driver, TimelineBucketsAccumulateBytes) {
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = 8 * kGiB;
  hc.ssd = SsdParams::P3700();
  ClientHost host(&sim, hc);
  MemObjectStore store(&sim);
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  LsvdDisk disk(&host, &store, config);
  ASSERT_TRUE(OpenSync(&sim, &disk, &LsvdDisk::Create).ok());

  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kSeqWrite;
  fio.block_size = 64 * kKiB;
  fio.volume_size = disk.size();
  fio.max_ops = 100;
  Driver driver(&sim, &disk, MakeFioGen(fio), 4);
  driver.EnableTimeline(10 * kMillisecond);
  bool done = false;
  driver.Run([&] { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  uint64_t total = 0;
  for (const uint64_t b : driver.write_timeline()) {
    total += b;
  }
  EXPECT_EQ(total, 100u * 64 * kKiB);
}

}  // namespace
}  // namespace lsvd
