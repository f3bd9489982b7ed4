// Crash-recovery torture harness.
//
// Each case runs a seeded random workload of stamped writes against a fresh
// disk, kills the client after a random number of simulator steps (optionally
// with backend fault injection active), re-opens the volume via OpenAfterCrash
// or OpenCacheLost, and checks the recovered image against a shadow model:
//
//  - Every 4 KiB block is either untouched (all zero) or carries the full
//    stamp of exactly one write from the plan (write index + absolute block
//    address, repeated through the block).  Journal replay is record-atomic,
//    so a partially applied write is an integrity error.
//  - The image as a whole must equal a replay of the first M plan writes,
//    where M is the highest stamp observed.  This is the prefix-consistency
//    rule of §3.3: recovery may lose a tail of the write history but must
//    never lose a write that a later surviving write follows.
//  - OpenAfterCrash must additionally recover at least every acknowledged
//    write (client crash keeps the SSD journal), or at least every write
//    covered by a completed flush barrier when the SSD also loses power.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "src/lsvd/lsvd_disk.h"
#include "src/objstore/faulty_object_store.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

constexpr uint64_t kStampBlock = 4096;
constexpr uint64_t kStampRegion = 4 * kMiB;  // all writes land in this window
constexpr size_t kNumWrites = 64;
constexpr int kQueueDepth = 4;
constexpr size_t kFlushEvery = 9;  // a flush barrier every N writes
constexpr uint64_t kStepCap = 20'000'000;

struct PlannedWrite {
  uint64_t vlba;
  uint64_t len;
  bool is_trim = false;  // TRIM op: zeros the range instead of stamping it
};

std::vector<PlannedWrite> MakePlan(uint64_t seed, bool with_trims = false) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<PlannedWrite> plan;
  plan.reserve(kNumWrites);
  for (size_t i = 0; i < kNumWrites; i++) {
    const uint64_t len = (1 + rng.Uniform(8)) * kStampBlock;  // 4..32 KiB
    const uint64_t max_block = (kStampRegion - len) / kStampBlock;
    const uint64_t vlba = rng.Uniform(max_block + 1) * kStampBlock;
    // ~1 in 4 ops is a trim (never the first: give it something to punch).
    const bool is_trim = with_trims && i > 0 && rng.Bernoulli(0.25);
    plan.push_back({vlba, len, is_trim});
  }
  return plan;
}

// Fills every 4 KiB block of the write with a 16-byte record (stamp, absolute
// block address) repeated to the end of the block.
Buffer StampPayload(uint64_t stamp, uint64_t vlba, uint64_t len) {
  std::vector<uint8_t> bytes(len);
  for (uint64_t off = 0; off < len; off += kStampBlock) {
    const uint64_t addr = vlba + off;
    for (uint64_t rec = 0; rec < kStampBlock; rec += 16) {
      for (int b = 0; b < 8; b++) {
        bytes[off + rec + static_cast<uint64_t>(b)] =
            static_cast<uint8_t>(stamp >> (8 * b));
        bytes[off + rec + 8 + static_cast<uint64_t>(b)] =
            static_cast<uint8_t>(addr >> (8 * b));
      }
    }
  }
  return Buffer::FromBytes(bytes);
}

// Shadow model: the per-block stamps left behind by replaying the first
// `prefix` writes of the plan over an all-zero volume.
std::vector<uint64_t> ReplayStamps(const std::vector<PlannedWrite>& plan,
                                   size_t prefix) {
  std::vector<uint64_t> stamps(kStampRegion / kStampBlock, 0);
  for (size_t i = 0; i < prefix && i < plan.size(); i++) {
    for (uint64_t off = 0; off < plan[i].len; off += kStampBlock) {
      // A trim returns the block to the never-written (all-zero) state.
      stamps[(plan[i].vlba + off) / kStampBlock] =
          plan[i].is_trim ? 0 : i + 1;
    }
  }
  return stamps;
}

// Parses the recovered image into per-block stamps, failing the test on any
// internally inconsistent block (torn write, wrong address, garbage).
std::vector<uint64_t> ObservedStamps(const std::vector<uint8_t>& image) {
  const size_t blocks = image.size() / kStampBlock;
  std::vector<uint64_t> observed(blocks, 0);
  for (size_t b = 0; b < blocks; b++) {
    const uint8_t* blk = image.data() + b * kStampBlock;
    uint64_t stamp = 0;
    uint64_t addr = 0;
    for (int i = 0; i < 8; i++) {
      stamp |= static_cast<uint64_t>(blk[i]) << (8 * i);
      addr |= static_cast<uint64_t>(blk[8 + i]) << (8 * i);
    }
    if (stamp == 0) {
      // Never-written block: must be all zero.
      for (size_t i = 0; i < kStampBlock; i++) {
        if (blk[i] != 0) {
          ADD_FAILURE() << "block " << b << " partially zero at byte " << i;
          break;
        }
      }
      continue;
    }
    EXPECT_EQ(addr, b * kStampBlock) << "block " << b << " carries a stamp "
                                     << "for a different address";
    for (size_t off = 16; off < kStampBlock; off += 16) {
      if (std::memcmp(blk, blk + off, 16) != 0) {
        ADD_FAILURE() << "block " << b << " is internally torn at offset "
                      << off;
        break;
      }
    }
    observed[b] = stamp;
  }
  return observed;
}

// Closed-loop workload driver: keeps kQueueDepth writes in flight, issues a
// flush barrier every kFlushEvery writes, and records progress.  Held in a
// shared_ptr so callbacks outliving a crash stay safe; `dead` mutes them.
struct Runner {
  LsvdDisk* disk = nullptr;
  std::vector<PlannedWrite> plan;
  size_t next = 0;
  int inflight = 0;
  size_t acked = 0;          // writes acked, in issue order
  size_t write_failures = 0;
  size_t flush_durable = 0;  // acked count covered by a completed flush
  bool dead = false;
};

void Pump(std::shared_ptr<Runner> st) {
  while (!st->dead && st->inflight < kQueueDepth &&
         st->next < st->plan.size()) {
    const size_t i = st->next++;
    const PlannedWrite w = st->plan[i];
    st->inflight++;
    auto on_done = [st](Status s) {
      if (st->dead) {
        return;
      }
      st->inflight--;
      if (s.ok()) {
        st->acked++;
      } else {
        st->write_failures++;
      }
      Pump(st);
    };
    if (w.is_trim) {
      st->disk->Trim(w.vlba, w.len, on_done);
    } else {
      st->disk->Write(w.vlba, StampPayload(i + 1, w.vlba, w.len), on_done);
    }
    if ((i + 1) % kFlushEvery == 0) {
      // Writes acked before the barrier was issued are durable once it
      // completes, even if the SSD later loses power.
      const size_t acked_at_issue = st->acked;
      st->disk->Flush([st, acked_at_issue](Status s) {
        if (st->dead || !s.ok()) {
          return;
        }
        if (acked_at_issue > st->flush_durable) {
          st->flush_durable = acked_at_issue;
        }
      });
    }
  }
}

LsvdConfig TortureConfig() {
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  config.batch_bytes = 128 * kKiB;  // several backend objects per run
  config.checkpoint_interval_objects = 4;
  // Keep retry backoff tight so faulty runs stay small in simulated time.
  config.retry.initial_backoff = kMillisecond;
  config.retry.max_backoff = 16 * kMillisecond;
  config.retry.degraded_probe_interval = 10 * kMillisecond;
  return config;
}

FaultInjectionConfig TortureFaults(uint64_t seed) {
  FaultInjectionConfig fc;
  fc.seed = seed * 977 + 13;
  fc.put_error_p = 0.10;
  fc.get_error_p = 0.05;
  fc.torn_put_p = 0.02;
  fc.added_latency_min = 0;
  fc.added_latency_max = 2 * kMillisecond;
  return fc;
}

// One seeded workload world.  The same (seed, faults) pair always produces
// the identical event trajectory, which lets a dry run to completion measure
// the total step count so a crash point can be drawn uniformly from it.
struct TortureWorld {
  TestWorld world;
  std::unique_ptr<FaultyObjectStore> faulty;
  std::unique_ptr<LsvdDisk> disk;
  std::shared_ptr<Runner> runner;

  TortureWorld(uint64_t seed, const LsvdConfig& config, bool with_faults,
               bool with_trims = false) {
    ObjectStore* store = &world.store;
    if (with_faults) {
      faulty = std::make_unique<FaultyObjectStore>(&world.store, &world.sim,
                                                   TortureFaults(seed));
      store = faulty.get();
    }
    disk = std::make_unique<LsvdDisk>(&world.host, store, config);
    EXPECT_TRUE(OpenSync(&world.sim, disk.get(), &LsvdDisk::Create).ok());
    runner = std::make_shared<Runner>();
    runner->disk = disk.get();
    runner->plan = MakePlan(seed, with_trims);
    Pump(runner);
  }

  // Steps until the simulator drains (or `limit` steps); returns steps taken.
  uint64_t StepUpTo(uint64_t limit) {
    uint64_t steps = 0;
    while (steps < limit && world.sim.Step()) {
      steps++;
    }
    EXPECT_LT(steps, kStepCap) << "workload failed to quiesce";
    return steps;
  }
};

uint64_t DryRunTotalSteps(uint64_t seed, const LsvdConfig& config,
                          bool with_faults, bool with_trims = false) {
  TortureWorld dry(seed, config, with_faults, with_trims);
  return dry.StepUpTo(kStepCap);
}

std::vector<uint8_t> ReadImage(Simulator* sim, LsvdDisk* disk) {
  auto r = ReadSync(sim, disk, 0, kStampRegion);
  EXPECT_TRUE(r.ok()) << r.status().message();
  if (!r.ok()) {
    return std::vector<uint8_t>(kStampRegion, 0);
  }
  return r->ToBytes();
}

// Checks the prefix-consistency invariant and returns the recovered prefix
// length M (in writes).
size_t CheckPrefixConsistent(const std::vector<PlannedWrite>& plan,
                             const std::vector<uint8_t>& image) {
  const std::vector<uint64_t> observed = ObservedStamps(image);
  uint64_t max_stamp = 0;
  for (uint64_t s : observed) {
    max_stamp = std::max(max_stamp, s);
  }
  EXPECT_LE(max_stamp, plan.size());
  // The recovered prefix length is not directly observable when the plan
  // contains trims (a trailing trim leaves no stamp), so accept the longest
  // prefix P >= max_stamp whose replay matches the image. For trim-free
  // plans only P == max_stamp can match (write P always leaves its stamp),
  // so this is exactly the historical check.
  for (size_t p = plan.size() + 1; p-- > max_stamp;) {
    if (ReplayStamps(plan, p) == observed) {
      return p;
    }
  }
  const std::vector<uint64_t> expected = ReplayStamps(plan, max_stamp);
  ADD_FAILURE() << "image is not a replay of any plan prefix >= "
                << max_stamp;
  for (size_t b = 0; b < observed.size(); b++) {
    if (observed[b] != expected[b]) {
      fprintf(stderr, "block %zu: observed %llu expected %llu\n", b,
              (unsigned long long)observed[b],
              (unsigned long long)expected[b]);
    }
  }
  return max_stamp;
}

// Adaptive group commit (DESIGN.md §12) with deliberately aggressive
// deadlines, so crash windows are full of deadline-sealed partial batches,
// force-started journal records, and coalesced barrier flushes.
LsvdConfig AdaptiveTortureConfig() {
  LsvdConfig config = TortureConfig();
  config.batch_seal_deadline = 500 * kMicrosecond;
  return config;
}

enum class CrashMode { kClientOnly, kClientAndPower };

// Runs the workload, crashes at a seed-chosen random step, reopens via
// OpenAfterCrash on the surviving host, and verifies the recovered image.
void TortureAfterCrash(uint64_t seed, bool with_faults, CrashMode mode,
                       const LsvdConfig& config = TortureConfig(),
                       bool with_trims = false) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const uint64_t total =
      DryRunTotalSteps(seed, config, with_faults, with_trims);
  ASSERT_GT(total, 0u);
  Rng crash_rng(seed ^ 0xC4A5481DEAD5EEDull);
  const uint64_t crash_step = crash_rng.UniformRange(1, total + 1);

  TortureWorld t(seed, config, with_faults, with_trims);
  t.StepUpTo(crash_step);
  t.runner->dead = true;
  const DiskRegions regions = t.disk->regions();
  t.disk->Kill();
  if (mode == CrashMode::kClientAndPower) {
    t.world.host.ssd()->PowerFail();
  }
  t.world.sim.Run();  // drain stale in-flight events

  // Recovery talks to the real store: the backend's own transient faults are
  // a workload-phase concern, but torn objects it left behind persist.
  LsvdDisk recovered(&t.world.host, &t.world.store, config, regions);
  const Status open =
      OpenSync(&t.world.sim, &recovered, &LsvdDisk::OpenAfterCrash);
  ASSERT_TRUE(open.ok()) << open.message();

  const std::vector<uint8_t> image = ReadImage(&t.world.sim, &recovered);
  const size_t recovered_prefix =
      CheckPrefixConsistent(t.runner->plan, image);
  const size_t floor = mode == CrashMode::kClientAndPower
                           ? t.runner->flush_durable
                           : t.runner->acked;
  EXPECT_GE(recovered_prefix, floor)
      << "lost acknowledged writes (acked=" << t.runner->acked
      << " flush_durable=" << t.runner->flush_durable << ")";
}

// Same crash, but the write cache is gone: recovery sees only the backend.
// The recovered image must still be a replay of some prefix of the plan.
void TortureCacheLost(uint64_t seed, bool with_faults,
                      const LsvdConfig& config = TortureConfig(),
                      bool with_trims = false) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const uint64_t total =
      DryRunTotalSteps(seed, config, with_faults, with_trims);
  ASSERT_GT(total, 0u);
  Rng crash_rng(seed ^ 0x10CACE1057ull);
  const uint64_t crash_step = crash_rng.UniformRange(1, total + 1);

  TortureWorld t(seed, config, with_faults, with_trims);
  t.StepUpTo(crash_step);
  t.runner->dead = true;
  t.disk->Kill();
  t.world.sim.Run();

  ClientHost host2(&t.world.sim, TestWorld::InstantHostConfig());
  LsvdDisk recovered(&host2, &t.world.store, config);
  const Status open =
      OpenSync(&t.world.sim, &recovered, &LsvdDisk::OpenCacheLost);
  ASSERT_TRUE(open.ok()) << open.message();

  const std::vector<uint8_t> image = ReadImage(&t.world.sim, &recovered);
  CheckPrefixConsistent(t.runner->plan, image);
}

TEST(RecoveryTortureTest, AfterCrashRecoversAckedWrites) {
  for (uint64_t seed = 1; seed <= 50; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/false, CrashMode::kClientOnly);
  }
}

TEST(RecoveryTortureTest, AfterCrashWithPowerFailure) {
  for (uint64_t seed = 101; seed <= 125; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/false, CrashMode::kClientAndPower);
  }
}

TEST(RecoveryTortureTest, AfterCrashUnderBackendFaults) {
  for (uint64_t seed = 201; seed <= 220; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/true, CrashMode::kClientOnly);
  }
}

TEST(RecoveryTortureTest, CacheLostRecoversConsistentPrefix) {
  for (uint64_t seed = 301; seed <= 350; seed++) {
    TortureCacheLost(seed, /*with_faults=*/false);
  }
}

TEST(RecoveryTortureTest, CacheLostUnderBackendFaults) {
  for (uint64_t seed = 401; seed <= 420; seed++) {
    TortureCacheLost(seed, /*with_faults=*/true);
  }
}

// --- adaptive group commit under crashes (DESIGN.md §12) ---
//
// Same invariants as above, but with deadline sealing, flush coalescing, and
// the small-write fast path all on: acked writes survive a client crash,
// flush-covered writes survive power loss, and a deadline-sealed partial
// batch must never advance the backend sync watermark past journal records
// whose data the backend does not hold (the ReleaseThrough safety edge).

TEST(RecoveryTortureTest, AdaptiveSealAfterCrashRecoversAckedWrites) {
  for (uint64_t seed = 1301; seed <= 1330; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/false, CrashMode::kClientOnly,
                      AdaptiveTortureConfig());
  }
}

TEST(RecoveryTortureTest, AdaptiveSealAfterCrashWithPowerFailure) {
  for (uint64_t seed = 1401; seed <= 1420; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/false, CrashMode::kClientAndPower,
                      AdaptiveTortureConfig());
  }
}

TEST(RecoveryTortureTest, AdaptiveSealAfterCrashUnderBackendFaults) {
  for (uint64_t seed = 1501; seed <= 1515; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/true, CrashMode::kClientOnly,
                      AdaptiveTortureConfig());
  }
}

TEST(RecoveryTortureTest, AdaptiveSealCacheLostRecoversConsistentPrefix) {
  for (uint64_t seed = 1601; seed <= 1625; seed++) {
    TortureCacheLost(seed, /*with_faults=*/false, AdaptiveTortureConfig());
  }
}

// --- sharded backends (DESIGN.md §9) ---
//
// The same harness over a volume striped across N independent object stores,
// each with its own fault injector. The shadow model is unchanged: sharding
// must be invisible to the prefix-consistency contract.

struct ShardedTortureWorld {
  TestWorld world;  // sim + host (its built-in store is unused here)
  std::vector<std::unique_ptr<MemObjectStore>> mems;
  std::vector<std::unique_ptr<FaultyObjectStore>> faulties;
  std::vector<ObjectStore*> workload_stores;  // faulty wrappers (or raw)
  std::vector<ObjectStore*> raw_stores;       // durable contents
  std::unique_ptr<LsvdDisk> disk;
  std::shared_ptr<Runner> runner;

  ShardedTortureWorld(uint64_t seed, const LsvdConfig& config, size_t shards,
                      bool with_faults, bool with_trims = false) {
    for (size_t i = 0; i < shards; i++) {
      mems.push_back(std::make_unique<MemObjectStore>(&world.sim));
      raw_stores.push_back(mems.back().get());
      if (with_faults) {
        // Distinct fault stream per shard.
        faulties.push_back(std::make_unique<FaultyObjectStore>(
            mems.back().get(), &world.sim, TortureFaults(seed + 7919 * i)));
        workload_stores.push_back(faulties.back().get());
      } else {
        workload_stores.push_back(mems.back().get());
      }
    }
    disk = std::make_unique<LsvdDisk>(&world.host, workload_stores, config);
    EXPECT_TRUE(OpenSync(&world.sim, disk.get(), &LsvdDisk::Create).ok());
    runner = std::make_shared<Runner>();
    runner->disk = disk.get();
    runner->plan = MakePlan(seed, with_trims);
    Pump(runner);
  }

  uint64_t StepUpTo(uint64_t limit) {
    uint64_t steps = 0;
    while (steps < limit && world.sim.Step()) {
      steps++;
    }
    EXPECT_LT(steps, kStepCap) << "workload failed to quiesce";
    return steps;
  }

  // Deletes the highest-sequence data object on one shard, simulating a
  // backend that lost the tail of that shard's stream.
  void LoseShardTail(size_t shard) {
    uint64_t max_seq = 0;
    for (const auto& name : mems[shard]->List(DataObjectPrefix("vol"))) {
      if (auto s = ParseDataObjectSeq("vol", name)) {
        max_seq = std::max(max_seq, *s);
      }
    }
    if (max_seq != 0) {
      mems[shard]->Delete(DataObjectName("vol", max_seq), [](Status) {});
      world.sim.Run();
    }
  }
};

uint64_t ShardedDryRunTotalSteps(uint64_t seed, const LsvdConfig& config,
                                 size_t shards, bool with_faults,
                                 bool with_trims = false) {
  ShardedTortureWorld dry(seed, config, shards, with_faults, with_trims);
  return dry.StepUpTo(kStepCap);
}

// Client crash with the cache surviving: OpenAfterCrash on the shard set
// must recover at least every acknowledged write.
void ShardedTortureAfterCrash(
    uint64_t seed, size_t shards, bool with_faults,
    const std::vector<GcPolicyKind>& shard_policy = {},
    bool with_trims = false) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
               std::to_string(shards));
  LsvdConfig config = TortureConfig();
  config.gc_shard_policy = shard_policy;
  const uint64_t total =
      ShardedDryRunTotalSteps(seed, config, shards, with_faults, with_trims);
  ASSERT_GT(total, 0u);
  Rng crash_rng(seed ^ 0xC4A5481DEAD5EEDull);
  const uint64_t crash_step = crash_rng.UniformRange(1, total + 1);

  ShardedTortureWorld t(seed, config, shards, with_faults, with_trims);
  t.StepUpTo(crash_step);
  t.runner->dead = true;
  const DiskRegions regions = t.disk->regions();
  t.disk->Kill();
  t.world.sim.Run();

  LsvdDisk recovered(&t.world.host, t.raw_stores, config, regions);
  const Status open =
      OpenSync(&t.world.sim, &recovered, &LsvdDisk::OpenAfterCrash);
  ASSERT_TRUE(open.ok()) << open.message();

  const std::vector<uint8_t> image = ReadImage(&t.world.sim, &recovered);
  const size_t recovered_prefix = CheckPrefixConsistent(t.runner->plan, image);
  EXPECT_GE(recovered_prefix, t.runner->acked)
      << "lost acknowledged writes (acked=" << t.runner->acked << ")";
}

// Cache lost: recovery sees only the shard streams; optionally one shard
// also lost its newest object, which must truncate the recovered prefix at
// the gap, never corrupt it.
void ShardedTortureCacheLost(uint64_t seed, size_t shards, bool with_faults,
                             bool lose_one_tail,
                             const std::vector<GcPolicyKind>& shard_policy = {},
                             bool with_trims = false) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
               std::to_string(shards));
  LsvdConfig config = TortureConfig();
  config.gc_shard_policy = shard_policy;
  const uint64_t total =
      ShardedDryRunTotalSteps(seed, config, shards, with_faults, with_trims);
  ASSERT_GT(total, 0u);
  Rng crash_rng(seed ^ 0x10CACE1057ull);
  const uint64_t crash_step = crash_rng.UniformRange(1, total + 1);

  ShardedTortureWorld t(seed, config, shards, with_faults, with_trims);
  t.StepUpTo(crash_step);
  t.runner->dead = true;
  t.disk->Kill();
  t.world.sim.Run();
  if (lose_one_tail) {
    t.LoseShardTail(seed % shards);
  }

  ClientHost host2(&t.world.sim, TestWorld::InstantHostConfig());
  LsvdDisk recovered(&host2, t.raw_stores, config);
  const Status open =
      OpenSync(&t.world.sim, &recovered, &LsvdDisk::OpenCacheLost);
  ASSERT_TRUE(open.ok()) << open.message();

  const std::vector<uint8_t> image = ReadImage(&t.world.sim, &recovered);
  CheckPrefixConsistent(t.runner->plan, image);
}

TEST(ShardedRecoveryTortureTest, AfterCrashRecoversAckedWrites) {
  for (uint64_t seed = 601; seed <= 615; seed++) {
    ShardedTortureAfterCrash(seed, /*shards=*/2, /*with_faults=*/false);
    ShardedTortureAfterCrash(seed, /*shards=*/4, /*with_faults=*/false);
  }
}

TEST(ShardedRecoveryTortureTest, AfterCrashUnderPerShardFaults) {
  for (uint64_t seed = 701; seed <= 710; seed++) {
    ShardedTortureAfterCrash(seed, /*shards=*/4, /*with_faults=*/true);
  }
}

TEST(ShardedRecoveryTortureTest, CacheLostRecoversConsistentPrefix) {
  for (uint64_t seed = 801; seed <= 815; seed++) {
    ShardedTortureCacheLost(seed, /*shards=*/4, /*with_faults=*/false,
                            /*lose_one_tail=*/false);
  }
}

TEST(ShardedRecoveryTortureTest, CacheLostUnderPerShardFaults) {
  for (uint64_t seed = 901; seed <= 910; seed++) {
    ShardedTortureCacheLost(seed, /*shards=*/4, /*with_faults=*/true,
                            /*lose_one_tail=*/false);
  }
}

TEST(ShardedRecoveryTortureTest, CacheLostWithOneShardTailLoss) {
  for (uint64_t seed = 1001; seed <= 1010; seed++) {
    ShardedTortureCacheLost(seed, /*shards=*/2, /*with_faults=*/false,
                            /*lose_one_tail=*/true);
    ShardedTortureCacheLost(seed, /*shards=*/4, /*with_faults=*/true,
                            /*lose_one_tail=*/true);
  }
}

// Mixed per-shard victim-selection policies (docs/GC.md): these runs cover
// crash/recovery with every policy collecting, and with generation-tagged
// GC output in the replayed tail.
const std::vector<GcPolicyKind> kMixedShardPolicies = {
    GcPolicyKind::kGreedy, GcPolicyKind::kCostBenefit,
    GcPolicyKind::kAgeBucketed, GcPolicyKind::kCostBenefit};

TEST(ShardedRecoveryTortureTest, AfterCrashWithMixedPerShardPolicies) {
  for (uint64_t seed = 1101; seed <= 1108; seed++) {
    ShardedTortureAfterCrash(seed, /*shards=*/4, /*with_faults=*/false,
                             kMixedShardPolicies);
    ShardedTortureAfterCrash(seed, /*shards=*/4, /*with_faults=*/true,
                             kMixedShardPolicies);
  }
}

TEST(ShardedRecoveryTortureTest, CacheLostWithMixedPerShardPolicies) {
  for (uint64_t seed = 1201; seed <= 1208; seed++) {
    ShardedTortureCacheLost(seed, /*shards=*/4, /*with_faults=*/false,
                            /*lose_one_tail=*/false, kMixedShardPolicies);
    ShardedTortureCacheLost(seed, /*shards=*/4, /*with_faults=*/true,
                            /*lose_one_tail=*/true, kMixedShardPolicies);
  }
}

// --- TRIM under crashes (DESIGN.md §13) ---
//
// The plans mix ~25% trims into the write stream, so crash windows land
// between a trim journal record and the checkpoint that would absorb it, on
// half-applied trim batches, and on replayed trim records. The shadow model
// treats a trim as returning its blocks to the all-zero state; ObservedStamps
// already fails any block that is only partially zero, so a trim can never
// expose stale or torn data.

TEST(TrimRecoveryTortureTest, AfterCrashRecoversAckedOps) {
  for (uint64_t seed = 2001; seed <= 2020; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/false, CrashMode::kClientOnly,
                      TortureConfig(), /*with_trims=*/true);
  }
}

TEST(TrimRecoveryTortureTest, AfterCrashWithPowerFailure) {
  for (uint64_t seed = 2101; seed <= 2115; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/false, CrashMode::kClientAndPower,
                      TortureConfig(), /*with_trims=*/true);
  }
}

TEST(TrimRecoveryTortureTest, AfterCrashUnderBackendFaults) {
  for (uint64_t seed = 2201; seed <= 2210; seed++) {
    TortureAfterCrash(seed, /*with_faults=*/true, CrashMode::kClientOnly,
                      TortureConfig(), /*with_trims=*/true);
  }
}

TEST(TrimRecoveryTortureTest, CacheLostRecoversConsistentPrefix) {
  for (uint64_t seed = 2301; seed <= 2320; seed++) {
    TortureCacheLost(seed, /*with_faults=*/false, TortureConfig(),
                     /*with_trims=*/true);
  }
}

TEST(TrimRecoveryTortureTest, ShardedAfterCrashRecoversAckedOps) {
  for (uint64_t seed = 2401; seed <= 2410; seed++) {
    ShardedTortureAfterCrash(seed, /*shards=*/4, /*with_faults=*/false, {},
                             /*with_trims=*/true);
  }
}

TEST(TrimRecoveryTortureTest, ShardedCacheLostRecoversConsistentPrefix) {
  for (uint64_t seed = 2501; seed <= 2510; seed++) {
    ShardedTortureCacheLost(seed, /*shards=*/4, /*with_faults=*/false,
                            /*lose_one_tail=*/false, {}, /*with_trims=*/true);
    ShardedTortureCacheLost(seed, /*shards=*/2, /*with_faults=*/true,
                            /*lose_one_tail=*/false, {}, /*with_trims=*/true);
  }
}

// Acceptance: a seeded workload against a backend with 10% transient PUT
// failures runs to completion with zero data-integrity errors, and after a
// drain the backend alone reconstructs the full image.
TEST(RecoveryTortureTest, FaultyWorkloadCompletesWithFullIntegrity) {
  for (uint64_t seed = 501; seed <= 505; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const LsvdConfig config = TortureConfig();
    TortureWorld t(seed, config, /*with_faults=*/true);
    t.StepUpTo(kStepCap);
    EXPECT_EQ(t.runner->acked, t.runner->plan.size());
    EXPECT_EQ(t.runner->write_failures, 0u);

    // The live disk must show exactly the full replay.
    const std::vector<uint8_t> live = ReadImage(&t.world.sim, t.disk.get());
    EXPECT_EQ(ObservedStamps(live),
              ReplayStamps(t.runner->plan, t.runner->plan.size()));

    // After a drain every batch is committed; a cache-lost open against the
    // raw store must reconstruct the same image despite the injected faults.
    ASSERT_TRUE(DrainSync(&t.world.sim, t.disk.get()).ok());
    t.disk->Kill();
    t.world.sim.Run();
    ClientHost host2(&t.world.sim, TestWorld::InstantHostConfig());
    LsvdDisk recovered(&host2, &t.world.store, config);
    ASSERT_TRUE(
        OpenSync(&t.world.sim, &recovered, &LsvdDisk::OpenCacheLost).ok());
    const std::vector<uint8_t> image = ReadImage(&t.world.sim, &recovered);
    EXPECT_EQ(ObservedStamps(image),
              ReplayStamps(t.runner->plan, t.runner->plan.size()));
  }
}

}  // namespace
}  // namespace lsvd
