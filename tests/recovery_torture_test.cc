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
constexpr size_t kNumWrites = 64;  // plan length unless a case sets one
constexpr int kQueueDepth = 4;
constexpr size_t kFlushEvery = 9;  // a flush barrier every N writes
constexpr uint64_t kStepCap = 20'000'000;

struct PlannedWrite {
  uint64_t vlba;
  uint64_t len;
  bool is_trim = false;  // TRIM op: zeros the range instead of stamping it
};

std::vector<PlannedWrite> MakePlan(uint64_t seed, bool with_trims,
                                   size_t writes) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<PlannedWrite> plan;
  plan.reserve(writes);
  for (size_t i = 0; i < writes; i++) {
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

enum class CrashMode {
  kClientOnly,     // client dies; cache survives (OpenAfterCrash)
  kClientAndPower, // client dies and the SSD loses power (OpenAfterCrash)
  kCacheLost,      // cache gone: recovery sees only the backend
  kShardTailLoss,  // cache gone and one shard lost its newest object
};

// One torture family: a config point and crash mode, run for every seed in
// [first_seed, last_seed].
struct TortureCase {
  CrashMode crash;
  uint64_t first_seed;
  uint64_t last_seed;
  size_t shards = 1;
  bool faults = false;
  bool trims = false;
  // Adaptive group commit (DESIGN.md §12) with a deliberately aggressive
  // deadline, so crash windows are full of deadline-sealed partial batches,
  // force-started journal records and coalesced barrier flushes.
  bool adaptive = false;
  GcPolicyKind policy = GcPolicyKind::kGreedy;
  // Write-cache size (0: the config's 32 MiB) and plan length; the wrap rows
  // pair a small journal with a plan that laps it several times.
  uint64_t journal = 0;
  size_t writes = kNumWrites;
};

// One seeded workload world over `shards` object stores, each with its own
// fault stream when faults are on. The same (seed, case) pair always
// produces the identical event trajectory, which lets a dry run to
// completion measure the total step count so a crash point can be drawn
// uniformly from it.
struct TortureWorld {
  TestWorld world;  // sim + host; world.store is shard 0
  std::vector<std::unique_ptr<MemObjectStore>> extra_shards;
  std::vector<std::unique_ptr<FaultyObjectStore>> faulties;
  std::vector<MemObjectStore*> mems;      // durable contents, per shard
  std::vector<ObjectStore*> raw_stores;   // the same, as the disk takes them
  std::unique_ptr<LsvdDisk> disk;
  std::shared_ptr<Runner> runner;

  TortureWorld(uint64_t seed, const LsvdConfig& config, size_t shards,
               bool with_faults, bool with_trims,
               size_t writes = kNumWrites) {
    std::vector<ObjectStore*> workload_stores;
    for (size_t i = 0; i < shards; i++) {
      if (i > 0) {
        extra_shards.push_back(std::make_unique<MemObjectStore>(&world.sim));
      }
      mems.push_back(i == 0 ? &world.store : extra_shards.back().get());
      raw_stores.push_back(mems.back());
      if (with_faults) {
        faulties.push_back(std::make_unique<FaultyObjectStore>(
            mems.back(), &world.sim, TortureFaults(seed + 7919 * i)));
        workload_stores.push_back(faulties.back().get());
      } else {
        workload_stores.push_back(mems.back());
      }
    }
    disk = std::make_unique<LsvdDisk>(&world.host, workload_stores, config);
    EXPECT_TRUE(OpenSync(&world.sim, disk.get(), &LsvdDisk::Create).ok());
    runner = std::make_shared<Runner>();
    runner->disk = disk.get();
    runner->plan = MakePlan(seed, with_trims, writes);
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

// Runs the workload, crashes at a seed-chosen random step and reopens. After
// a client crash (OpenAfterCrash on the surviving host) the image must hold
// at least every acknowledged write, or every flush-covered write when the
// SSD also lost power. With the cache lost (OpenCacheLost on a fresh host)
// it must still replay some prefix of the plan; a lost shard tail must
// truncate that prefix at the gap, never corrupt it.
void TortureOnce(const TortureCase& c, const LsvdConfig& config,
                 uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
               std::to_string(c.shards));
  const bool cache_lost =
      c.crash == CrashMode::kCacheLost || c.crash == CrashMode::kShardTailLoss;
  const uint64_t total = TortureWorld(seed, config, c.shards, c.faults,
                                      c.trims, c.writes)
                             .StepUpTo(kStepCap);
  ASSERT_GT(total, 0u);
  Rng crash_rng(seed ^ (cache_lost ? 0x10CACE1057ull : 0xC4A5481DEAD5EEDull));
  const uint64_t crash_step = crash_rng.UniformRange(1, total + 1);

  TortureWorld t(seed, config, c.shards, c.faults, c.trims, c.writes);
  t.StepUpTo(crash_step);
  t.runner->dead = true;
  const DiskRegions regions = t.disk->regions();
  t.disk->Kill();
  if (c.crash == CrashMode::kClientAndPower) {
    t.world.host.ssd()->PowerFail();
  }
  t.world.sim.Run();  // drain stale in-flight events
  if (c.crash == CrashMode::kShardTailLoss) {
    t.LoseShardTail(seed % c.shards);
  }

  // Recovery talks to the raw stores: the backend's own transient faults
  // are a workload-phase concern, but torn objects it left behind persist.
  if (cache_lost) {
    ClientHost host2(&t.world.sim, TestWorld::InstantHostConfig());
    LsvdDisk recovered(&host2, t.raw_stores, config);
    const Status open =
        OpenSync(&t.world.sim, &recovered, &LsvdDisk::OpenCacheLost);
    ASSERT_TRUE(open.ok()) << open.message();
    CheckPrefixConsistent(t.runner->plan,
                          ReadImage(&t.world.sim, &recovered));
    return;
  }
  LsvdDisk recovered(&t.world.host, t.raw_stores, config, regions);
  const Status open =
      OpenSync(&t.world.sim, &recovered, &LsvdDisk::OpenAfterCrash);
  ASSERT_TRUE(open.ok()) << open.message();
  const size_t recovered_prefix = CheckPrefixConsistent(
      t.runner->plan, ReadImage(&t.world.sim, &recovered));
  const size_t floor = c.crash == CrashMode::kClientAndPower
                           ? t.runner->flush_durable
                           : t.runner->acked;
  EXPECT_GE(recovered_prefix, floor)
      << "lost acknowledged writes (acked=" << t.runner->acked
      << " flush_durable=" << t.runner->flush_durable << ")";
}

void RunTorture(const std::vector<TortureCase>& cases) {
  for (const TortureCase& c : cases) {
    LsvdConfig config = TortureConfig();
    if (c.adaptive) {
      config.batch_seal_deadline = 500 * kMicrosecond;
    }
    config.gc_policy = c.policy;
    if (c.journal != 0) {
      config.write_cache_size = c.journal;
    }
    for (uint64_t seed = c.first_seed; seed <= c.last_seed; seed++) {
      TortureOnce(c, config, seed);
    }
  }
}

// The torture table: one test per family, each running one or more cases.
#define TORTURE_TEST(suite, name, ...) \
  TEST(suite, name) { RunTorture({__VA_ARGS__}); }

using enum CrashMode;
constexpr GcPolicyKind kCostBenefit = GcPolicyKind::kCostBenefit;

// Single-stream volumes.
TORTURE_TEST(RecoveryTortureTest, AfterCrashRecoversAckedWrites,
             {.crash = kClientOnly, .first_seed = 1, .last_seed = 50})
TORTURE_TEST(RecoveryTortureTest, AfterCrashWithPowerFailure,
             {.crash = kClientAndPower, .first_seed = 101, .last_seed = 125})
TORTURE_TEST(RecoveryTortureTest, AfterCrashUnderBackendFaults,
             {.crash = kClientOnly, .first_seed = 201, .last_seed = 220,
              .faults = true})
TORTURE_TEST(RecoveryTortureTest, CacheLostRecoversConsistentPrefix,
             {.crash = kCacheLost, .first_seed = 301, .last_seed = 350})
TORTURE_TEST(RecoveryTortureTest, CacheLostUnderBackendFaults,
             {.crash = kCacheLost, .first_seed = 401, .last_seed = 420,
              .faults = true})

// Adaptive group commit: a deadline-sealed partial batch must never advance
// the backend sync watermark past journal records whose data the backend
// does not hold (the ReleaseThrough safety edge).
TORTURE_TEST(RecoveryTortureTest, AdaptiveSealAfterCrashRecoversAckedWrites,
             {.crash = kClientOnly, .first_seed = 1301, .last_seed = 1330,
              .adaptive = true})
TORTURE_TEST(RecoveryTortureTest, AdaptiveSealAfterCrashWithPowerFailure,
             {.crash = kClientAndPower, .first_seed = 1401,
              .last_seed = 1420, .adaptive = true})
TORTURE_TEST(RecoveryTortureTest, AdaptiveSealAfterCrashUnderBackendFaults,
             {.crash = kClientOnly, .first_seed = 1501, .last_seed = 1515,
              .faults = true, .adaptive = true})
TORTURE_TEST(RecoveryTortureTest,
             AdaptiveSealCacheLostRecoversConsistentPrefix,
             {.crash = kCacheLost, .first_seed = 1601, .last_seed = 1625,
              .adaptive = true})

// Sharded backends (DESIGN.md §9): the shadow model is unchanged, since
// sharding must be invisible to the prefix-consistency contract.
TORTURE_TEST(ShardedRecoveryTortureTest, AfterCrashRecoversAckedWrites,
             {.crash = kClientOnly, .first_seed = 601, .last_seed = 615,
              .shards = 2},
             {.crash = kClientOnly, .first_seed = 601, .last_seed = 615,
              .shards = 4})
TORTURE_TEST(ShardedRecoveryTortureTest, AfterCrashUnderPerShardFaults,
             {.crash = kClientOnly, .first_seed = 701, .last_seed = 710,
              .shards = 4, .faults = true})
TORTURE_TEST(ShardedRecoveryTortureTest, CacheLostRecoversConsistentPrefix,
             {.crash = kCacheLost, .first_seed = 801, .last_seed = 815,
              .shards = 4})
TORTURE_TEST(ShardedRecoveryTortureTest, CacheLostUnderPerShardFaults,
             {.crash = kCacheLost, .first_seed = 901, .last_seed = 910,
              .shards = 4, .faults = true})
TORTURE_TEST(ShardedRecoveryTortureTest, CacheLostWithOneShardTailLoss,
             {.crash = kShardTailLoss, .first_seed = 1001,
              .last_seed = 1010, .shards = 2},
             {.crash = kShardTailLoss, .first_seed = 1001,
              .last_seed = 1010, .shards = 4, .faults = true})

// Cost-benefit cleaning on every shard (docs/GC.md): crash and recovery
// with generation-tagged GC output in the replayed tail (DESIGN.md §11).
TORTURE_TEST(ShardedRecoveryTortureTest, AfterCrashWithCostBenefitPolicy,
             {.crash = kClientOnly, .first_seed = 1101, .last_seed = 1108,
              .shards = 4, .policy = kCostBenefit},
             {.crash = kClientOnly, .first_seed = 1101, .last_seed = 1108,
              .shards = 4, .faults = true, .policy = kCostBenefit})
TORTURE_TEST(ShardedRecoveryTortureTest, CacheLostWithCostBenefitPolicy,
             {.crash = kCacheLost, .first_seed = 1201, .last_seed = 1208,
              .shards = 4, .policy = kCostBenefit},
             {.crash = kShardTailLoss, .first_seed = 1201,
              .last_seed = 1208, .shards = 4, .faults = true,
              .policy = kCostBenefit})

// TRIM under crashes (DESIGN.md §13): ~25% of ops are trims, so crash
// windows land between a trim journal record and the checkpoint that would
// absorb it, on half-applied trim batches, and on replayed trim records. The
// shadow model treats a trim as returning its blocks to the all-zero state;
// ObservedStamps already fails any block that is only partially zero, so a
// trim can never expose stale or torn data.
TORTURE_TEST(TrimRecoveryTortureTest, AfterCrashRecoversAckedOps,
             {.crash = kClientOnly, .first_seed = 2001, .last_seed = 2020,
              .trims = true})
TORTURE_TEST(TrimRecoveryTortureTest, AfterCrashWithPowerFailure,
             {.crash = kClientAndPower, .first_seed = 2101,
              .last_seed = 2115, .trims = true})
TORTURE_TEST(TrimRecoveryTortureTest, AfterCrashUnderBackendFaults,
             {.crash = kClientOnly, .first_seed = 2201, .last_seed = 2210,
              .faults = true, .trims = true})
TORTURE_TEST(TrimRecoveryTortureTest, CacheLostRecoversConsistentPrefix,
             {.crash = kCacheLost, .first_seed = 2301, .last_seed = 2320,
              .trims = true})
TORTURE_TEST(TrimRecoveryTortureTest, ShardedAfterCrashRecoversAckedOps,
             {.crash = kClientOnly, .first_seed = 2401, .last_seed = 2410,
              .shards = 4, .trims = true})
TORTURE_TEST(TrimRecoveryTortureTest, ShardedCacheLostRecoversConsistentPrefix,
             {.crash = kCacheLost, .first_seed = 2501, .last_seed = 2510,
              .shards = 4, .trims = true},
             {.crash = kCacheLost, .first_seed = 2501, .last_seed = 2510,
              .shards = 2, .faults = true, .trims = true})

// Journal wrap (DESIGN.md §6): ~2000 ops of 4-32 KiB (~36 MiB) lap a
// 16 MiB write cache about three times, so crashes land after the log has
// overwritten records the newest checkpoint lists, and while the cache waits
// for a lap checkpoint before reusing its replay start.
constexpr uint64_t kWrapJournal = 16 * kMiB;
constexpr size_t kWrapWrites = 2000;
TORTURE_TEST(WrapRecoveryTortureTest, AfterCrashRecoversAckedWrites,
             {.crash = kClientOnly, .first_seed = 3001, .last_seed = 3008,
              .journal = kWrapJournal, .writes = kWrapWrites},
             {.crash = kClientOnly, .first_seed = 3101, .last_seed = 3108,
              .trims = true, .journal = kWrapJournal, .writes = kWrapWrites})
TORTURE_TEST(WrapRecoveryTortureTest, AfterCrashWithPowerFailure,
             {.crash = kClientAndPower, .first_seed = 3201, .last_seed = 3208,
              .journal = kWrapJournal, .writes = kWrapWrites},
             {.crash = kClientAndPower, .first_seed = 3301, .last_seed = 3308,
              .trims = true, .journal = kWrapJournal, .writes = kWrapWrites})

// Acceptance: a seeded workload against a backend with 10% transient PUT
// failures runs to completion with zero data-integrity errors, and after a
// drain the backend alone reconstructs the full image.
TEST(RecoveryTortureTest, FaultyWorkloadCompletesWithFullIntegrity) {
  for (uint64_t seed = 501; seed <= 505; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const LsvdConfig config = TortureConfig();
    TortureWorld t(seed, config, /*shards=*/1, /*with_faults=*/true,
                   /*with_trims=*/false);
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
