// Integration tests for the full LSVD virtual disk: read/write semantics,
// read-path routing, crash recovery (client crash and total cache loss),
// snapshots, clones, and the prefix-consistency guarantee (§2.2/§3.4).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "src/lsvd/lsvd_disk.h"
#include "src/objstore/faulty_object_store.h"
#include "src/objstore/sim_object_store.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

class LsvdDiskTest : public ::testing::Test {
 protected:
  LsvdDiskTest() {
    config_ = TestWorld::SmallVolumeConfig();
    disk_ = std::make_unique<LsvdDisk>(&world_.host, &world_.store, config_);
    EXPECT_TRUE(OpenSync(&world_.sim, disk_.get(), &LsvdDisk::Create).ok());
  }

  TestWorld world_;
  LsvdConfig config_;
  std::unique_ptr<LsvdDisk> disk_;
};

TEST_F(LsvdDiskTest, WriteReadRoundTrip) {
  Buffer data = TestPattern(16 * kKiB, 1);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), kMiB, data).ok());
  auto r = ReadSync(&world_.sim, disk_.get(), kMiB, 16 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
  EXPECT_EQ(disk_->stats().writes, 1u);
  EXPECT_GE(disk_->stats().write_cache_hits, 1u);
}

TEST_F(LsvdDiskTest, UnwrittenRangesReadAsZeros) {
  auto r = ReadSync(&world_.sim, disk_.get(), 0, 8 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
  EXPECT_GE(disk_->stats().zero_reads, 1u);
}

TEST_F(LsvdDiskTest, PartialOverwriteMergesCorrectly) {
  Buffer base = TestPattern(32 * kKiB, 2);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, base).ok());
  Buffer patch = TestPattern(8 * kKiB, 3);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 8 * kKiB, patch).ok());

  auto r = ReadSync(&world_.sim, disk_.get(), 0, 32 * kKiB);
  ASSERT_TRUE(r.ok());
  Buffer expect;
  expect.Append(base.Slice(0, 8 * kKiB));
  expect.Append(patch);
  expect.Append(base.Slice(16 * kKiB, 16 * kKiB));
  EXPECT_EQ(*r, expect);
}

TEST_F(LsvdDiskTest, RejectsBadArguments) {
  EXPECT_EQ(WriteSync(&world_.sim, disk_.get(), 100, Buffer::Zeros(4096)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteSync(&world_.sim, disk_.get(), config_.volume_size,
                      Buffer::Zeros(4096))
                .code(),
            StatusCode::kOutOfRange);
  auto r = ReadSync(&world_.sim, disk_.get(), 0, 100);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LsvdDiskTest, DataFlowsToBackendAndStaysReadable) {
  // Write more than one batch, drain, verify reads come from the backend
  // once the write cache releases the records.
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(),
                          static_cast<uint64_t>(i) * kMiB,
                          TestPattern(256 * kKiB, 10 + i))
                    .ok());
  }
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  EXPECT_GT(disk_->backend().stats().objects_put, 0u);
  // All records synced; the object map covers the data; cached copies are
  // kept until space pressure (lazy FIFO eviction).
  EXPECT_TRUE(disk_->write_cache().fully_synced());
  EXPECT_EQ(disk_->backend().object_map().mapped_bytes(), 8u * 256 * kKiB);

  // After eviction (e.g. space pressure), reads route to the backend.
  ASSERT_TRUE(
      EvictReleasableSync(&world_.sim, &disk_->write_cache()).ok());
  EXPECT_EQ(disk_->write_cache().map().mapped_bytes(), 0u);
  auto r = ReadSync(&world_.sim, disk_.get(), 3 * kMiB, 256 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestPattern(256 * kKiB, 13));
  EXPECT_GE(disk_->stats().backend_reads, 1u);
}

TEST_F(LsvdDiskTest, WriteLifecycleHistogramsPopulate) {
  // Push several batches through the full write lifecycle, then check that
  // every stage histogram (submit -> ack, batch open -> seal, seal ->
  // commit, journal append -> cache release) actually recorded samples.
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(),
                          static_cast<uint64_t>(i) * kMiB,
                          TestPattern(256 * kKiB, 20 + i))
                    .ok());
  }
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  // Exercise the read-routing histograms too: a write-cache hit and a
  // zero-fill read.
  ASSERT_TRUE(ReadSync(&world_.sim, disk_.get(), 0, 16 * kKiB).ok());
  ASSERT_TRUE(
      ReadSync(&world_.sim, disk_.get(), 9 * kMiB, 16 * kKiB).ok());

  const MetricsSnapshot snap = disk_->metrics().Snapshot();
  const MetricsSnapshot::Entry* ack = snap.Find("lsvd.write.ack_us");
  ASSERT_NE(ack, nullptr);
  EXPECT_GE(ack->count, 8u);
  EXPECT_GT(snap.Percentile("lsvd.write.ack_us", 0.5), 0.0);

  const MetricsSnapshot::Entry* seal =
      snap.Find("backend.batch.open_to_seal_us");
  ASSERT_NE(seal, nullptr);
  EXPECT_GE(seal->count, 1u);
  const MetricsSnapshot::Entry* commit =
      snap.Find("backend.batch.seal_to_commit_us");
  ASSERT_NE(commit, nullptr);
  EXPECT_GE(commit->count, 1u);
  // Drain commits the backend objects, which releases the journal records.
  const MetricsSnapshot::Entry* freed =
      snap.Find("lsvd.write_cache.append_to_free_us");
  ASSERT_NE(freed, nullptr);
  EXPECT_GE(freed->count, 1u);

  const MetricsSnapshot::Entry* e2e = snap.Find("lsvd.read.e2e_us");
  ASSERT_NE(e2e, nullptr);
  EXPECT_GE(e2e->count, 2u);
  EXPECT_GE(snap.Find("lsvd.read.write_cache_us")->count, 1u);
  EXPECT_GE(snap.Find("lsvd.read.zero_us")->count, 1u);
}

TEST_F(LsvdDiskTest, PrefetchFillsReadCache) {
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0,
                        TestPattern(512 * kKiB, 4))
                  .ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  // Force reads to the backend.
  ASSERT_TRUE(
      EvictReleasableSync(&world_.sim, &disk_->write_cache()).ok());
  // First 4 KiB read misses to the backend but prefetches a whole window.
  auto r1 = ReadSync(&world_.sim, disk_.get(), 0, 4 * kKiB);
  ASSERT_TRUE(r1.ok());
  world_.sim.Run();  // lines appear once their background fills land
  const uint64_t backend_reads = disk_->stats().backend_reads;
  EXPECT_GT(disk_->read_cache().stats().inserted_bytes, 4 * kKiB);
  // Nearby read now hits the read cache, no extra backend I/O.
  auto r2 = ReadSync(&world_.sim, disk_.get(), 64 * kKiB, 4 * kKiB);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, TestPattern(512 * kKiB, 4).Slice(64 * kKiB, 4 * kKiB));
  EXPECT_EQ(disk_->stats().backend_reads, backend_reads);
  EXPECT_GE(disk_->stats().read_cache_hits, 1u);
}

TEST_F(LsvdDiskTest, WriteInvalidatesReadCache) {
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0,
                        TestPattern(128 * kKiB, 5))
                  .ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  // Miss to the backend, fill rc.
  ASSERT_TRUE(
      EvictReleasableSync(&world_.sim, &disk_->write_cache()).ok());
  ASSERT_TRUE(ReadSync(&world_.sim, disk_.get(), 0, 128 * kKiB).ok());
  world_.sim.Run();  // lines appear once their background fills land
  ASSERT_GT(disk_->read_cache().map().mapped_bytes(), 0u);

  // Overwrite; even after the new write flows through and is evicted from
  // the write cache, reads must return the new data.
  Buffer newer = TestPattern(128 * kKiB, 6);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, newer).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  // The write-after-read hazard case.
  ASSERT_TRUE(
      EvictReleasableSync(&world_.sim, &disk_->write_cache()).ok());
  auto r = ReadSync(&world_.sim, disk_.get(), 0, 128 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, newer);
}

// A read's routing plan must be built when its lookup charge completes,
// not before: meanwhile the write cache can evict the planned record and
// reuse its space for new journal records.
TEST(LsvdDiskReadRaceTest, SlowLookupNeverReadsRecycledCacheSpace) {
  TestWorld world;
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  config.write_cache_size = 8 * kMiB;
  config.costs.read_hit = 50 * kMillisecond;
  LsvdDisk disk(&world.host, &world.store, config);
  ASSERT_TRUE(OpenSync(&world.sim, &disk, &LsvdDisk::Create).ok());
  const Buffer data = TestPattern(64 * kKiB, 31);
  ASSERT_TRUE(WriteSync(&world.sim, &disk, 0, data).ok());
  ASSERT_TRUE(DrainSync(&world.sim, &disk).ok());

  std::optional<Result<Buffer>> r;
  disk.Read(0, 64 * kKiB, [&](Result<Buffer> rr) { r = std::move(rr); });
  // 16 MiB of writes elsewhere wrap the 8 MiB cache while the lookup runs.
  for (uint64_t off = 0; off < 16 * kMiB; off += 64 * kKiB) {
    ASSERT_TRUE(WriteSync(&world.sim, &disk, 16 * kMiB + off,
                          TestPattern(64 * kKiB, 1000 + off / kKiB))
                    .ok());
  }
  while (!r.has_value() && world.sim.Step()) {
  }
  ASSERT_TRUE(r.has_value() && r->ok());
  EXPECT_EQ(**r, data);
}

// A backend fetch that started before an overwrite must not leave the old
// bytes in the read cache, where they would surface once the overwrite's
// write-cache record is evicted. The fetch's daemon step takes
// `fetch_delay`, so the fetch lands before or after the overwrite's ack;
// with `evict_first` the overwrite has also been drained and evicted by
// then.
Buffer ReadAfterFetchRacesOverwrite(Nanos fetch_delay, bool evict_first,
                                    const Buffer& v1, const Buffer& v2) {
  TestWorld world;
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  config.costs.read_miss_golang = fetch_delay;
  LsvdDisk disk(&world.host, &world.store, config);
  EXPECT_TRUE(OpenSync(&world.sim, &disk, &LsvdDisk::Create).ok());
  EXPECT_TRUE(WriteSync(&world.sim, &disk, 0, v1).ok());
  EXPECT_TRUE(DrainSync(&world.sim, &disk).ok());
  // The read misses to the backend.
  EXPECT_TRUE(EvictReleasableSync(&world.sim, &disk.write_cache()).ok());

  std::optional<Result<Buffer>> first;
  disk.Read(0, v1.size(), [&](Result<Buffer> r) { first = std::move(r); });
  EXPECT_TRUE(WriteSync(&world.sim, &disk, 0, v2).ok());
  for (int pass = evict_first ? 0 : 1; pass < 2; pass++) {
    if (pass == 1) {
      world.sim.Run();  // the first read and any read-cache fill land
      EXPECT_TRUE(first.has_value() && first->ok());
    }
    EXPECT_TRUE(DrainSync(&world.sim, &disk).ok());
    EXPECT_TRUE(EvictReleasableSync(&world.sim, &disk.write_cache()).ok());
  }
  auto r = ReadSync(&world.sim, &disk, 0, v2.size());
  EXPECT_TRUE(r.ok());
  return r.ok() ? *r : Buffer();
}

TEST(LsvdDiskReadRaceTest, FetchRacingAnOverwriteNeverCachesOldData) {
  const Buffer v1 = TestPattern(64 * kKiB, 41);
  const Buffer v2 = TestPattern(64 * kKiB, 42);
  const std::pair<Nanos, bool> cases[] = {
      {0, false}, {10 * kMillisecond, false}, {10 * kMillisecond, true}};
  for (const auto& [delay, evict_first] : cases) {
    SCOPED_TRACE("fetch delay " + std::to_string(delay) +
                 (evict_first ? ", overwrite evicted first" : ""));
    EXPECT_EQ(ReadAfterFetchRacesOverwrite(delay, evict_first, v1, v2), v2);
  }
}

TEST_F(LsvdDiskTest, FlushCompletes) {
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, TestPattern(4096, 7)).ok());
  EXPECT_TRUE(FlushSync(&world_.sim, disk_.get()).ok());
  EXPECT_EQ(disk_->stats().flushes, 1u);
}

TEST_F(LsvdDiskTest, AgedBatchSealsWithoutReachingSize) {
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, TestPattern(4096, 8)).ok());
  EXPECT_EQ(disk_->backend().stats().objects_put, 0u);
  // Let the age timer fire.
  world_.sim.RunUntil(world_.sim.now() + 2 * config_.batch_max_age);
  world_.sim.Run();
  EXPECT_EQ(disk_->backend().stats().objects_put, 1u);
}

// --- crash recovery ---

TEST_F(LsvdDiskTest, ClientCrashRecoversAllCommittedWrites) {
  std::map<uint64_t, uint64_t> committed;  // vlba -> seed
  Rng rng(42);
  for (int i = 0; i < 50; i++) {
    const uint64_t vlba = rng.Uniform(1024) * 16 * kKiB;
    const uint64_t seed = 500 + static_cast<uint64_t>(i);
    ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), vlba,
                          TestPattern(16 * kKiB, seed))
                    .ok());
    committed[vlba] = seed;
  }
  ASSERT_TRUE(FlushSync(&world_.sim, disk_.get()).ok());  // commit barrier

  // Crash: power fails, client process dies with writeback incomplete.
  const DiskRegions regions = disk_->regions();
  disk_->Kill();
  world_.host.ssd()->PowerFail();
  world_.sim.Run();  // drain stale events

  disk_ = std::make_unique<LsvdDisk>(&world_.host, &world_.store, config_,
                                     regions);
  ASSERT_TRUE(
      OpenSync(&world_.sim, disk_.get(), &LsvdDisk::OpenAfterCrash).ok());

  // Every committed write is present with the right contents.
  for (const auto& [vlba, seed] : committed) {
    auto r = ReadSync(&world_.sim, disk_.get(), vlba, 16 * kKiB);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, TestPattern(16 * kKiB, seed)) << "vlba " << vlba;
  }
}

TEST_F(LsvdDiskTest, CrashReplayPushesTailToBackend) {
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0,
                        TestPattern(16 * kKiB, 1))
                  .ok());
  ASSERT_TRUE(FlushSync(&world_.sim, disk_.get()).ok());
  const DiskRegions regions = disk_->regions();
  disk_->Kill();
  world_.host.ssd()->PowerFail();
  world_.sim.Run();

  disk_ = std::make_unique<LsvdDisk>(&world_.host, &world_.store, config_,
                                     regions);
  ASSERT_TRUE(
      OpenSync(&world_.sim, disk_.get(), &LsvdDisk::OpenAfterCrash).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  // The write that never reached the backend before the crash is there now.
  EXPECT_EQ(disk_->backend().object_map().mapped_bytes(), 16 * kKiB);

  // And a subsequent cache-loss open (backend only) still sees it.
  disk_->Kill();
  world_.sim.Run();
  ClientHost host2(&world_.sim, TestWorld::InstantHostConfig());
  LsvdDisk disk2(&host2, &world_.store, config_);
  ASSERT_TRUE(OpenSync(&world_.sim, &disk2, &LsvdDisk::OpenCacheLost).ok());
  auto r = ReadSync(&world_.sim, &disk2, 0, 16 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestPattern(16 * kKiB, 1));
}

TEST_F(LsvdDiskTest, CleanShutdownAndReopenRestoresReadCache) {
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0,
                        TestPattern(256 * kKiB, 9))
                  .ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  // Miss to the backend, fill rc.
  ASSERT_TRUE(
      EvictReleasableSync(&world_.sim, &disk_->write_cache()).ok());
  ASSERT_TRUE(ReadSync(&world_.sim, disk_.get(), 0, 256 * kKiB).ok());
  world_.sim.Run();  // lines appear once their background fills land
  ASSERT_GT(disk_->read_cache().map().mapped_bytes(), 0u);

  std::optional<Status> s;
  disk_->CleanShutdown([&](Status st) { s = st; });
  world_.sim.Run();
  ASSERT_TRUE(s->ok());
  const DiskRegions regions = disk_->regions();
  disk_->Kill();
  world_.sim.Run();

  disk_ = std::make_unique<LsvdDisk>(&world_.host, &world_.store, config_,
                                     regions);
  ASSERT_TRUE(OpenSync(&world_.sim, disk_.get(), &LsvdDisk::OpenClean).ok());
  EXPECT_GT(disk_->read_cache().map().mapped_bytes(), 0u);
  auto r = ReadSync(&world_.sim, disk_.get(), 0, 256 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestPattern(256 * kKiB, 9));
}

// --- snapshots and clones ---

TEST_F(LsvdDiskTest, SnapshotAndMountReadOnlyView) {
  Buffer v1 = TestPattern(64 * kKiB, 1);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, v1).ok());
  std::optional<Result<uint64_t>> snap;
  disk_->Snapshot([&](Result<uint64_t> r) { snap = std::move(r); });
  world_.sim.Run();
  ASSERT_TRUE(snap->ok());
  const uint64_t snap_seq = snap->value();

  Buffer v2 = TestPattern(64 * kKiB, 2);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, v2).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());

  // Mount the snapshot as a separate read-only view.
  LsvdConfig snap_config = config_;
  snap_config.open_limit_seq = snap_seq;
  LsvdDisk view(&world_.host, &world_.store, snap_config);
  ASSERT_TRUE(OpenSync(&world_.sim, &view, &LsvdDisk::OpenCacheLost).ok());
  auto r = ReadSync(&world_.sim, &view, 0, 64 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, v1);

  // The live volume still sees v2.
  auto live = ReadSync(&world_.sim, disk_.get(), 0, 64 * kKiB);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, v2);
}

// Every applied object starts a backend checkpoint (interval 1) and each
// store call takes 20 ms while Drain polls every millisecond, so a drain
// here always ends with a periodic checkpoint in flight. A snapshot change
// made then must still be listed by a durable checkpoint before its
// callback fires.
class CheckpointInFlightTest : public ::testing::Test {
 protected:
  CheckpointInFlightTest()
      : slow_store_(&world_.store, &world_.sim, SlowStoreConfig()) {
    config_ = TestWorld::SmallVolumeConfig();
    config_.checkpoint_interval_objects = 1;
    disk_ = std::make_unique<LsvdDisk>(&world_.host, &slow_store_, config_);
    EXPECT_TRUE(OpenSync(&world_.sim, disk_.get(), &LsvdDisk::Create).ok());
  }

  static FaultInjectionConfig SlowStoreConfig() {
    FaultInjectionConfig fc;
    fc.added_latency_min = 20 * kMillisecond;
    fc.added_latency_max = 20 * kMillisecond;
    return fc;
  }

  Result<uint64_t> SnapshotSync() {
    std::optional<Result<uint64_t>> snap;
    disk_->Snapshot([&](Result<uint64_t> r) { snap = std::move(r); });
    while (!snap.has_value() && world_.sim.Step()) {
    }
    return snap.value_or(Status::Unavailable("snapshot never completed"));
  }

  // Kills the client right away, loses its cache, and returns the snapshots
  // a fresh attachment recovers from the backend.
  std::set<uint64_t> SnapshotsAfterCacheLoss() {
    disk_->Kill();
    world_.sim.Run();
    ClientHost host2(&world_.sim, TestWorld::InstantHostConfig());
    LsvdDisk disk2(&host2, &slow_store_, config_);
    EXPECT_TRUE(OpenSync(&world_.sim, &disk2, &LsvdDisk::OpenCacheLost).ok());
    return disk2.backend().snapshots();
  }

  TestWorld world_;
  FaultyObjectStore slow_store_;
  LsvdConfig config_;
  std::unique_ptr<LsvdDisk> disk_;
};

TEST_F(CheckpointInFlightTest, SnapshotPinSurvivesCacheLoss) {
  ASSERT_TRUE(
      WriteSync(&world_.sim, disk_.get(), 0, TestPattern(16 * kKiB, 1)).ok());
  const Result<uint64_t> snap = SnapshotSync();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(SnapshotsAfterCacheLoss(), std::set<uint64_t>{snap.value()});
}

TEST_F(CheckpointInFlightTest, DeletedSnapshotStaysDeletedAfterCacheLoss) {
  ASSERT_TRUE(
      WriteSync(&world_.sim, disk_.get(), 0, TestPattern(16 * kKiB, 1)).ok());
  const Result<uint64_t> snap = SnapshotSync();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(
      WriteSync(&world_.sim, disk_.get(), 0, TestPattern(16 * kKiB, 2)).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  std::optional<Status> deleted;
  disk_->DeleteSnapshot(snap.value(), [&](Status s) { deleted = s; });
  while (!deleted.has_value() && world_.sim.Step()) {
  }
  ASSERT_TRUE(deleted.has_value() && deleted->ok());
  EXPECT_TRUE(SnapshotsAfterCacheLoss().empty());
}

TEST_F(LsvdDiskTest, CloneSharesBaseAndDiverges) {
  Buffer base_data = TestPattern(128 * kKiB, 3);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, base_data).ok());
  std::optional<Result<uint64_t>> snap;
  disk_->Snapshot([&](Result<uint64_t> r) { snap = std::move(r); });
  world_.sim.Run();
  ASSERT_TRUE(snap->ok());

  LsvdConfig clone_config = disk_->MakeCloneConfig("clone1", snap->value());
  LsvdDisk clone(&world_.host, &world_.store, clone_config);
  ASSERT_TRUE(OpenSync(&world_.sim, &clone, &LsvdDisk::Create).ok());

  // Clone sees base data.
  auto r = ReadSync(&world_.sim, &clone, 0, 128 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, base_data);

  // Clone writes diverge; base unchanged.
  Buffer clone_data = TestPattern(64 * kKiB, 4);
  ASSERT_TRUE(WriteSync(&world_.sim, &clone, 0, clone_data).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, &clone).ok());
  auto cr = ReadSync(&world_.sim, &clone, 0, 64 * kKiB);
  ASSERT_TRUE(cr.ok());
  EXPECT_EQ(*cr, clone_data);
  auto br = ReadSync(&world_.sim, disk_.get(), 0, 64 * kKiB);
  ASSERT_TRUE(br.ok());
  EXPECT_EQ(*br, base_data.Slice(0, 64 * kKiB));

  // Clone objects carry the clone's name; base objects are untouched.
  EXPECT_FALSE(world_.store.List(DataObjectPrefix("clone1")).empty());
}

TEST_F(LsvdDiskTest, CloneRecoveryAfterCacheLoss) {
  Buffer base_data = TestPattern(64 * kKiB, 5);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, base_data).ok());
  std::optional<Result<uint64_t>> snap;
  disk_->Snapshot([&](Result<uint64_t> r) { snap = std::move(r); });
  world_.sim.Run();
  ASSERT_TRUE(snap->ok());

  LsvdConfig clone_config = disk_->MakeCloneConfig("clone2", snap->value());
  {
    LsvdDisk clone(&world_.host, &world_.store, clone_config);
    ASSERT_TRUE(OpenSync(&world_.sim, &clone, &LsvdDisk::Create).ok());
    ASSERT_TRUE(WriteSync(&world_.sim, &clone, 64 * kKiB,
                          TestPattern(64 * kKiB, 6))
                    .ok());
    ASSERT_TRUE(DrainSync(&world_.sim, &clone).ok());
    clone.Kill();
    world_.sim.Run();
  }
  // Cache lost: recover clone purely from the object store.
  ClientHost host2(&world_.sim, TestWorld::InstantHostConfig());
  LsvdDisk clone(&host2, &world_.store, clone_config);
  ASSERT_TRUE(OpenSync(&world_.sim, &clone, &LsvdDisk::OpenCacheLost).ok());
  auto r0 = ReadSync(&world_.sim, &clone, 0, 64 * kKiB);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(*r0, base_data);
  auto r1 = ReadSync(&world_.sim, &clone, 64 * kKiB, 64 * kKiB);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, TestPattern(64 * kKiB, 6));
}

// --- prefix consistency property (worst case: total cache loss) ---

// Writes carry strictly increasing version stamps; after a random-time crash
// with total cache loss, the recovered image must equal the effect of some
// prefix of the acknowledged writes (§2.2).
class PrefixConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefixConsistency, HoldsUnderRandomCrashWithCacheLoss) {
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = 16 * kGiB;
  hc.ssd = SsdParams::P3700();  // realistic timing => PUTs genuinely in flight
  ClientHost host(&sim, hc);
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStore store(&sim, &cluster, &link, SimObjectStoreConfig{});

  LsvdConfig config = TestWorld::SmallVolumeConfig();
  config.volume_size = 16 * kMiB;
  config.batch_bytes = 256 * kKiB;
  config.pass_through_ssd = true;

  auto disk = std::make_unique<LsvdDisk>(&host, &store, config);
  std::optional<Status> created;
  disk->Create([&](Status s) { created = s; });
  sim.Run();
  ASSERT_TRUE(created.has_value() && created->ok());

  Rng rng(GetParam());
  constexpr uint64_t kBlocks = 64;   // 4 KiB blocks in play
  constexpr int kWrites = 400;
  // Pre-draw the target block of every write so the check below can replay
  // the sequence deterministically.
  std::vector<uint64_t> blocks(kWrites);
  for (auto& b : blocks) {
    b = rng.Uniform(kBlocks);
  }
  const Nanos crash_at = static_cast<Nanos>(rng.UniformRange(
      static_cast<uint64_t>(kMillisecond),
      static_cast<uint64_t>(80 * kMillisecond)));

  int issued = 0;
  std::function<void()> issue = [&]() {
    if (issued >= kWrites) {
      return;
    }
    const int id = issued++;
    disk->Write(blocks[static_cast<size_t>(id)] * 4096,
                TestPattern(4096, 10000 + static_cast<uint64_t>(id)),
                [&issue](Status) { issue(); });
  };
  for (int q = 0; q < 8; q++) {  // queue depth 8
    issue();
  }
  // Crash at a random instant while writes and PUTs are in flight.
  sim.RunUntil(crash_at);

  disk->Kill();
  store.ClientCrash();
  host.ssd()->DiscardAll();  // total cache loss
  sim.Run();

  // Recover on a fresh host from the backend only.
  ClientHost host2(&sim, TestWorld::InstantHostConfig());
  LsvdDisk recovered(&host2, &store, config);
  ASSERT_TRUE(OpenSync(&sim, &recovered, &LsvdDisk::OpenCacheLost).ok());

  // Read back every block and decode which write it reflects.
  std::vector<int> got(kBlocks, -1);
  for (uint64_t b = 0; b < kBlocks; b++) {
    auto r = ReadSync(&sim, &recovered, b * 4096, 4096);
    ASSERT_TRUE(r.ok());
    if (r->IsAllZeros()) {
      continue;
    }
    // Identify the write id by matching against issued patterns.
    bool matched = false;
    for (int id = 0; id < issued; id++) {
      if (*r == TestPattern(4096, 10000 + static_cast<uint64_t>(id))) {
        got[b] = id;
        matched = true;
        break;
      }
    }
    ASSERT_TRUE(matched) << "block " << b << " holds torn/unknown data";
  }

  // The image must correspond to a prefix of the *issue-order* write
  // sequence: choose K = max id present; replay writes 0..K and compare.
  int max_id = -1;
  for (uint64_t b = 0; b < kBlocks; b++) {
    max_id = std::max(max_id, got[b]);
  }
  std::vector<int> expect(kBlocks, -1);
  for (int id = 0; id <= max_id; id++) {
    expect[blocks[static_cast<size_t>(id)]] = id;
  }
  for (uint64_t b = 0; b < kBlocks; b++) {
    EXPECT_EQ(got[b], expect[b]) << "block " << b << " (prefix K=" << max_id
                                 << ", seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixConsistency,
                         ::testing::Values(1, 2, 3, 7, 11, 23));

}  // namespace
}  // namespace lsvd
