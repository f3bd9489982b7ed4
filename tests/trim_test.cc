// End-to-end tests for TRIM/discard through the full stack (DESIGN.md §13):
// disk API validation, read routing (trimmed ranges read as zeros from the
// write-cache trim map and from the punched backend map), journal replay and
// cache-loss recovery of trim records, backend map punching with GC
// accounting, and the crash-stable generation scoring that rides along.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/lsvd/backend_store.h"
#include "src/lsvd/gc_policy.h"
#include "src/lsvd/lsvd_disk.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

// --- disk-level semantics ---

class TrimDiskTest : public ::testing::Test {
 protected:
  TrimDiskTest() {
    config_ = TestWorld::SmallVolumeConfig();
    disk_ = std::make_unique<LsvdDisk>(&world_.host, &world_.store, config_);
    EXPECT_TRUE(OpenSync(&world_.sim, disk_.get(), &LsvdDisk::Create).ok());
  }

  TestWorld world_;
  LsvdConfig config_;
  std::unique_ptr<LsvdDisk> disk_;
};

TEST_F(TrimDiskTest, RejectsBadArguments) {
  EXPECT_EQ(TrimSync(&world_.sim, disk_.get(), 100, 4096).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TrimSync(&world_.sim, disk_.get(), 0, 100).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TrimSync(&world_.sim, disk_.get(), 0, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TrimSync(&world_.sim, disk_.get(), config_.volume_size, 4096)
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(TrimDiskTest, TrimmedWriteCacheDataReadsZeros) {
  Buffer data = TestPattern(32 * kKiB, 1);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), kMiB, data).ok());
  ASSERT_TRUE(TrimSync(&world_.sim, disk_.get(), kMiB, 32 * kKiB).ok());

  auto r = ReadSync(&world_.sim, disk_.get(), kMiB, 32 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
  EXPECT_EQ(disk_->stats().trims, 1u);
  EXPECT_EQ(disk_->stats().trim_bytes, 32u * kKiB);
}

TEST_F(TrimDiskTest, PartialTrimZerosOnlyTheTrimmedRange) {
  Buffer data = TestPattern(48 * kKiB, 2);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, data).ok());
  // Punch the middle 16 KiB.
  ASSERT_TRUE(TrimSync(&world_.sim, disk_.get(), 16 * kKiB, 16 * kKiB).ok());

  auto r = ReadSync(&world_.sim, disk_.get(), 0, 48 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Slice(0, 16 * kKiB), data.Slice(0, 16 * kKiB));
  EXPECT_TRUE(r->Slice(16 * kKiB, 16 * kKiB).IsAllZeros());
  EXPECT_EQ(r->Slice(32 * kKiB, 16 * kKiB), data.Slice(32 * kKiB, 16 * kKiB));
}

TEST_F(TrimDiskTest, OverwriteAfterTrimReturnsNewData) {
  ASSERT_TRUE(
      WriteSync(&world_.sim, disk_.get(), 0, TestPattern(16 * kKiB, 3)).ok());
  ASSERT_TRUE(TrimSync(&world_.sim, disk_.get(), 0, 16 * kKiB).ok());
  Buffer newer = TestPattern(16 * kKiB, 4);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, newer).ok());
  auto r = ReadSync(&world_.sim, disk_.get(), 0, 16 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, newer);
}

TEST_F(TrimDiskTest, TrimPunchesBackendMapAndInvalidatesCaches) {
  // Push data all the way to the backend, evict the write cache so reads
  // would route there, then trim.
  Buffer data = TestPattern(256 * kKiB, 5);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, data).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  ASSERT_TRUE(
      EvictReleasableSync(&world_.sim, &disk_->write_cache()).ok());
  ASSERT_EQ(disk_->backend().object_map().mapped_bytes(), 256u * kKiB);
  // Warm the read cache over the range so the trim must invalidate it.
  ASSERT_TRUE(ReadSync(&world_.sim, disk_.get(), 0, 64 * kKiB).ok());
  world_.sim.Run();

  ASSERT_TRUE(TrimSync(&world_.sim, disk_.get(), 0, 128 * kKiB).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());

  // The backend map is punched and the trimmed half reads zeros even after
  // the write cache forgets the trim record.
  EXPECT_EQ(disk_->backend().object_map().mapped_bytes(), 128u * kKiB);
  ASSERT_TRUE(
      EvictReleasableSync(&world_.sim, &disk_->write_cache()).ok());
  auto r = ReadSync(&world_.sim, disk_.get(), 0, 256 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Slice(0, 128 * kKiB).IsAllZeros());
  EXPECT_EQ(r->Slice(128 * kKiB, 128 * kKiB),
            data.Slice(128 * kKiB, 128 * kKiB));
}

TEST_F(TrimDiskTest, TrimReplaysAfterClientCrash) {
  // Trim journal record survives a crash and replays into the backend.
  Buffer data = TestPattern(64 * kKiB, 6);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, data).ok());
  ASSERT_TRUE(FlushSync(&world_.sim, disk_.get()).ok());
  ASSERT_TRUE(TrimSync(&world_.sim, disk_.get(), 0, 32 * kKiB).ok());
  ASSERT_TRUE(FlushSync(&world_.sim, disk_.get()).ok());

  const DiskRegions regions = disk_->regions();
  disk_->Kill();
  world_.host.ssd()->PowerFail();
  world_.sim.Run();

  disk_ = std::make_unique<LsvdDisk>(&world_.host, &world_.store, config_,
                                     regions);
  ASSERT_TRUE(
      OpenSync(&world_.sim, disk_.get(), &LsvdDisk::OpenAfterCrash).ok());
  auto r = ReadSync(&world_.sim, disk_.get(), 0, 64 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Slice(0, 32 * kKiB).IsAllZeros());
  EXPECT_EQ(r->Slice(32 * kKiB, 32 * kKiB), data.Slice(32 * kKiB, 32 * kKiB));

  // And the replayed trim reaches the backend on drain.
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  EXPECT_EQ(disk_->backend().object_map().mapped_bytes(), 32u * kKiB);
}

TEST_F(TrimDiskTest, TrimSurvivesTotalCacheLoss) {
  // Once the trim object lands in the backend, even losing the whole SSD
  // cache must not resurrect the trimmed data.
  Buffer data = TestPattern(64 * kKiB, 7);
  ASSERT_TRUE(WriteSync(&world_.sim, disk_.get(), 0, data).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());
  ASSERT_TRUE(TrimSync(&world_.sim, disk_.get(), 0, 32 * kKiB).ok());
  ASSERT_TRUE(DrainSync(&world_.sim, disk_.get()).ok());

  disk_->Kill();
  world_.sim.Run();
  ClientHost host2(&world_.sim, TestWorld::InstantHostConfig());
  LsvdDisk fresh(&host2, &world_.store, config_);
  ASSERT_TRUE(OpenSync(&world_.sim, &fresh, &LsvdDisk::OpenCacheLost).ok());
  auto r = ReadSync(&world_.sim, &fresh, 0, 64 * kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Slice(0, 32 * kKiB).IsAllZeros());
  EXPECT_EQ(r->Slice(32 * kKiB, 32 * kKiB), data.Slice(32 * kKiB, 32 * kKiB));
}

// --- backend-level accounting ---

class TrimBackendTest : public ::testing::Test {
 protected:
  TrimBackendTest() {
    config_ = TestWorld::SmallVolumeConfig();
    config_.batch_bytes = 64 * kKiB;
    config_.checkpoint_interval_objects = 4;
    config_.gc_enabled = false;
    store_ = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                            nullptr, config_);
  }

  void Run() { world_.sim.Run(); }

  TestWorld world_;
  LsvdConfig config_;
  std::unique_ptr<BackendStore> store_;
};

TEST_F(TrimBackendTest, TrimSealsOpenWriteBatchAndPunchesMap) {
  // A trim must not share a batch with writes that precede it (the write
  // could be ordered after the trim within the object's extent list).
  const uint64_t wseq = store_->AddWrite(0, TestPattern(16 * kKiB, 1));
  const uint64_t tseq = store_->AddTrim(0, 8 * kKiB);
  EXPECT_NE(wseq, tseq);
  // A write after the trim may share the trim's batch (write follows trim in
  // apply order, which is correct).
  const uint64_t wseq2 = store_->AddWrite(0, TestPattern(4 * kKiB, 2));
  EXPECT_EQ(wseq2, tseq);
  store_->Seal();
  Run();
  // [0,8K) punched by the trim, [0,4K) rewritten by the second write.
  EXPECT_EQ(store_->object_map().mapped_bytes(), 12u * kKiB);
  // The displaced half died in its object.
  const auto info = store_->object_info_for(wseq);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->total_bytes, 16u * kKiB);
  EXPECT_EQ(info->live_bytes, 8u * kKiB);
}

TEST_F(TrimBackendTest, TrimRecordsSurviveBackendRecovery) {
  store_->AddWrite(0, TestPattern(64 * kKiB, 3));
  Run();
  store_->AddTrim(16 * kKiB, 16 * kKiB);
  store_->AddWrite(kMiB, TestPattern(16 * kKiB, 4));
  store_->Seal();
  Run();
  ASSERT_EQ(store_->object_map().mapped_bytes(), 64u * kKiB);

  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->object_map().Extents(), store_->object_map().Extents());
  EXPECT_FALSE(fresh->object_map().LookupOne(16 * kKiB).has_value());
}

TEST_F(TrimBackendTest, PagedMapMatchesFlatThroughTrimsAndRecovery) {
  // Same op sequence against a store whose map packs pages under a tight
  // budget: identical observable map.
  LsvdConfig paged_config = config_;
  paged_config.volume_name = "volp";  // shares world_.store with store_
  paged_config.map_resident_bytes = 4 * kKiB;  // force eviction traffic
  auto paged = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, paged_config);
  // Interleave the same writes and trims into both stores, placed around
  // the 256 MiB page boundaries at 256, 512 and 768 MiB so some ops span
  // two leaf pages.
  constexpr uint64_t kPageSpan = 256 * kMiB;
  Rng rng(9);
  int crossings = 0;
  for (int i = 0; i < 40; i++) {
    const uint64_t boundary = (1 + rng.Uniform(3)) * kPageSpan;
    const uint64_t vlba = boundary - 32 * kKiB + rng.Uniform(8) * 8 * kKiB;
    const uint64_t len = i % 5 == 4 ? 32 * kKiB : 16 * kKiB;
    crossings += vlba < boundary && vlba + len > boundary ? 1 : 0;
    if (i % 5 == 4) {
      store_->AddTrim(vlba, len);
      paged->AddTrim(vlba, len);
    } else {
      store_->AddWrite(vlba, TestPattern(len, 50 + i));
      paged->AddWrite(vlba, TestPattern(len, 50 + i));
    }
    Run();
  }
  EXPECT_GT(crossings, 0);
  store_->Seal();
  paged->Seal();
  Run();
  EXPECT_EQ(store_->object_map().mapped_bytes(),
            paged->object_map().mapped_bytes());
  EXPECT_EQ(store_->object_map().Extents(), paged->object_map().Extents());
  EXPECT_LE(paged->object_map().ResidentBytes(),
            paged_config.map_resident_bytes);
  EXPECT_GT(paged->object_map().page_evictions(), 0u);
}

// --- generation scoring across recovery (the GC bugfix regression) ---

class TrimGcGenerationTest : public ::testing::Test {
 protected:
  TrimGcGenerationTest() {
    config_ = TestWorld::SmallVolumeConfig();
    config_.batch_bytes = 64 * kKiB;
    config_.checkpoint_interval_objects = 2;
    config_.gc_enabled = true;
    config_.gc_policy = GcPolicyKind::kCostBenefit;
    store_ = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                            nullptr, config_);
  }

  void Run() { world_.sim.Run(); }

  TestWorld world_;
  LsvdConfig config_;
  std::unique_ptr<BackendStore> store_;
};

TEST_F(TrimGcGenerationTest, RecoveredStoreScoresVictimsIdentically) {
  // Drive enough overwrite traffic that GC runs and produces generation-
  // tagged output objects that survive to the end of the run. Each 64 KiB
  // batch packs one hot 32 KiB chunk and one cold 32 KiB chunk: churning
  // the hot slots half-kills those objects (cold-only objects would stay
  // fully live and never be GC-eligible), GC relocates the cold halves,
  // and the relocated generation-tagged output is never overwritten.
  Rng rng(11);
  for (uint64_t i = 0; i < 16; i++) {
    store_->AddWrite(rng.Uniform(4) * 32 * kKiB,
                     TestPattern(32 * kKiB, 200 + i));
    Run();
    store_->AddWrite(kMiB + i * 32 * kKiB, TestPattern(32 * kKiB, 100 + i));
    Run();
  }
  for (int round = 0; round < 60; round++) {
    const uint64_t slot = rng.Uniform(4);
    store_->AddWrite(slot * 32 * kKiB,
                     TestPattern(32 * kKiB, 500 + round));
    Run();
  }
  store_->Seal();
  Run();
  ASSERT_GT(store_->stats().gc_objects_cleaned, 0u);
  const auto& generations = store_->object_generations();
  bool any_tagged = false;
  for (const auto& [seq, gen] : generations) {
    any_tagged |= gen > 0;
  }
  ASSERT_TRUE(any_tagged) << "workload produced no GC output objects";

  // Recover a fresh store from the backend alone.
  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());

  // Generation tags are part of the persisted object format, so they must
  // recover exactly...
  EXPECT_EQ(fresh->object_generations(), generations);

  // ...and therefore every surviving GC-output object scores identically
  // pre- and post-crash under the generation-aware policies: the candidates
  // the victim scan builds for generation-tagged objects are derived from
  // persisted state only (sequence-clock age, generation floor), so the
  // seal clock — which does NOT survive recovery — never leaks in.
  for (GcPolicyKind kind :
       {GcPolicyKind::kCostBenefit, GcPolicyKind::kAgeBucketed}) {
    const auto policy = GcPolicy::Create(kind);
    for (const auto& [seq, gen] : generations) {
      if (gen == 0) {
        continue;  // client data scores from the (volatile) age by design
      }
      const auto before = store_->gc_candidate_for(seq);
      const auto after = fresh->gc_candidate_for(seq);
      ASSERT_TRUE(before.has_value());
      ASSERT_TRUE(after.has_value());
      EXPECT_DOUBLE_EQ(policy->Score(*before), policy->Score(*after))
          << GcPolicyKindName(kind) << " seq " << seq;
    }
  }
}

}  // namespace
}  // namespace lsvd
