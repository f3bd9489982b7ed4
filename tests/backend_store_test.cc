// Unit tests for the log-structured block store: batching, within-batch
// coalescing, in-order map application, garbage collection, snapshots with
// deferred deletes, checkpointing and prefix recovery.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "src/lsvd/backend_store.h"
#include "src/lsvd/write_cache.h"
#include "src/lsvd/replicator.h"
#include "src/objstore/faulty_object_store.h"
#include "src/objstore/volume_directory.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

class BackendStoreTest : public ::testing::Test {
 protected:
  BackendStoreTest() : world_(), config_(MakeConfig()) {
    store_ = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                            nullptr, config_);
  }

  static LsvdConfig MakeConfig() {
    LsvdConfig c = TestWorld::SmallVolumeConfig();
    c.batch_bytes = 64 * kKiB;
    c.checkpoint_interval_objects = 4;
    c.gc_enabled = false;  // enabled per-test
    return c;
  }

  // Writes one batch worth of data and waits for it to apply.
  void WriteAndApply(uint64_t vlba, uint64_t len, uint64_t seed) {
    store_->AddWrite(vlba, TestPattern(len, seed));
    store_->Seal();
    world_.sim.Run();
  }

  void Run() { world_.sim.Run(); }

  TestWorld world_;
  LsvdConfig config_;
  std::unique_ptr<BackendStore> store_;
};

TEST_F(BackendStoreTest, BatchSealsAtSizeAndAppliesToMap) {
  // 64 KiB batch limit: 16 x 4 KiB appends seal exactly one batch.
  uint64_t seq0 = 0;
  for (int i = 0; i < 16; i++) {
    const uint64_t s =
        store_->AddWrite(static_cast<uint64_t>(i) * 4096,
                         TestPattern(4096, 100 + i));
    if (i == 0) {
      seq0 = s;
    }
    EXPECT_EQ(s, seq0);  // all in the same batch
  }
  Run();
  EXPECT_EQ(store_->applied_seq(), seq0);
  EXPECT_EQ(store_->stats().objects_put, 1u);
  EXPECT_EQ(store_->object_map().mapped_bytes(), 16u * 4096);
  auto t = store_->object_map().LookupOne(4096);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->seq, seq0);
}

TEST_F(BackendStoreTest, FetchReturnsWrittenData) {
  Buffer data = TestPattern(8192, 7);
  store_->AddWrite(kMiB, data);
  store_->Seal();
  Run();
  auto t = store_->object_map().LookupOne(kMiB);
  ASSERT_TRUE(t.has_value());
  std::optional<Result<Buffer>> r;
  store_->Fetch(*t, 8192, [&](Result<Buffer> rr) { r = std::move(rr); });
  Run();
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(r->value(), data);
}

TEST_F(BackendStoreTest, WithinBatchCoalescingDropsOverwrittenBytes) {
  // Two writes to the same LBA in one batch: only the second survives.
  store_->AddWrite(0, TestPattern(8192, 1));
  Buffer latest = TestPattern(8192, 2);
  store_->AddWrite(0, latest);
  store_->Seal();
  Run();
  EXPECT_EQ(store_->stats().coalesced_bytes, 8192u);
  EXPECT_EQ(store_->stats().payload_bytes, 8192u);
  auto t = store_->object_map().LookupOne(0);
  ASSERT_TRUE(t.has_value());
  std::optional<Result<Buffer>> r;
  store_->Fetch(*t, 8192, [&](Result<Buffer> rr) { r = std::move(rr); });
  Run();
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(r->value(), latest);
}

TEST_F(BackendStoreTest, CoalescingDisabledKeepsAllBytes) {
  config_.coalesce_within_batch = false;
  store_ = std::make_unique<BackendStore>(&world_.host, &world_.store, nullptr,
                                          config_);
  store_->AddWrite(0, TestPattern(8192, 1));
  Buffer latest = TestPattern(8192, 2);
  store_->AddWrite(0, latest);
  store_->Seal();
  Run();
  EXPECT_EQ(store_->stats().coalesced_bytes, 0u);
  EXPECT_EQ(store_->stats().payload_bytes, 16384u);
  // Later extent wins in apply order.
  auto t = store_->object_map().LookupOne(0);
  ASSERT_TRUE(t.has_value());
  std::optional<Result<Buffer>> r;
  store_->Fetch(*t, 8192, [&](Result<Buffer> rr) { r = std::move(rr); });
  Run();
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(r->value(), latest);
}

TEST_F(BackendStoreTest, CrossBatchOverwriteDecrementsLiveBytes) {
  WriteAndApply(0, 16 * 4096, 1);
  const uint64_t total_before = store_->total_bytes();
  EXPECT_EQ(store_->live_bytes(), total_before);
  // Overwrite half of it in a second batch.
  WriteAndApply(0, 8 * 4096, 2);
  EXPECT_EQ(store_->live_bytes(), total_before);  // half old + new half...
  // Utilization dropped below 1 because the first object lost half its live
  // bytes while totals grew.
  EXPECT_LT(store_->Utilization(), 1.0);
}

TEST_F(BackendStoreTest, ObjectsAreNamedBySequence) {
  WriteAndApply(0, 4096, 1);
  WriteAndApply(4096, 4096, 2);
  auto names = world_.store.List(DataObjectPrefix("vol"));
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], DataObjectName("vol", 1));
  EXPECT_EQ(names[1], DataObjectName("vol", 2));
}

TEST_F(BackendStoreTest, SealIfAgedSealsStaleBatch) {
  store_->AddWrite(0, TestPattern(4096, 1));
  world_.sim.RunUntil(world_.sim.now() + kSecond);
  EXPECT_EQ(store_->stats().objects_put, 0u);
  store_->SealIfAged(500 * kMillisecond);
  Run();
  EXPECT_EQ(store_->stats().objects_put, 1u);
}

TEST_F(BackendStoreTest, BatchSealDeadlineSealsPartialBatch) {
  config_.batch_seal_deadline = 10 * kMillisecond;
  store_ = std::make_unique<BackendStore>(&world_.host, &world_.store, nullptr,
                                          config_);
  // No writes: the deadline must never emit an empty object (it would
  // advance the sync watermark past journal data the backend doesn't hold).
  world_.sim.RunUntil(world_.sim.now() + 50 * kMillisecond);
  EXPECT_EQ(store_->stats().objects_put, 0u);

  // One 4 KiB write — far below the 64 KiB size trigger — seals on its own
  // once the deadline passes, with no explicit Seal() call.
  const uint64_t seq = store_->AddWrite(0, TestPattern(4096, 1));
  world_.sim.RunUntil(world_.sim.now() + 50 * kMillisecond);
  EXPECT_EQ(store_->stats().objects_put, 1u);
  EXPECT_EQ(store_->applied_seq(), seq);

  // The slot reopened cleanly: the next write gets a younger batch and that
  // batch's own deadline seals it too.
  const uint64_t seq2 = store_->AddWrite(4096, TestPattern(4096, 2));
  EXPECT_GT(seq2, seq);
  world_.sim.RunUntil(world_.sim.now() + 50 * kMillisecond);
  EXPECT_EQ(store_->stats().objects_put, 2u);
  EXPECT_EQ(store_->applied_seq(), seq2);
}

TEST_F(BackendStoreTest, SizeSealedBatchDisarmsItsDeadline) {
  config_.batch_seal_deadline = 10 * kMillisecond;
  store_ = std::make_unique<BackendStore>(&world_.host, &world_.store, nullptr,
                                          config_);
  // Fill the 64 KiB batch instantly: it seals by size; the stale deadline
  // timer must not double-seal or touch the next batch.
  for (int i = 0; i < 16; i++) {
    store_->AddWrite(static_cast<uint64_t>(i) * 4096,
                     TestPattern(4096, 100 + i));
  }
  const uint64_t seq2 = store_->AddWrite(kMiB, TestPattern(4096, 200));
  world_.sim.RunUntil(world_.sim.now() + 50 * kMillisecond);
  EXPECT_EQ(store_->stats().objects_put, 2u);
  EXPECT_EQ(store_->applied_seq(), seq2);
}

TEST_F(BackendStoreTest, CheckpointsWrittenPeriodically) {
  for (int i = 0; i < 10; i++) {
    WriteAndApply(static_cast<uint64_t>(i) * kMiB, 4096, 10 + i);
  }
  EXPECT_GE(store_->stats().checkpoints, 2u);
  EXPECT_GT(store_->last_checkpoint_seq(), 0u);
  // Only the two newest checkpoint objects are kept.
  EXPECT_LE(world_.store.List(CheckpointPrefix("vol")).size(), 2u);
}

TEST_F(BackendStoreTest, RecoverRebuildsFromCheckpointAndReplay) {
  for (int i = 0; i < 10; i++) {
    WriteAndApply(static_cast<uint64_t>(i) * kMiB, 8192, 20 + i);
  }
  const uint64_t applied = store_->applied_seq();
  const auto extents = store_->object_map().Extents();

  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->applied_seq(), applied);
  EXPECT_EQ(fresh->next_seq(), applied + 1);
  EXPECT_EQ(fresh->object_map().Extents(), extents);
  EXPECT_EQ(fresh->object_count(), store_->object_count());
}

TEST_F(BackendStoreTest, RecoverDeletesStrandedObjects) {
  for (int i = 0; i < 4; i++) {
    WriteAndApply(static_cast<uint64_t>(i) * kMiB, 4096, 30 + i);
  }
  // Fabricate stranded objects: seq 6 and 7 exist, 5 is missing.
  DataObjectHeader h6;
  h6.seq = 6;
  h6.extents = {{0, 4096, 0, 0}};
  world_.store.Put(DataObjectName("vol", 6),
                   EncodeDataObject(h6, TestPattern(4096, 99)), [](Status) {});
  DataObjectHeader h7;
  h7.seq = 7;
  h7.extents = {{4096, 4096, 0, 0}};
  world_.store.Put(DataObjectName("vol", 7),
                   EncodeDataObject(h7, TestPattern(4096, 98)), [](Status) {});
  Run();

  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->applied_seq(), 4u);
  // Stranded objects were deleted during recovery (§3.3).
  EXPECT_EQ(world_.store.Head(DataObjectName("vol", 6)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(world_.store.Head(DataObjectName("vol", 7)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(BackendStoreTest, RecoverFallsBackToOlderCheckpoint) {
  for (int i = 0; i < 10; i++) {
    WriteAndApply(static_cast<uint64_t>(i) * kMiB, 8192, 60 + i);
  }
  std::optional<Status> cs;
  store_->WriteCheckpoint([&](Status s) { cs = s; });
  Run();
  ASSERT_TRUE(cs->ok());
  const auto extents = store_->object_map().Extents();

  // Plant a corrupt checkpoint with a higher id than any real one: recovery
  // must reject it (CRC) and fall back to the older valid checkpoint.
  world_.store.Put(CheckpointObjectName("vol", 999999),
                   TestPattern(512, 123), [](Status) {});
  Run();

  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->object_map().Extents(), extents);
  EXPECT_EQ(fresh->applied_seq(), store_->applied_seq());
}

TEST_F(BackendStoreTest, RecoverOnEmptyStoreYieldsEmptyVolume) {
  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->applied_seq(), 0u);
  EXPECT_EQ(fresh->next_seq(), 1u);
  EXPECT_TRUE(fresh->object_map().empty());
}

class BackendGcTest : public BackendStoreTest {
 protected:
  BackendGcTest() {
    config_.gc_enabled = true;
    config_.checkpoint_interval_objects = 2;
    store_ = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                            nullptr, config_);
  }
};

TEST_F(BackendGcTest, GcReclaimsOverwrittenObjects) {
  // Repeatedly overwrite the same 256 KiB working set; utilization collapses
  // and GC must kick in, keeping it at/above the high watermark.
  for (int round = 0; round < 30; round++) {
    for (int i = 0; i < 4; i++) {
      store_->AddWrite(static_cast<uint64_t>(i) * 64 * kKiB,
                       TestPattern(64 * kKiB, 100 + round));
    }
    Run();
  }
  store_->Seal();
  Run();
  EXPECT_GT(store_->stats().gc_objects_cleaned, 0u);
  EXPECT_GT(store_->stats().objects_deleted, 0u);
  EXPECT_GE(store_->Utilization(), config_.gc_low_watermark - 0.05);
  // Deleted objects are actually gone from the store.
  const auto names = world_.store.List(DataObjectPrefix("vol"));
  EXPECT_LT(names.size(), 30u * 4);
}

TEST_F(BackendGcTest, GcPreservesData) {
  // Known final image: distinct pattern per 64 KiB slot, heavily rewritten.
  constexpr int kSlots = 4;
  std::vector<uint64_t> final_seed(kSlots, 0);
  Rng rng(77);
  for (int round = 0; round < 40; round++) {
    const int slot = static_cast<int>(rng.Uniform(kSlots));
    const uint64_t seed = 1000 + static_cast<uint64_t>(round);
    final_seed[static_cast<size_t>(slot)] = seed;
    store_->AddWrite(static_cast<uint64_t>(slot) * 64 * kKiB,
                     TestPattern(64 * kKiB, seed));
    Run();
  }
  store_->Seal();
  Run();
  ASSERT_GT(store_->stats().gc_objects_cleaned, 0u);

  for (int slot = 0; slot < kSlots; slot++) {
    if (final_seed[static_cast<size_t>(slot)] == 0) {
      continue;
    }
    const uint64_t vlba = static_cast<uint64_t>(slot) * 64 * kKiB;
    auto segs = store_->object_map().Lookup(vlba, 64 * kKiB);
    Buffer assembled;
    for (const auto& seg : segs) {
      ASSERT_TRUE(seg.target.has_value()) << "hole at slot " << slot;
      std::optional<Result<Buffer>> r;
      store_->Fetch(*seg.target, seg.len,
                    [&](Result<Buffer> rr) { r = std::move(rr); });
      Run();
      ASSERT_TRUE(r->ok());
      assembled.Append(r->value());
    }
    EXPECT_EQ(assembled, TestPattern(64 * kKiB,
                                     final_seed[static_cast<size_t>(slot)]))
        << "slot " << slot;
  }
}

TEST_F(BackendGcTest, RecoveryAfterGcIsConsistent) {
  Rng rng(88);
  std::vector<uint64_t> final_seed(4, 0);
  for (int round = 0; round < 40; round++) {
    const int slot = static_cast<int>(rng.Uniform(4));
    const uint64_t seed = 2000 + static_cast<uint64_t>(round);
    final_seed[static_cast<size_t>(slot)] = seed;
    store_->AddWrite(static_cast<uint64_t>(slot) * 64 * kKiB,
                     TestPattern(64 * kKiB, seed));
    Run();
  }
  store_->Seal();
  Run();
  ASSERT_GT(store_->stats().gc_objects_cleaned, 0u);

  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->object_map().Extents(), store_->object_map().Extents());
}

TEST_F(BackendGcTest, SnapshotDefersDeletes) {
  for (int i = 0; i < 8; i++) {
    WriteAndApply(0, 64 * kKiB, 300 + i);  // same range: all but last dead
  }
  std::optional<Result<uint64_t>> snap;
  store_->CreateSnapshot([&](Result<uint64_t> r) { snap = std::move(r); });
  Run();
  ASSERT_TRUE(snap->ok());
  const uint64_t snap_seq = snap->value();
  const size_t objects_at_snap =
      world_.store.List(DataObjectPrefix("vol")).size();

  // More overwrites trigger GC of pre-snapshot objects -> deferred deletes.
  for (int i = 0; i < 12; i++) {
    WriteAndApply(0, 64 * kKiB, 400 + i);
  }
  EXPECT_GT(store_->stats().deferred_deletes, 0u);
  // Objects referenced by the snapshot are still present.
  EXPECT_GE(world_.store.List(DataObjectPrefix("vol")).size(),
            objects_at_snap - 0);

  // Deleting the snapshot releases the deferred deletes.
  const uint64_t deleted_before = store_->stats().objects_deleted;
  std::optional<Status> ds;
  store_->DeleteSnapshot(snap_seq, [&](Status st) { ds = st; });
  Run();
  ASSERT_TRUE(ds->ok());
  EXPECT_GT(store_->stats().objects_deleted, deleted_before);
  EXPECT_TRUE(store_->deferred_deletes().empty());
}

TEST_F(BackendGcTest, GcKeepsFragmentedBlocksReadable) {
  // Interleaved 4 KiB writes (even blocks, then odd blocks much later)
  // fragment the map; GC copies only the live pieces, and every block must
  // still read back its newest data.
  LsvdConfig config = MakeConfig();
  config.volume_name = "frag";
  config.gc_enabled = true;
  config.checkpoint_interval_objects = 2;
  auto store = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config);
  // Phase 1: a contiguous 2 MiB region (few fully-live objects).
  for (uint64_t b = 0; b < 512; b += 16) {
    store->AddWrite(b * 4096, TestPattern(16 * 4096, 7000 + b));
    world_.sim.Run();
  }
  // Phase 2: overwrite 3 of every 4 blocks, leaving the phase-1 objects
  // 25% live with 4 KiB live pieces separated by 12 KiB holes.
  for (uint64_t b = 0; b < 512; b++) {
    if (b % 4 != 0) {
      store->AddWrite(b * 4096, TestPattern(4096, 8000 + b));
      world_.sim.Run();
    }
  }
  store->Seal();
  world_.sim.Run();
  EXPECT_GT(store->stats().gc_objects_cleaned, 0u);
  for (uint64_t b = 0; b < 512; b += 97) {
    auto t = store->object_map().LookupOne(b * 4096);
    ASSERT_TRUE(t.has_value()) << "block " << b << " unmapped";
    std::optional<Result<Buffer>> r;
    store->Fetch(*t, 4096, [&](Result<Buffer> rr) { r = std::move(rr); });
    world_.sim.Run();
    ASSERT_TRUE(r.has_value() && r->ok()) << "block " << b << " unreadable";
    const Buffer expect = b % 4 == 0
                              ? TestPattern(16 * 4096, 7000 + b / 16 * 16)
                                    .Slice(b % 16 * 4096, 4096)
                              : TestPattern(4096, 8000 + b);
    EXPECT_EQ(r->value(), expect) << "block " << b;
  }
}

TEST_F(BackendGcTest, CorruptVictimAbortsRoundAndKeepsAccounting) {
  // Two objects, then a checkpoint (interval = 2) so object 1 becomes GC
  // eligible (victims must be older than the last checkpoint).
  WriteAndApply(0, 64 * kKiB, 1);             // object 1
  WriteAndApply(64 * kKiB, 64 * kKiB, 2);     // object 2 -> checkpoint
  ASSERT_GE(store_->last_checkpoint_seq(), 2u);

  // Replace object 1's backend bytes with garbage — a torn upload or bit rot
  // that slipped past the PUT path. Its map extents still point into it.
  const std::string victim = store_->NameForSeq(1);
  world_.store.Corrupt(victim);
  world_.store.Put(victim, TestPattern(4096, 77), [](Status) {});
  Run();

  // Overwrite most of object 1 so it becomes the least-utilized object and
  // utilization dips below the low watermark: GC picks it as victim.
  WriteAndApply(0, 56 * kKiB, 3);             // object 3
  ASSERT_LT(store_->Utilization(), config_.gc_low_watermark);

  // The round must abort: the victim's header is undecodable, but live map
  // extents still point into it. Before the fix the victim was treated as
  // fully dead — erased from accounting while reads through it kept failing.
  EXPECT_GE(store_->stats().gc_aborted_corrupt, 1u);
  EXPECT_EQ(store_->stats().gc_objects_cleaned, 0u);
  EXPECT_EQ(store_->object_count(), 3u);  // victim still accounted
  // The still-live tail of object 1 keeps its mapping; nothing was deleted.
  auto t = store_->object_map().LookupOne(60 * kKiB);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->seq, 1u);
  EXPECT_TRUE(world_.store.Head(victim).ok());
}

TEST_F(BackendGcTest, DeleteUnknownSnapshotFails) {
  std::optional<Status> s;
  store_->DeleteSnapshot(999, [&](Status st) { s = st; });
  Run();
  EXPECT_EQ(s->code(), StatusCode::kNotFound);
}

// --- retry/backoff and degraded mode against a faulty backend ---

LsvdConfig FaultTestConfig() {
  LsvdConfig c = TestWorld::SmallVolumeConfig();
  c.batch_bytes = 64 * kKiB;
  c.gc_enabled = false;
  c.retry.initial_backoff = kMillisecond;
  c.retry.max_backoff = 8 * kMillisecond;
  c.retry.degraded_probe_interval = 100 * kMillisecond;
  return c;
}

TEST(BackendStoreFaultTest, TransientPutFaultsAreAbsorbedByRetries) {
  TestWorld world;
  FaultInjectionConfig fc;
  fc.seed = 21;
  fc.put_error_p = 0.10;
  FaultyObjectStore faulty(&world.store, &world.sim, fc);
  BackendStore store(&world.host, &faulty, nullptr, FaultTestConfig());

  uint64_t last_seq = 0;
  for (int i = 0; i < 30; i++) {
    last_seq = store.AddWrite(static_cast<uint64_t>(i) * 64 * kKiB,
                              TestPattern(64 * kKiB, 500 + i));
  }
  store.Seal();
  world.sim.Run();

  EXPECT_EQ(store.applied_seq(), last_seq);
  EXPECT_FALSE(store.degraded());
  EXPECT_GT(faulty.fault_stats().put_errors, 0u);
  EXPECT_GT(store.stats().retries, 0u);
  EXPECT_EQ(store.stats().put_failures, 0u);
  // Every batch made it to the backend intact.
  for (uint64_t seq = 1; seq <= last_seq; seq++) {
    EXPECT_TRUE(world.store.Head(store.NameForSeq(seq)).ok()) << seq;
  }
}

TEST(BackendStoreFaultTest, OfflineBackendParksBatchesThenProbeRecovers) {
  TestWorld world;
  FaultyObjectStore faulty(&world.store, &world.sim, FaultInjectionConfig{});
  BackendStore store(&world.host, &faulty, nullptr, FaultTestConfig());

  faulty.set_offline(true);
  const uint64_t seq = store.AddWrite(0, TestPattern(64 * kKiB, 1));
  world.sim.RunUntil(world.sim.now() + kSecond);

  EXPECT_TRUE(store.degraded());
  EXPECT_EQ(store.applied_seq(), 0u);
  EXPECT_GE(store.stats().put_failures, 1u);
  EXPECT_GT(store.stats().retries, 0u);

  faulty.set_offline(false);
  world.sim.Run();
  EXPECT_FALSE(store.degraded());
  EXPECT_EQ(store.applied_seq(), seq);
  EXPECT_TRUE(world.store.Head(store.NameForSeq(seq)).ok());
}

TEST(BackendStoreFaultTest, UnackedPutTimesOutAndRetries) {
  TestWorld world;
  LsvdConfig config = FaultTestConfig();
  config.retry.op_timeout = kSecond;
  BackendStore store(&world.host, &world.store, nullptr, config);

  // The first PUT is stranded: the object never lands and no ack arrives.
  world.store.DropNextPuts(1);
  const uint64_t seq = store.AddWrite(0, TestPattern(64 * kKiB, 2));
  world.sim.Run();

  EXPECT_EQ(store.applied_seq(), seq);
  EXPECT_GE(store.stats().timeouts, 1u);
  EXPECT_GE(store.stats().retries, 1u);
  EXPECT_TRUE(world.store.Head(store.NameForSeq(seq)).ok());
}

TEST(BackendStoreFaultTest, RetryHealsTornObjectLeftByPriorAttempt) {
  TestWorld world;
  BackendStore store(&world.host, &world.store, nullptr, FaultTestConfig());

  // A torn leftover occupies the name the first batch will use (as if an
  // earlier attempt died mid-upload): the immutable-name PUT failure must
  // be healed by delete-and-reupload, not retried blindly.
  std::optional<Status> planted;
  world.store.Put(store.NameForSeq(1), Buffer::Zeros(4096),
                  [&](Status s) { planted = s; });
  world.sim.Run();
  ASSERT_TRUE(planted.has_value() && planted->ok());

  const uint64_t seq = store.AddWrite(0, TestPattern(64 * kKiB, 3));
  world.sim.Run();

  EXPECT_EQ(store.applied_seq(), seq);
  EXPECT_GE(store.stats().retries, 1u);
  const auto have = world.store.Head(store.NameForSeq(seq));
  ASSERT_TRUE(have.ok());
  EXPECT_GT(*have, 64u * kKiB);  // the real object, not the torn stub
}

// --- one retry driver for every object-store request (DESIGN.md §7) ---
//
// One table: each backend verb and each replicator copy stage against each
// fault the driver handles, all on FaultyObjectStore.

enum class Verb { kPut, kGet, kDelete };

// Sends the first `faulty_calls` calls of `verb` through `faulty` and every
// other call straight to `clean` (the store `faulty` wraps); counts the
// data-plane calls of each verb, and the PUTs sent while a DELETE of the
// same name was still unanswered.
class RoutedStore : public ObjectStore {
 public:
  RoutedStore(ObjectStore* faulty, ObjectStore* clean, Verb verb)
      : faulty_(faulty), clean_(clean), verb_(verb) {}

  void Put(const std::string& name, Buffer data, PutCallback done) override {
    puts_racing_delete += deleting_.contains(name);
    Pick(Verb::kPut)->Put(name, std::move(data), std::move(done));
  }
  void Get(const std::string& name, GetCallback done) override {
    Pick(Verb::kGet)->Get(name, std::move(done));
  }
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override {
    Pick(Verb::kGet)->GetRange(name, offset, len, std::move(done));
  }
  void Delete(const std::string& name, PutCallback done) override {
    deleting_.insert(name);
    Pick(Verb::kDelete)->Delete(name, [this, name, done](Status s) {
      deleting_.erase(name);
      done(std::move(s));
    });
  }
  std::vector<std::string> List(const std::string& prefix) const override {
    return clean_->List(prefix);
  }
  Result<uint64_t> Head(const std::string& name) const override {
    return clean_->Head(name);
  }

  int calls(Verb verb) const { return calls_[static_cast<int>(verb)]; }
  int faulty_calls = 0;
  int puts_racing_delete = 0;

 private:
  ObjectStore* Pick(Verb verb) {
    calls_[static_cast<int>(verb)]++;
    if (verb == verb_ && faulty_calls > 0) {
      faulty_calls--;
      return faulty_;
    }
    return clean_;
  }

  ObjectStore* faulty_;
  ObjectStore* clean_;
  Verb verb_;
  int calls_[3] = {0, 0, 0};
  std::set<std::string> deleting_;
};

enum class RetryOp { kBackendPut, kBackendGet, kBackendDelete, kCopyGet,
                     kCopyPut };
enum class Fault { kTransient, kLateAnswer, kTornPut, kExhausted };

struct RetryCase {
  RetryOp op;
  Fault fault;
};

constexpr int kTableAttempts = 3;

Verb VerbOf(RetryOp op) {
  switch (op) {
    case RetryOp::kBackendPut:
    case RetryOp::kCopyPut:
      return Verb::kPut;
    case RetryOp::kBackendGet:
    case RetryOp::kCopyGet:
      return Verb::kGet;
    case RetryOp::kBackendDelete:
      return Verb::kDelete;
  }
  return Verb::kPut;
}

FaultInjectionConfig FaultsFor(Fault fault, Verb verb) {
  FaultInjectionConfig fc;
  switch (fault) {
    case Fault::kTransient:
    case Fault::kExhausted:
      (verb == Verb::kPut   ? fc.put_error_p
       : verb == Verb::kGet ? fc.get_error_p
                            : fc.delete_error_p) = 1.0;
      break;
    case Fault::kLateAnswer:  // answers after the 1 s attempt timeout
      fc.added_latency_min = fc.added_latency_max = 2 * kSecond;
      break;
    case Fault::kTornPut:
      fc.torn_put_p = 1.0;
      break;
  }
  return fc;
}

LsvdConfig RetryTableConfig() {
  LsvdConfig c = FaultTestConfig();
  c.retry.max_attempts = kTableAttempts;
  c.retry.op_timeout = kSecond;
  c.retry.degraded_probe_interval = 3600 * kSecond;  // no probe in the run
  return c;
}

// A data object under `seq` with nothing before it: recovery's prefix rule
// deletes it as stranded.
void PlantStrandedObject(TestWorld* world, uint64_t seq) {
  world->store.Put(DataObjectName("vol", seq), Buffer::Zeros(4096),
                   [](Status s) { ASSERT_TRUE(s.ok()); });
  world->sim.Run();
}

struct RetryOutcome {
  bool ok = false;
  int calls = 0;  // calls of the op's verb
  int deletes = 0;
  int puts_racing_delete = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t failures = 0;  // .put_failures or .copy_failures
  bool recopied = false;  // an exhausted copy succeeded on the next poll
};

RetryOutcome RunBackendOp(RetryOp op, TestWorld* world, RoutedStore* routed,
                          int faulty_calls) {
  BackendStore store(&world->host, routed, nullptr, RetryTableConfig());
  uint64_t seq = 0;
  if (op == RetryOp::kBackendGet) {
    seq = store.AddWrite(0, TestPattern(64 * kKiB, 7));
    world->sim.Run();
  }
  routed->faulty_calls = faulty_calls;
  const int before = routed->calls(VerbOf(op));
  RetryOutcome out;
  std::optional<Result<Buffer>> got;
  int answers = 0;
  switch (op) {
    case RetryOp::kBackendPut:
      seq = store.AddWrite(0, TestPattern(64 * kKiB, 7));
      break;
    case RetryOp::kBackendGet:
      store.Fetch(ObjTarget{seq, 0}, 4096,
                  [&](Result<Buffer> r) {
                    got = std::move(r);
                    answers++;
                  });
      break;
    default:
      PlantStrandedObject(world, 2);
      store.Recover([](Status s) { ASSERT_TRUE(s.ok()); });
      break;
  }
  world->sim.RunUntil(world->sim.now() + 10 * kSecond);
  switch (op) {
    case RetryOp::kBackendPut: {
      const auto have = world->store.Head(store.NameForSeq(seq));
      out.ok = store.applied_seq() == seq && have.ok() && *have > 64 * kKiB;
      break;
    }
    case RetryOp::kBackendGet:
      out.ok = answers == 1 && got->ok();  // the late answer is dropped
      break;
    default:
      out.ok = !world->store.Head(DataObjectName("vol", 2)).ok();
      break;
  }
  out.calls = routed->calls(VerbOf(op)) - before;
  out.deletes = routed->calls(Verb::kDelete);
  out.puts_racing_delete = routed->puts_racing_delete;
  out.retries = store.stats().retries;
  out.timeouts = store.stats().timeouts;
  out.failures = store.stats().put_failures;
  return out;
}

RetryOutcome RunCopyOp(RetryOp op, TestWorld* world, RoutedStore* routed,
                       ObjectStore* primary, ObjectStore* replica,
                       int faulty_calls) {
  ReplicatorConfig rc;
  rc.min_age = 0;
  rc.retry.max_attempts = kTableAttempts;
  rc.retry.initial_backoff = kMillisecond;
  rc.retry.max_backoff = 8 * kMillisecond;
  Replicator rep(&world->sim, primary, replica, rc);
  const std::string name = DataObjectName("vol", 1);
  world->store.Put(name, TestPattern(64 * kKiB, 8),
                   [](Status s) { ASSERT_TRUE(s.ok()); });
  world->sim.Run();

  routed->faulty_calls = faulty_calls;
  rep.PollOnce([] {});
  world->sim.Run();
  RetryOutcome out;
  out.ok = rep.stats().objects_copied == 1;
  out.calls = routed->calls(VerbOf(op));
  out.deletes = routed->calls(Verb::kDelete);
  out.puts_racing_delete = routed->puts_racing_delete;
  out.retries = rep.stats().retries;
  out.failures = rep.stats().copy_failures;
  if (!out.ok) {
    routed->faulty_calls = 0;
    rep.PollOnce([] {});
    world->sim.Run();
    out.recopied = rep.stats().objects_copied == 1;
  }
  return out;
}

class RetryTableTest : public ::testing::TestWithParam<RetryCase> {};

TEST_P(RetryTableTest, AttemptsAndCounters) {
  const auto [op, fault] = GetParam();
  TestWorld world;
  MemObjectStore replica(&world.sim);
  const bool copy = op == RetryOp::kCopyGet || op == RetryOp::kCopyPut;
  // The faults sit on the primary, except for the copy's replica PUT.
  ObjectStore* faulted = op == RetryOp::kCopyPut
                             ? static_cast<ObjectStore*>(&replica)
                             : &world.store;
  FaultyObjectStore faulty(faulted, &world.sim, FaultsFor(fault, VerbOf(op)));
  RoutedStore routed(&faulty, faulted, VerbOf(op));
  const int faulty_calls = fault == Fault::kExhausted ? 1000 : 1;
  const RetryOutcome out =
      !copy ? RunBackendOp(op, &world, &routed, faulty_calls)
      : op == RetryOp::kCopyGet
          ? RunCopyOp(op, &world, &routed, &routed, &replica, faulty_calls)
          : RunCopyOp(op, &world, &routed, &world.store, &routed,
                      faulty_calls);

  const bool exhausted = fault == Fault::kExhausted;
  EXPECT_EQ(out.ok, !exhausted);
  EXPECT_EQ(out.calls, exhausted ? kTableAttempts : 2);
  EXPECT_EQ(out.retries, static_cast<uint64_t>(out.calls - 1));
  EXPECT_EQ(out.timeouts, fault == Fault::kLateAnswer ? 1u : 0u);
  const bool counts_failures = op == RetryOp::kBackendPut || copy;
  EXPECT_EQ(out.failures, exhausted && counts_failures ? 1u : 0u);
  if (fault == Fault::kTornPut) {
    // The torn leftover is deleted, and only then is the PUT re-sent.
    EXPECT_EQ(out.deletes, 1);
  }
  EXPECT_EQ(out.puts_racing_delete, 0);
  // An exhausted copy is re-queued: the next poll copies the object.
  EXPECT_EQ(out.recopied, copy && exhausted);
}

std::string RetryCaseName(const ::testing::TestParamInfo<RetryCase>& info) {
  static const char* kOps[] = {"BackendPut", "BackendGet", "BackendDelete",
                               "CopyGet", "CopyPut"};
  static const char* kFaults[] = {"Transient", "LateAnswer", "TornPut",
                                  "Exhausted"};
  return std::string(kOps[static_cast<int>(info.param.op)]) + "_" +
         kFaults[static_cast<int>(info.param.fault)];
}

INSTANTIATE_TEST_SUITE_P(
    Faults, RetryTableTest,
    ::testing::Values(
        RetryCase{RetryOp::kBackendPut, Fault::kTransient},
        RetryCase{RetryOp::kBackendPut, Fault::kLateAnswer},
        RetryCase{RetryOp::kBackendPut, Fault::kTornPut},
        RetryCase{RetryOp::kBackendPut, Fault::kExhausted},
        RetryCase{RetryOp::kBackendGet, Fault::kTransient},
        RetryCase{RetryOp::kBackendGet, Fault::kLateAnswer},
        RetryCase{RetryOp::kBackendGet, Fault::kExhausted},
        RetryCase{RetryOp::kBackendDelete, Fault::kTransient},
        RetryCase{RetryOp::kBackendDelete, Fault::kExhausted},
        RetryCase{RetryOp::kCopyGet, Fault::kTransient},
        RetryCase{RetryOp::kCopyGet, Fault::kExhausted},
        RetryCase{RetryOp::kCopyPut, Fault::kTransient},
        RetryCase{RetryOp::kCopyPut, Fault::kTornPut},
        RetryCase{RetryOp::kCopyPut, Fault::kExhausted}),
    RetryCaseName);

TEST(BackendStoreFaultTest, FencedDeleteIsSentOnce) {
  // A stale attachment's DELETE: kFenced is terminal for every verb, so the
  // stranded object's delete goes out once and is never retried.
  TestWorld world;
  VolumeDirectory directory;
  const uint64_t epoch = directory.Register("vol", /*host=*/0);
  FencedObjectStore fenced(&world.sim, &world.store, &directory, "vol",
                           epoch);
  RoutedStore counted(&fenced, &fenced, Verb::kDelete);
  BackendStore store(&world.host, &counted, nullptr, RetryTableConfig());
  PlantStrandedObject(&world, 2);
  directory.Flip("vol", /*host=*/1);

  std::optional<Status> recovered;
  store.Recover([&](Status s) { recovered = s; });
  world.sim.Run();
  ASSERT_TRUE(recovered.has_value() && recovered->ok());
  EXPECT_EQ(counted.calls(Verb::kDelete), 1);
  EXPECT_EQ(store.stats().retries, 0u);
  EXPECT_TRUE(world.store.Head(DataObjectName("vol", 2)).ok());
}

// --- backend sharding (DESIGN.md §9) ---

TEST(ShardingFormatTest, ShardForSeqRoundRobin) {
  // Unsharded: everything on shard 0.
  EXPECT_EQ(ShardForSeq(1, 1), 0u);
  EXPECT_EQ(ShardForSeq(17, 1), 0u);
  EXPECT_EQ(ShardForSeq(5, 0), 0u);
  // Round-robin by (seq - 1): seq 1 -> shard 0, seq 2 -> shard 1, ...
  for (uint64_t seq = 1; seq <= 12; seq++) {
    EXPECT_EQ(ShardForSeq(seq, 4), (seq - 1) % 4) << seq;
  }
}

TEST(ShardingFormatTest, ConsistencyVectorMatchesBruteForce) {
  for (size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    for (uint64_t through = 0; through <= 20; through++) {
      const auto vec = ConsistencyVector(through, shards);
      ASSERT_EQ(vec.size(), shards == 0 ? 1u : shards);
      std::vector<uint64_t> expect(vec.size(), 0);
      for (uint64_t s = 1; s <= through; s++) {
        expect[ShardForSeq(s, shards)] = s;
      }
      EXPECT_EQ(vec, expect) << "shards=" << shards << " through=" << through;
    }
  }
}

TEST(ShardingFormatTest, CheckpointRoundTripsConsistencyVector) {
  CheckpointState state;
  state.through_seq = 7;
  state.next_seq = 9;
  state.object_map = {{0, 4096, ObjTarget{3, 0}},
                      {8192, 4096, ObjTarget{7, 4096}}};
  state.object_info[3] = ObjectInfo{8192, 4096};
  state.object_info[7] = ObjectInfo{8192, 8192};
  state.deferred_deletes = {{2, 6}};
  state.snapshots = {5};
  state.shard_count = 4;
  state.shard_consistent = ConsistencyVector(7, 4);

  CheckpointState decoded;
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(state), &decoded).ok());
  EXPECT_EQ(decoded.through_seq, state.through_seq);
  EXPECT_EQ(decoded.next_seq, state.next_seq);
  EXPECT_EQ(decoded.object_map, state.object_map);
  EXPECT_EQ(decoded.object_info.size(), 2u);
  EXPECT_EQ(decoded.object_info[7].live_bytes, 8192u);
  EXPECT_EQ(decoded.shard_count, 4u);
  EXPECT_EQ(decoded.shard_consistent, (std::vector<uint64_t>{5, 6, 7, 4}));
}

TEST(ShardingFormatTest, CheckpointRoundTripsGenerations) {
  CheckpointState state;
  state.through_seq = 9;
  state.next_seq = 11;
  state.shard_consistent = {9};
  state.object_map = {{0, 4096, ObjTarget{9, 0}}};
  state.object_info[9] = ObjectInfo{4096, 4096};
  state.generations[7] = 2;
  state.generations[9] = 1;
  CheckpointState decoded;
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(state), &decoded).ok());
  EXPECT_EQ(decoded.generations, state.generations);
  EXPECT_EQ(decoded.object_map, state.object_map);
  EXPECT_EQ(decoded.shard_count, 1u);
  EXPECT_EQ(decoded.shard_consistent, state.shard_consistent);
}

// One layout per structure: every combination of {1, 4} shards, GC
// generations and trim extents round-trips through the data-object header
// and the backend checkpoint.
struct FormatCase {
  uint32_t shards;
  bool generations;
  bool trim;
};

class FormatRoundTripTest : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatRoundTripTest, HeaderAndCheckpointRoundTrip) {
  const FormatCase c = GetParam();
  const uint32_t gen = c.generations ? 3 : 0;

  DataObjectHeader header;
  header.seq = 12;
  header.generation = gen;
  header.extents.push_back({0, 8 * kKiB, 0, 0, false});
  header.extents.push_back({64 * kKiB, 4 * kKiB, 5, 4096, false});
  if (c.trim) {
    header.extents.push_back({kMiB, 32 * kKiB, 0, 0, true});
  }
  const Buffer payload = TestPattern(12 * kKiB, 1);
  const Buffer object = EncodeDataObject(header, payload);
  EXPECT_EQ(object.size(),
            DataObjectHeaderSize(header.extents.size()) + payload.size());
  DataObjectHeader h;
  ASSERT_TRUE(DecodeDataObjectHeader(object, &h).ok());
  EXPECT_EQ(h.seq, header.seq);
  EXPECT_EQ(h.generation, gen);
  EXPECT_EQ(h.data_offset, DataObjectHeaderSize(header.extents.size()));
  ASSERT_EQ(h.extents.size(), header.extents.size());
  for (size_t i = 0; i < h.extents.size(); i++) {
    EXPECT_EQ(h.extents[i].vlba, header.extents[i].vlba) << i;
    EXPECT_EQ(h.extents[i].len, header.extents[i].len) << i;
    EXPECT_EQ(h.extents[i].is_trim, header.extents[i].is_trim) << i;
    EXPECT_EQ(h.extents[i].expected_seq, header.extents[i].expected_seq) << i;
    EXPECT_EQ(h.extents[i].expected_offset,
              header.extents[i].expected_offset)
        << i;
  }
  EXPECT_EQ(DataObjectPayloadBytes(h), payload.size());

  CheckpointState state;
  state.through_seq = 12;
  state.next_seq = 13;
  state.shard_count = c.shards;
  state.shard_consistent = ConsistencyVector(12, c.shards);
  state.object_map = {{0, 8 * kKiB, ObjTarget{12, 4096}}};
  state.object_info[12] = ObjectInfo{12 * kKiB, 8 * kKiB};
  if (c.generations) {
    state.generations[12] = gen;
  }
  CheckpointState decoded;
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(state), &decoded).ok());
  EXPECT_EQ(decoded.through_seq, state.through_seq);
  EXPECT_EQ(decoded.next_seq, state.next_seq);
  EXPECT_EQ(decoded.object_map, state.object_map);
  EXPECT_EQ(decoded.shard_count, c.shards);
  EXPECT_EQ(decoded.shard_consistent, state.shard_consistent);
  EXPECT_EQ(decoded.generations, state.generations);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, FormatRoundTripTest,
    ::testing::Values(FormatCase{1, false, false}, FormatCase{1, false, true},
                      FormatCase{1, true, false}, FormatCase{1, true, true},
                      FormatCase{4, false, false}, FormatCase{4, false, true},
                      FormatCase{4, true, false}, FormatCase{4, true, true}),
    [](const ::testing::TestParamInfo<FormatCase>& info) {
      return "Shards" + std::to_string(info.param.shards) +
             (info.param.generations ? "Gen" : "NoGen") +
             (info.param.trim ? "Trim" : "NoTrim");
    });

// Overwrites the little-endian u32 at `pos` and recomputes the CRC stored at
// `crc_pos` (over the whole buffer, CRC field zeroed), so only the decoder's
// own checks stand between the patched field and the caller.
std::vector<uint8_t> PatchU32WithCrc(std::vector<uint8_t> bytes, size_t pos,
                                     uint32_t value, size_t crc_pos) {
  const auto put = [&bytes](size_t at, uint32_t v) {
    for (size_t i = 0; i < 4; i++) {
      bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put(pos, value);
  put(crc_pos, 0);
  put(crc_pos, Crc32c(bytes.data(), bytes.size()));
  return bytes;
}

// Data-object header: magic, version, seq, data_offset, the extent count at
// byte 24, generation, the CRC at byte 32. Checkpoint: magic, version, two
// u64 seqs, seven u32 counts (the map count at byte 24), the CRC at byte 52.
constexpr size_t kVersionPos = 4;
constexpr size_t kObjectCountPos = 24;
constexpr size_t kObjectCrcPos = 32;
constexpr size_t kCkptMapCountPos = 24;
constexpr size_t kCkptCrcPos = 52;

std::vector<uint8_t> SmallCheckpoint() {
  CheckpointState state;
  state.through_seq = 3;
  state.next_seq = 4;
  state.shard_consistent = {3};
  state.object_map = {{0, 4096, ObjTarget{3, 4096}}};
  state.object_info[3] = ObjectInfo{4096, 4096};
  state.generations[3] = 1;
  return EncodeCheckpoint(state).ToBytes();
}

std::vector<uint8_t> SmallObjectHeader() {
  DataObjectHeader header;
  header.seq = 3;
  header.extents.push_back({0, 4096, 0, 0, false});
  return EncodeDataObject(header, TestPattern(4096, 3))
      .Slice(0, DataObjectHeaderSize(1))
      .ToBytes();
}

TEST(FormatVersionTest, DecodersRejectEveryVersionButTheCurrentOne) {
  const std::vector<uint8_t> object = SmallObjectHeader();
  const std::vector<uint8_t> ckpt = SmallCheckpoint();
  DataObjectHeader h;
  ASSERT_TRUE(DecodeDataObjectHeader(Buffer::FromBytes(object), &h).ok());
  CheckpointState cs;
  ASSERT_TRUE(DecodeCheckpoint(Buffer::FromBytes(ckpt), &cs).ok());
  for (uint32_t v = 0; v <= 8; v++) {
    if (v != object[kVersionPos]) {
      const auto bytes = PatchU32WithCrc(object, kVersionPos, v, kObjectCrcPos);
      EXPECT_EQ(DecodeDataObjectHeader(Buffer::FromBytes(bytes), &h).code(),
                StatusCode::kCorruption)
          << "object version " << v;
    }
    if (v != ckpt[kVersionPos]) {
      const auto bytes = PatchU32WithCrc(ckpt, kVersionPos, v, kCkptCrcPos);
      EXPECT_EQ(DecodeCheckpoint(Buffer::FromBytes(bytes), &cs).code(),
                StatusCode::kCorruption)
          << "checkpoint version " << v;
    }
  }
}

TEST(FormatVersionTest, InflatedCountsWithValidCrcAreRejected) {
  const std::vector<uint8_t> ckpt = SmallCheckpoint();
  const std::vector<uint8_t> object = SmallObjectHeader();
  for (const uint32_t count : {2u, 1000u, 0xFFFFFFFFu}) {
    CheckpointState cs;
    const auto c = PatchU32WithCrc(ckpt, kCkptMapCountPos, count, kCkptCrcPos);
    EXPECT_EQ(DecodeCheckpoint(Buffer::FromBytes(c), &cs).code(),
              StatusCode::kCorruption)
        << "map count " << count;
    DataObjectHeader h;
    const auto o =
        PatchU32WithCrc(object, kObjectCountPos, count, kObjectCrcPos);
    EXPECT_EQ(DecodeDataObjectHeader(Buffer::FromBytes(o), &h).code(),
              StatusCode::kCorruption)
        << "extent count " << count;
  }
}

TEST(ShardingFormatTest, CheckpointRejectsVectorShardCountMismatch) {
  CheckpointState state;
  state.through_seq = 4;
  state.next_seq = 5;
  state.shard_count = 4;
  state.shard_consistent = {4, 2};  // wrong length for 4 shards
  CheckpointState decoded;
  EXPECT_EQ(DecodeCheckpoint(EncodeCheckpoint(state), &decoded).code(),
            StatusCode::kCorruption);
}

class ShardedBackendTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  ShardedBackendTest() : config_(MakeConfig()) {
    for (size_t i = 0; i < kShards; i++) {
      stores_.push_back(std::make_unique<MemObjectStore>(&world_.sim));
      ptrs_.push_back(stores_.back().get());
    }
    store_ = std::make_unique<BackendStore>(&world_.host, ptrs_, nullptr,
                                            config_, &metrics_);
  }

  static LsvdConfig MakeConfig() {
    LsvdConfig c = TestWorld::SmallVolumeConfig();
    c.batch_bytes = 64 * kKiB;
    c.checkpoint_interval_objects = 100;  // checkpoints per-test
    c.gc_enabled = false;
    return c;
  }

  // One full batch -> one data object on ShardForSeq(seq, kShards).
  uint64_t WriteOneObject(uint64_t vlba, uint64_t seed) {
    const uint64_t seq = store_->AddWrite(vlba, TestPattern(64 * kKiB, seed));
    world_.sim.Run();
    return seq;
  }

  void Run() { world_.sim.Run(); }

  TestWorld world_;
  LsvdConfig config_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<MemObjectStore>> stores_;
  std::vector<ObjectStore*> ptrs_;
  std::unique_ptr<BackendStore> store_;
};

// The utilization sums BackendStore keeps as objects are applied, shrunk by
// overwrites, cleaned, deleted and recovered must equal a full walk of the
// per-object accounting after every simulator event: every commit, GC
// round and delete lands in one.
class UtilizationSumsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(UtilizationSumsTest, MatchAFullWalkAfterEveryEvent) {
  const size_t shards = GetParam();
  TestWorld world;
  std::vector<std::unique_ptr<MemObjectStore>> stores;
  std::vector<ObjectStore*> ptrs;
  for (size_t i = 0; i < shards; i++) {
    stores.push_back(std::make_unique<MemObjectStore>(&world.sim));
    ptrs.push_back(stores.back().get());
  }
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  config.batch_bytes = 64 * kKiB;
  config.checkpoint_interval_objects = 2;
  config.gc_enabled = true;
  auto store = std::make_unique<BackendStore>(&world.host, ptrs, nullptr,
                                              config);
  int checks = 0;
  const auto check = [&](const BackendStore& b) {
    std::vector<uint64_t> live(shards, 0);
    std::vector<uint64_t> total(shards, 0);
    for (uint64_t seq = 1; seq < b.next_seq(); seq++) {
      if (const auto info = b.object_info_for(seq)) {
        live[b.ShardOf(seq)] += info->live_bytes;
        total[b.ShardOf(seq)] += info->total_bytes;
      }
    }
    uint64_t all_live = 0;
    uint64_t all_total = 0;
    for (size_t s = 0; s < shards; s++) {
      all_live += live[s];
      all_total += total[s];
      const double want =
          total[s] == 0 ? 1.0
                        : static_cast<double>(live[s]) /
                              static_cast<double>(total[s]);
      if (shards > 1) {
        ASSERT_EQ(b.ShardUtilization(s), want) << "shard " << s;
      }
    }
    ASSERT_EQ(b.live_bytes(), all_live);
    ASSERT_EQ(b.total_bytes(), all_total);
    checks++;
  };
  const auto run = [&](const BackendStore& b) {
    while (world.sim.Step()) {
      check(b);
    }
  };

  Rng rng(11);
  for (int round = 0; round < 60; round++) {
    // Overwrites of a 512 KiB working set, some 4 KiB, some 64 KiB.
    for (int i = 0; i < 8; i++) {
      const uint64_t len = rng.Uniform(2) == 0 ? 4 * kKiB : 64 * kKiB;
      const uint64_t vlba = rng.Uniform(512 * kKiB / len) * len;
      store->AddWrite(vlba, TestPattern(len, 1000 + round * 8 + i));
    }
    if (round % 7 == 0) {
      store->Seal();
    }
    run(*store);
  }
  store->Seal();
  run(*store);
  EXPECT_GT(store->stats().gc_objects_cleaned, 0u);
  EXPECT_GT(store->stats().objects_deleted, 0u);

  // Recovery replaces the accounting wholesale (checkpoint, then replay).
  std::optional<Status> s;
  auto recovered = std::make_unique<BackendStore>(&world.host, ptrs, nullptr,
                                                  config);
  recovered->Recover([&](Status st) { s = st; });
  run(*recovered);
  ASSERT_TRUE(s.has_value() && s->ok());
  check(*recovered);
  EXPECT_EQ(recovered->live_bytes(), store->live_bytes());
  EXPECT_GT(checks, 1000);
}

INSTANTIATE_TEST_SUITE_P(Shards, UtilizationSumsTest,
                         ::testing::Values(size_t{1}, size_t{4}));

TEST_F(ShardedBackendTest, RoundRobinStripePlacement) {
  for (int i = 0; i < 8; i++) {
    WriteOneObject(static_cast<uint64_t>(i) * kMiB, 700 + i);
  }
  EXPECT_EQ(store_->applied_seq(), 8u);
  // Each shard holds exactly its own stripe of the stream and nothing else.
  for (size_t shard = 0; shard < kShards; shard++) {
    const auto names = stores_[shard]->List(DataObjectPrefix("vol"));
    ASSERT_EQ(names.size(), 2u) << shard;
    for (uint64_t seq = 1; seq <= 8; seq++) {
      const bool here = stores_[shard]->Head(DataObjectName("vol", seq)).ok();
      EXPECT_EQ(here, ShardForSeq(seq, kShards) == shard)
          << "seq " << seq << " shard " << shard;
    }
  }
  // Per-shard PUT counters registered and credited.
  for (size_t shard = 0; shard < kShards; shard++) {
    EXPECT_EQ(metrics_
                  .GetCounter("backend.shard" + std::to_string(shard) +
                              ".objects_put")
                  ->value(),
              2u);
  }
  EXPECT_EQ(store_->consistency_vector(),
            (std::vector<uint64_t>{5, 6, 7, 8}));
}

TEST_F(ShardedBackendTest, CheckpointsLiveOnShardZero) {
  for (int i = 0; i < 5; i++) {
    WriteOneObject(static_cast<uint64_t>(i) * kMiB, 710 + i);
  }
  std::optional<Status> cs;
  store_->WriteCheckpoint([&](Status s) { cs = s; });
  Run();
  ASSERT_TRUE(cs->ok());
  EXPECT_EQ(stores_[0]->List(CheckpointPrefix("vol")).size(), 1u);
  for (size_t shard = 1; shard < kShards; shard++) {
    EXPECT_TRUE(stores_[shard]->List(CheckpointPrefix("vol")).empty());
  }
}

TEST_F(ShardedBackendTest, RecoverFromShardedCheckpointAndReplay) {
  for (int i = 0; i < 6; i++) {
    WriteOneObject(static_cast<uint64_t>(i) * kMiB, 720 + i);
  }
  std::optional<Status> cs;
  store_->WriteCheckpoint([&](Status s) { cs = s; });
  Run();
  ASSERT_TRUE(cs->ok());
  // Post-checkpoint tail to replay from the shard streams.
  for (int i = 6; i < 10; i++) {
    WriteOneObject(static_cast<uint64_t>(i) * kMiB, 720 + i);
  }
  const auto extents = store_->object_map().Extents();

  auto fresh = std::make_unique<BackendStore>(&world_.host, ptrs_, nullptr,
                                              config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->applied_seq(), 10u);
  EXPECT_EQ(fresh->next_seq(), 11u);
  EXPECT_EQ(fresh->object_map().Extents(), extents);
}

TEST_F(ShardedBackendTest, ShardTailLossTruncatesGlobalPrefix) {
  for (int i = 0; i < 8; i++) {
    WriteOneObject(static_cast<uint64_t>(i) * kMiB, 730 + i);
  }
  // Shard 2 lost its newest object (seq 7): the single-log prefix rule
  // (§3.5) truncates the *global* stream at the gap, and the survivors past
  // it (seq 8 on shard 3) are stranded and deleted.
  stores_[2]->Delete(DataObjectName("vol", 7), [](Status) {});
  Run();

  auto fresh = std::make_unique<BackendStore>(&world_.host, ptrs_, nullptr,
                                              config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->applied_seq(), 6u);
  EXPECT_EQ(fresh->next_seq(), 7u);
  EXPECT_EQ(stores_[3]->Head(DataObjectName("vol", 8)).status().code(),
            StatusCode::kNotFound);
}

// --- GC policy selection and generations (docs/GC.md) ---

class BackendGcPolicyTest : public BackendStoreTest {
 protected:
  // The base class's store_ would otherwise outlive metrics_ (derived
  // members are destroyed first), dangling its CallbackGuard.
  ~BackendGcPolicyTest() override { store_.reset(); }

  // Rebuilds the store with GC on and the given victim-selection policy,
  // wiring a visible metrics registry so gating can be asserted.
  void RebuildWithPolicy(GcPolicyKind kind) {
    config_ = MakeConfig();
    config_.gc_enabled = true;
    config_.checkpoint_interval_objects = 2;
    config_.gc_policy = kind;
    // The old store's CallbackGuard must unregister from the old registry
    // before that registry dies (destruction order, DESIGN.md §10).
    store_.reset();
    metrics_ = std::make_unique<MetricsRegistry>();
    store_ = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                            nullptr, config_, metrics_.get());
  }

  // Mixed-lifetime churn: every 64 KiB batch packs four 16 KiB chunks with
  // staggered lifetimes — a hot slot (rewritten within 4 rounds), a medium
  // slot (~12 rounds), a long slot (~30 rounds) and a chunk never touched
  // again within the churn. Objects therefore die piecewise: GC copies the
  // surviving chunks forward, and because every output object still mixes
  // durable and dying data, the copies themselves go partially dead and
  // are re-collected — compounding the generation tag past 1.
  void Churn(uint64_t seed) {
    for (int round = 0; round < 60; round++) {
      store_->AddWrite(static_cast<uint64_t>(round % 4) * 16 * kKiB,
                       TestPattern(16 * kKiB, seed + round));
      store_->AddWrite((8 + static_cast<uint64_t>(round % 12)) * 16 * kKiB,
                       TestPattern(16 * kKiB, seed + 100 + round));
      store_->AddWrite((24 + static_cast<uint64_t>(round % 30)) * 16 * kKiB,
                       TestPattern(16 * kKiB, seed + 200 + round));
      store_->AddWrite((64 + static_cast<uint64_t>(round)) * 16 * kKiB,
                       TestPattern(16 * kKiB, seed + 300 + round));
      Run();
    }
    store_->Seal();
    Run();
  }

  // Headers of every data object currently in the backend.
  std::vector<DataObjectHeader> AllDataHeaders() {
    std::vector<DataObjectHeader> headers;
    for (const auto& name : world_.store.List(DataObjectPrefix("vol"))) {
      std::optional<Result<Buffer>> r;
      world_.store.Get(name, [&](Result<Buffer> rr) { r = std::move(rr); });
      Run();
      DataObjectHeader h;
      EXPECT_TRUE(DecodeDataObjectHeader(r->value(), &h).ok()) << name;
      headers.push_back(h);
    }
    return headers;
  }

  std::unique_ptr<MetricsRegistry> metrics_;
};

TEST_F(BackendGcPolicyTest, EveryPolicyReclaimsAndRecoversConsistently) {
  for (GcPolicyKind kind :
       {GcPolicyKind::kGreedy, GcPolicyKind::kCostBenefit,
        GcPolicyKind::kAgeBucketed}) {
    RebuildWithPolicy(kind);
    Churn(100);
    EXPECT_GT(store_->stats().gc_objects_cleaned, 0u)
        << GcPolicyKindName(kind);
    EXPECT_GE(store_->Utilization(), config_.gc_low_watermark - 0.05)
        << GcPolicyKindName(kind);

    auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                                nullptr, config_);
    std::optional<Status> s;
    fresh->Recover([&](Status st) { s = st; });
    Run();
    ASSERT_TRUE(s->ok()) << GcPolicyKindName(kind);
    EXPECT_EQ(fresh->object_map().Extents(), store_->object_map().Extents())
        << GcPolicyKindName(kind);

    // Reset the backend between policies (objects are namespaced by seq).
    for (const auto& name : world_.store.List("")) {
      world_.store.Delete(name, [](Status) {});
    }
    Run();
  }
}

TEST_F(BackendGcPolicyTest, ExtendedPolicyTagsGcGenerations) {
  RebuildWithPolicy(GcPolicyKind::kCostBenefit);
  Churn(300);
  ASSERT_GT(store_->stats().gc_objects_cleaned, 0u);
  // GC output carries 1 + max victim generation, persisted in its header.
  uint32_t max_gen = 0;
  for (const auto& h : AllDataHeaders()) {
    max_gen = std::max(max_gen, h.generation);
  }
  EXPECT_GE(max_gen, 1u);
  // Extended metrics are registered and live.
  const std::string json = metrics_->ToJson();
  EXPECT_NE(json.find("backend.gc_policy"), std::string::npos);
  EXPECT_NE(json.find("backend.gc.waf"), std::string::npos);
  EXPECT_GT(metrics_->GetGauge("backend.gc.cost_benefit_score")->value(),
            0.0);
}

TEST_F(BackendGcPolicyTest, GenerationsSurviveRecoveryReplay) {
  RebuildWithPolicy(GcPolicyKind::kCostBenefit);
  Churn(400);
  ASSERT_GT(store_->stats().gc_objects_cleaned, 0u);

  // A fresh store recovers the same map (decoding generations during the
  // post-checkpoint replay) and keeps collecting with generations intact.
  auto fresh = std::make_unique<BackendStore>(&world_.host, &world_.store,
                                              nullptr, config_);
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(fresh->object_map().Extents(), store_->object_map().Extents());

  store_ = std::move(fresh);
  Churn(500);
  EXPECT_GT(store_->stats().gc_objects_cleaned, 0u);
  uint32_t max_gen = 0;
  for (const auto& h : AllDataHeaders()) {
    max_gen = std::max(max_gen, h.generation);
  }
  EXPECT_GE(max_gen, 2u);  // re-cleaned GC output climbed past gen 1
}

TEST(ShardedBackendFaultTest, OneShardOfflineParksOnlyItsStripe) {
  TestWorld world;
  Simulator& sim = world.sim;
  MemObjectStore mem0(&sim), mem1(&sim);
  FaultyObjectStore faulty1(&mem1, &sim, FaultInjectionConfig{});
  LsvdConfig config = FaultTestConfig();
  BackendStore store(&world.host, {&mem0, &faulty1}, nullptr, config);

  faulty1.set_offline(true);
  uint64_t last_seq = 0;
  for (int i = 0; i < 4; i++) {
    last_seq = store.AddWrite(static_cast<uint64_t>(i) * kMiB,
                              TestPattern(64 * kKiB, 740 + i));
  }
  sim.RunUntil(sim.now() + kSecond);

  // Shard 1 (even seqs) is parked; shard 0 keeps absorbing its stripe, but
  // the applied prefix stops before the first parked object.
  EXPECT_TRUE(store.degraded());
  EXPECT_FALSE(store.shard_degraded(0));
  EXPECT_TRUE(store.shard_degraded(1));
  EXPECT_EQ(store.applied_seq(), 1u);
  EXPECT_TRUE(mem0.Head(DataObjectName("vol", 3)).ok());
  EXPECT_EQ(mem1.Head(DataObjectName("vol", 2)).status().code(),
            StatusCode::kNotFound);

  // The shard comes back: its probe clears the flag and the stream drains.
  faulty1.set_offline(false);
  sim.Run();
  EXPECT_FALSE(store.degraded());
  EXPECT_EQ(store.applied_seq(), last_seq);
  EXPECT_EQ(store.consistency_vector(),
            (std::vector<uint64_t>{3, 4}));
}

TEST(ShardedBackendFaultTest, ShardRetriesSumToAggregate) {
  // Stranded objects on both shards whose DELETEs fail every attempt: each
  // shard's row counts its own DELETE retries, and the rows add up to the
  // aggregate.
  TestWorld world;
  Simulator& sim = world.sim;
  MemObjectStore mem0(&sim), mem1(&sim);
  FaultInjectionConfig fc;
  fc.delete_error_p = 1.0;
  FaultyObjectStore faulty0(&mem0, &sim, fc), faulty1(&mem1, &sim, fc);
  MetricsRegistry metrics;
  BackendStore store(&world.host, {&faulty0, &faulty1}, nullptr,
                     RetryTableConfig(), &metrics);
  for (uint64_t seq : {2, 3, 5}) {  // seq 1 is missing: all are stranded
    (ShardForSeq(seq, 2) == 0 ? mem0 : mem1)
        .Put(DataObjectName("vol", seq), Buffer::Zeros(4096),
             [](Status s) { ASSERT_TRUE(s.ok()); });
  }
  std::optional<Status> recovered;
  store.Recover([&](Status s) { recovered = s; });
  sim.Run();
  ASSERT_TRUE(recovered.has_value() && recovered->ok());

  const auto snap = metrics.Snapshot();
  const uint64_t shard0 = snap.CounterValue("backend.shard0.retries");
  const uint64_t shard1 = snap.CounterValue("backend.shard1.retries");
  EXPECT_EQ(shard0, 2u * (kTableAttempts - 1));  // seqs 3 and 5
  EXPECT_EQ(shard1, 1u * (kTableAttempts - 1));  // seq 2
  EXPECT_EQ(shard0 + shard1, store.stats().retries);
}

}  // namespace
}  // namespace lsvd
