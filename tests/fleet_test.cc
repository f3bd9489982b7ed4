// Fleet control plane (src/fleet, docs/FLEET.md): placement policy unit
// tests, volume-directory epoch fencing, and FleetController functional
// coverage — create/clone placement, live migration with intact data and
// measured blackout, host failover via the lease detector, and capacity
// rejection.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/fleet/placement.h"
#include "src/objstore/mem_object_store.h"
#include "src/objstore/volume_directory.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

// --- placement policy ---

HostLoad MakeLoad(int host, uint64_t free_bytes, int volumes,
                  uint64_t iops = 0, bool alive = true) {
  HostLoad l;
  l.host = host;
  l.alive = alive;
  l.ssd_free_bytes = free_bytes;
  l.volumes = volumes;
  l.reserved_iops = iops;
  return l;
}

TEST(PlacementTest, FirstFitPicksLowestFittingId) {
  std::vector<HostLoad> loads = {
      MakeLoad(0, kMiB, 0),       // too small
      MakeLoad(1, 8 * kMiB, 5),   // fits: wins despite the load
      MakeLoad(2, 64 * kMiB, 0),  // fits, but later
  };
  PlacementRequest req;
  req.ssd_bytes = 4 * kMiB;
  EXPECT_EQ(ChoosePlacement(PlacementPolicyKind::kFirstFit, loads, req), 1);
}

TEST(PlacementTest, LoadSpreadPrefersFewestVolumesThenFreeBytes) {
  std::vector<HostLoad> loads = {
      MakeLoad(0, 8 * kMiB, 3),
      MakeLoad(1, 8 * kMiB, 1),
      MakeLoad(2, 16 * kMiB, 1),  // ties on volumes, more free bytes
  };
  PlacementRequest req;
  req.ssd_bytes = 4 * kMiB;
  EXPECT_EQ(ChoosePlacement(PlacementPolicyKind::kLoadSpread, loads, req), 2);
}

TEST(PlacementTest, SkipsDeadAndExcludedHosts) {
  std::vector<HostLoad> loads = {
      MakeLoad(0, 64 * kMiB, 0, 0, /*alive=*/false),
      MakeLoad(1, 64 * kMiB, 0),
      MakeLoad(2, 64 * kMiB, 9),
  };
  PlacementRequest req;
  req.ssd_bytes = 4 * kMiB;
  req.exclude_host = 1;
  EXPECT_EQ(ChoosePlacement(PlacementPolicyKind::kLoadSpread, loads, req), 2);
  loads[2].alive = false;
  EXPECT_EQ(ChoosePlacement(PlacementPolicyKind::kLoadSpread, loads, req),
            -1);
}

TEST(PlacementTest, IopsBudgetRejectsOverCommit) {
  std::vector<HostLoad> loads = {MakeLoad(0, 64 * kMiB, 0, /*iops=*/900)};
  PlacementRequest req;
  req.ssd_bytes = 4 * kMiB;
  req.iops = 200;
  req.iops_budget = 1000;  // 900 reserved + 200 would overshoot
  EXPECT_EQ(ChoosePlacement(PlacementPolicyKind::kFirstFit, loads, req), -1);
  req.iops = 100;
  EXPECT_EQ(ChoosePlacement(PlacementPolicyKind::kFirstFit, loads, req), 0);
  req.iops_budget = 0;  // 0 = unlimited
  req.iops = 5000;
  EXPECT_EQ(ChoosePlacement(PlacementPolicyKind::kFirstFit, loads, req), 0);
}

// --- volume directory + fencing ---

TEST(VolumeDirectoryTest, RegisterFlipLookup) {
  VolumeDirectory dir;
  EXPECT_EQ(dir.Register("vol", 0), 1u);
  EXPECT_EQ(dir.CurrentEpoch("vol"), 1u);
  EXPECT_EQ(dir.Flip("vol", 2), 2u);
  auto entry = dir.Lookup("vol");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->host, 2);
  EXPECT_EQ(entry->epoch, 2u);
  EXPECT_EQ(dir.CurrentEpoch("unknown"), 0u);
  EXPECT_FALSE(dir.Lookup("unknown").ok());
}

TEST(VolumeDirectoryTest, EpochFlipFencesOldWritersButNotReaders) {
  Simulator sim;
  MemObjectStore mem(&sim);
  VolumeDirectory dir;
  dir.Register("vol", 0);
  FencedObjectStore old_view(&sim, &mem, &dir, "vol", /*epoch=*/1);

  std::optional<Status> put;
  old_view.Put("vol.d.1", TestPattern(512, 1), [&](Status s) { put = s; });
  sim.Run();
  ASSERT_TRUE(put.has_value() && put->ok());

  dir.Flip("vol", 1);  // new owner; epoch 1 view is now stale
  EXPECT_TRUE(old_view.fenced());
  put.reset();
  old_view.Put("vol.d.2", TestPattern(512, 2), [&](Status s) { put = s; });
  std::optional<Status> del;
  old_view.Delete("vol.d.1", [&](Status s) { del = s; });
  sim.Run();
  ASSERT_TRUE(put.has_value() && del.has_value());
  EXPECT_EQ(put->code(), StatusCode::kFenced);
  EXPECT_EQ(del->code(), StatusCode::kFenced);

  // Reads pass through: objects are immutable, stale readers are harmless.
  std::optional<Result<Buffer>> got;
  old_view.Get("vol.d.1", [&](Result<Buffer> r) { got = std::move(r); });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  EXPECT_EQ(mem.List("vol.").size(), 1u);  // the fenced PUT never landed
}

// --- fleet controller ---

FleetConfig SmallFleetConfig(int hosts) {
  FleetConfig fc;
  fc.hosts = hosts;
  fc.shards = 1;
  fc.cluster = ClusterConfig::SsdPool();
  fc.cluster.num_disks = 4;
  fc.host.ssd_capacity = 512 * kMiB;  // 8 small volumes per host
  fc.host.ssd = SsdParams::Instant();
  return fc;
}

LsvdConfig SmallVolumeConfig(const std::string& name) {
  LsvdConfig config = TestWorld::SmallVolumeConfig();
  config.volume_name = name;
  return config;
}

Status CreateSync(Simulator* sim, FleetController* fleet, int* id,
                  const std::string& name, bool track = false) {
  std::optional<Status> result;
  *id = fleet->CreateVolume(SmallVolumeConfig(name),
                            [&](Status s) { result = s; }, track);
  while (!result.has_value() && sim->Step()) {
  }
  return result.value_or(Status::Unavailable("create never completed"));
}

Result<uint64_t> SnapshotSync(Simulator* sim, LsvdDisk* disk) {
  std::optional<Result<uint64_t>> result;
  disk->Snapshot([&](Result<uint64_t> r) { result = std::move(r); });
  while (!result.has_value() && sim->Step()) {
  }
  if (!result.has_value()) {
    return Status::Unavailable("snapshot never completed");
  }
  return *result;
}

TEST(FleetTest, CreateSpreadsVolumesAndServesIo) {
  Simulator sim;
  FleetController fleet(&sim, SmallFleetConfig(3));
  std::vector<int> ids;
  for (int i = 0; i < 6; i++) {
    int id = -1;
    ASSERT_TRUE(
        CreateSync(&sim, &fleet, &id, "vol" + std::to_string(i)).ok());
    ASSERT_GE(id, 0);
    EXPECT_EQ(fleet.health(id), FleetController::VolumeHealth::kActive);
    ids.push_back(id);
  }
  // Load-spread: 6 equal volumes over 3 hosts must land 2 per host.
  for (int h = 0; h < 3; h++) {
    EXPECT_EQ(fleet.volumes_on(h), 2) << "host " << h;
  }
  // Each volume serves reads of its own writes.
  const Buffer data = TestPattern(64 * kKiB, 7);
  ASSERT_TRUE(WriteSync(&sim, fleet.disk(ids[4]), kMiB, data).ok());
  auto back = ReadSync(&sim, fleet.disk(ids[4]), kMiB, 64 * kKiB);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ToBytes() == data.ToBytes());
}

TEST(FleetTest, PlacementRejectionFailsCreateGracefully) {
  Simulator sim;
  FleetConfig fc = SmallFleetConfig(1);
  fc.host.ssd_capacity = 96 * kMiB;  // one 64 MiB-footprint volume only
  FleetController fleet(&sim, fc);
  int id = -1;
  ASSERT_TRUE(CreateSync(&sim, &fleet, &id, "fits").ok());
  int id2 = -1;
  const Status s = CreateSync(&sim, &fleet, &id2, "does-not-fit");
  EXPECT_EQ(id2, -1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fleet.metrics().GetCounter("fleet.placement_rejected")->value(),
            1u);
  EXPECT_EQ(fleet.metrics().GetCounter("fleet.creates")->value(), 1u);
}

TEST(FleetTest, CloneReadsBaseImageAndDivergesPrivately) {
  Simulator sim;
  FleetController fleet(&sim, SmallFleetConfig(2));
  int golden = -1;
  ASSERT_TRUE(CreateSync(&sim, &fleet, &golden, "golden").ok());
  const Buffer base_data = TestPattern(128 * kKiB, 11);
  ASSERT_TRUE(WriteSync(&sim, fleet.disk(golden), 0, base_data).ok());
  auto seq = SnapshotSync(&sim, fleet.disk(golden));
  ASSERT_TRUE(seq.ok());

  std::optional<Status> cloned;
  const int clone =
      fleet.CloneVolume(golden, "clone0", *seq, [&](Status s) { cloned = s; });
  while (!cloned.has_value() && sim.Step()) {
  }
  ASSERT_TRUE(cloned.has_value() && cloned->ok());
  ASSERT_GE(clone, 0);
  EXPECT_EQ(fleet.metrics().GetCounter("fleet.clones")->value(), 1u);

  // The clone sees the pinned base image...
  auto got = ReadSync(&sim, fleet.disk(clone), 0, 128 * kKiB);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->ToBytes() == base_data.ToBytes());
  // ...and its writes never leak back into the base.
  const Buffer priv = TestPattern(4 * kKiB, 12);
  ASSERT_TRUE(WriteSync(&sim, fleet.disk(clone), 0, priv).ok());
  auto base_back = ReadSync(&sim, fleet.disk(golden), 0, 4 * kKiB);
  ASSERT_TRUE(base_back.ok());
  const std::vector<uint8_t> base_bytes = base_data.ToBytes();
  EXPECT_TRUE(base_back->ToBytes() ==
              std::vector<uint8_t>(base_bytes.begin(),
                                   base_bytes.begin() + 4 * kKiB));
}

TEST(FleetTest, MigrationMovesVolumeIntactWithMeasuredBlackout) {
  Simulator sim;
  FleetController fleet(&sim, SmallFleetConfig(2));
  int id = -1;
  ASSERT_TRUE(CreateSync(&sim, &fleet, &id, "mover").ok());
  const int src = fleet.host_of(id);
  const Buffer data = TestPattern(256 * kKiB, 21);
  ASSERT_TRUE(WriteSync(&sim, fleet.disk(id), 8 * kMiB, data).ok());
  const uint64_t src_allocated_before =
      fleet.host(src)->ssd_regions()->allocated_bytes();

  std::optional<Status> done;
  MigrationStats stats;
  ASSERT_TRUE(fleet
                  .MigrateVolume(id, /*dst_host=*/-1,
                                 [&](Status s, const MigrationStats& ms) {
                                   done = s;
                                   stats = ms;
                                 })
                  .ok());
  while (!done.has_value() && sim.Step()) {
  }
  ASSERT_TRUE(done.has_value() && done->ok()) << done->message();

  EXPECT_NE(fleet.host_of(id), src);
  EXPECT_EQ(stats.src_host, src);
  EXPECT_EQ(stats.dst_host, fleet.host_of(id));
  EXPECT_GT(stats.drain, 0);
  EXPECT_GT(stats.blackout, 0);
  EXPECT_EQ(stats.total, stats.drain + stats.blackout);
  EXPECT_GT(stats.handoff_bytes, 0u);
  // Epoch flipped: old-attachment writers would now be fenced.
  EXPECT_EQ(fleet.volume_epoch(id), 2u);
  EXPECT_EQ(fleet.directory().CurrentEpoch("mover"), 2u);
  // The source host got its SSD cache regions back.
  EXPECT_LT(fleet.host(src)->ssd_regions()->allocated_bytes(),
            src_allocated_before);
  EXPECT_EQ(fleet.volumes_on(src), 0);
  // Data survives the move bit-for-bit.
  auto back = ReadSync(&sim, fleet.disk(id), 8 * kMiB, 256 * kKiB);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ToBytes() == data.ToBytes());
  EXPECT_EQ(fleet.metrics().GetCounter("fleet.migrations")->value(), 1u);
}

TEST(FleetTest, MigrationRejectsBadArguments) {
  Simulator sim;
  FleetController fleet(&sim, SmallFleetConfig(2));
  int id = -1;
  ASSERT_TRUE(CreateSync(&sim, &fleet, &id, "vol").ok());
  EXPECT_EQ(fleet.MigrateVolume(99).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.MigrateVolume(id, fleet.host_of(id)).code(),
            StatusCode::kInvalidArgument);
  // Single survivor-less fleet: the auto-picked destination cannot exist.
  Simulator sim1;
  FleetController one(&sim1, SmallFleetConfig(1));
  int lone = -1;
  ASSERT_TRUE(CreateSync(&sim1, &one, &lone, "lone").ok());
  EXPECT_EQ(one.MigrateVolume(lone).code(), StatusCode::kResourceExhausted);
}

TEST(FleetTest, LeaseDetectorFailsOverKilledHostsVolumes) {
  Simulator sim;
  FleetController fleet(&sim, SmallFleetConfig(3));
  std::vector<int> ids;
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < 3; i++) {
    int id = -1;
    ASSERT_TRUE(
        CreateSync(&sim, &fleet, &id, "vol" + std::to_string(i)).ok());
    const Buffer data = TestPattern(64 * kKiB, 100 + static_cast<uint64_t>(i));
    payloads.push_back(data.ToBytes());
    ASSERT_TRUE(WriteSync(&sim, fleet.disk(id), 0, data).ok());
    // Recover-attach is OpenCacheLost: only drained data must survive.
    ASSERT_TRUE(DrainSync(&sim, fleet.disk(id)).ok());
    ids.push_back(id);
  }
  const int victim_host = fleet.host_of(ids[0]);

  const Nanos t0 = sim.now();
  fleet.RunControlPlane(t0 + FromSeconds(2.0));
  sim.At(t0 + 300 * kMillisecond, [&] { fleet.KillHost(victim_host); });
  sim.Run();

  EXPECT_FALSE(fleet.host_process_alive(victim_host));
  EXPECT_TRUE(fleet.host_declared_dead(victim_host));
  EXPECT_GE(fleet.metrics().GetCounter("fleet.leases_expired")->value(), 1u);
  EXPECT_EQ(fleet.metrics().GetCounter("fleet.failovers")->value(), 1u);
  for (size_t i = 0; i < ids.size(); i++) {
    ASSERT_EQ(fleet.health(ids[static_cast<size_t>(i)]),
              FleetController::VolumeHealth::kActive);
    EXPECT_NE(fleet.host_of(ids[i]), victim_host);
    auto back = ReadSync(&sim, fleet.disk(ids[i]), 0, 64 * kKiB);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->ToBytes() == payloads[i]) << "volume " << ids[i];
  }
  // Detection = lease_duration + check-grid rounding: on the order of the
  // 250 ms lease (>=100 ms even after histogram bucket quantization) and
  // well under a second.
  const auto snap = fleet.metrics().Snapshot();
  const double detect_us = snap.Percentile("fleet.failover.detect_us", 0.5);
  EXPECT_GE(detect_us, 100e3);
  EXPECT_LT(detect_us, 1e6);
}

TEST(FleetTest, HeartbeatsKeepHealthyHostsAlive) {
  Simulator sim;
  FleetController fleet(&sim, SmallFleetConfig(2));
  int id = -1;
  ASSERT_TRUE(CreateSync(&sim, &fleet, &id, "vol").ok());
  fleet.RunControlPlane(sim.now() + FromSeconds(1.0));
  sim.Run();
  EXPECT_EQ(fleet.metrics().GetCounter("fleet.leases_expired")->value(), 0u);
  EXPECT_GT(fleet.metrics().GetCounter("fleet.heartbeats")->value(), 0u);
  for (int h = 0; h < 2; h++) {
    EXPECT_FALSE(fleet.host_declared_dead(h));
  }
}

}  // namespace
}  // namespace lsvd
