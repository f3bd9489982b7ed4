// Unit tests for the object stores: semantics (immutability, range reads,
// listing), timing, backend amplification patterns, and crash behaviour.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/objstore/mem_object_store.h"
#include "src/objstore/sim_object_store.h"
#include "src/sim/cross_domain_channel.h"
#include "src/sim/sim_domain.h"
#include "src/sim/simulator.h"

namespace lsvd {
namespace {

Status PutSync(Simulator* sim, ObjectStore* store, const std::string& name,
               Buffer data) {
  std::optional<Status> result;
  store->Put(name, std::move(data), [&](Status s) { result = s; });
  sim->Run();
  return result.value_or(Status::Unavailable("no ack"));
}

Result<Buffer> GetSync(Simulator* sim, ObjectStore* store,
                       const std::string& name) {
  std::optional<Result<Buffer>> result;
  store->Get(name, [&](Result<Buffer> r) { result = std::move(r); });
  sim->Run();
  return std::move(*result);
}

class ObjStoreSemantics : public ::testing::TestWithParam<bool> {
 protected:
  ObjStoreSemantics() {
    if (GetParam()) {
      cluster_ = std::make_unique<BackendCluster>(&sim_,
                                                  ClusterConfig::SsdPool());
      link_ = std::make_unique<NetLink>(&sim_, NetParams{});
      store_ = std::make_unique<SimObjectStore>(&sim_, cluster_.get(),
                                                link_.get(),
                                                SimObjectStoreConfig{});
    } else {
      store_ = std::make_unique<MemObjectStore>(&sim_);
    }
  }

  Simulator sim_;
  std::unique_ptr<BackendCluster> cluster_;
  std::unique_ptr<NetLink> link_;
  std::unique_ptr<ObjectStore> store_;
};

TEST_P(ObjStoreSemantics, PutGetRoundTrips) {
  Buffer data = Buffer::FromString("backend object body");
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "vol.00000001", data).ok());
  auto r = GetSync(&sim_, store_.get(), "vol.00000001");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_P(ObjStoreSemantics, GetMissingIsNotFound) {
  auto r = GetSync(&sim_, store_.get(), "nope");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_P(ObjStoreSemantics, ObjectsAreImmutable) {
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "a", Buffer::Zeros(4096)).ok());
  EXPECT_EQ(PutSync(&sim_, store_.get(), "a", Buffer::Zeros(4096)).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(ObjStoreSemantics, RangeReads) {
  Buffer data;
  std::vector<uint8_t> bytes(100);
  for (size_t i = 0; i < bytes.size(); i++) {
    bytes[i] = static_cast<uint8_t>(i);
  }
  data.AppendBytes(bytes);
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "obj", data).ok());

  std::optional<Result<Buffer>> result;
  store_->GetRange("obj", 10, 20,
                   [&](Result<Buffer> r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result->ok());
  auto got = result->value().ToBytes();
  ASSERT_EQ(got.size(), 20u);
  EXPECT_EQ(got[0], 10);
  EXPECT_EQ(got[19], 29);

  // Out-of-range is rejected.
  result.reset();
  store_->GetRange("obj", 90, 20,
                   [&](Result<Buffer> r) { result = std::move(r); });
  sim_.Run();
  EXPECT_EQ(result->status().code(), StatusCode::kOutOfRange);
}

TEST_P(ObjStoreSemantics, ListByPrefixSorted) {
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "v.003", Buffer::Zeros(1)).ok());
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "v.001", Buffer::Zeros(1)).ok());
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "w.002", Buffer::Zeros(1)).ok());
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "v.002", Buffer::Zeros(1)).ok());
  const auto names = store_->List("v.");
  EXPECT_EQ(names, (std::vector<std::string>{"v.001", "v.002", "v.003"}));
}

TEST_P(ObjStoreSemantics, DeleteRemoves) {
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "gone", Buffer::Zeros(1)).ok());
  std::optional<Status> del;
  store_->Delete("gone", [&](Status s) { del = s; });
  sim_.Run();
  ASSERT_TRUE(del->ok());
  EXPECT_EQ(GetSync(&sim_, store_.get(), "gone").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store_->Head("gone").status().code(), StatusCode::kNotFound);
}

TEST_P(ObjStoreSemantics, HeadReportsSize) {
  ASSERT_TRUE(PutSync(&sim_, store_.get(), "sized", Buffer::Zeros(12345)).ok());
  auto h = store_->Head("sized");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, 12345u);
}

INSTANTIATE_TEST_SUITE_P(MemAndSim, ObjStoreSemantics, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "SimStore" : "MemStore";
                         });

TEST(MemObjectStore, DropNextPutsStrandsObjects) {
  Simulator sim;
  MemObjectStore store(&sim);
  store.DropNextPuts(1);
  bool acked = false;
  store.Put("lost", Buffer::Zeros(1), [&](Status) { acked = true; });
  sim.Run();
  EXPECT_FALSE(acked);
  EXPECT_EQ(store.object_count(), 0u);
  // Subsequent puts work again.
  ASSERT_TRUE(PutSync(&sim, &store, "kept", Buffer::Zeros(1)).ok());
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(SimObjectStore, ErasureCodedPutWritesSixChunksPlusMetadata) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStoreConfig config;
  SimObjectStore store(&sim, &cluster, &link, config);

  ASSERT_TRUE(PutSync(&sim, &store, "obj", Buffer::Zeros(4 * kMiB)).ok());
  const DiskStats total = cluster.TotalStats();
  // 6 chunk writes of ~1 MiB plus 16 metadata writes of 4 KiB.
  EXPECT_EQ(total.write_ops, 6u + config.metadata_writes_per_stripe);
  EXPECT_NEAR(static_cast<double>(total.write_bytes),
              6.0 * kMiB + config.metadata_writes_per_stripe * 4096.0,
              64.0 * kKiB);
}

TEST(SimObjectStore, ReplicatedPutWritesThreeCopies) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStoreConfig config;
  config.placement = SimObjectStoreConfig::Placement::kReplicated3;
  SimObjectStore store(&sim, &cluster, &link, config);

  ASSERT_TRUE(PutSync(&sim, &store, "obj", Buffer::Zeros(4 * kMiB)).ok());
  const DiskStats total = cluster.TotalStats();
  EXPECT_EQ(total.write_ops, 3u + config.metadata_writes_per_stripe);
  EXPECT_NEAR(static_cast<double>(total.write_bytes),
              3.0 * 4 * kMiB + config.metadata_writes_per_stripe * 4096.0,
              64.0 * kKiB);
}

TEST(SimObjectStore, MultiStripePut) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStoreConfig config;
  SimObjectStore store(&sim, &cluster, &link, config);

  // 9 MiB = 3 stripes (4 + 4 + 1 MiB).
  ASSERT_TRUE(PutSync(&sim, &store, "big", Buffer::Zeros(9 * kMiB)).ok());
  const DiskStats total = cluster.TotalStats();
  EXPECT_EQ(total.write_ops, 3 * (6u + config.metadata_writes_per_stripe));
}

TEST(SimObjectStore, ClientCrashAbandonsInFlightPut) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStore store(&sim, &cluster, &link, SimObjectStoreConfig{});

  bool acked = false;
  store.Put("inflight", Buffer::Zeros(4 * kMiB), [&](Status) { acked = true; });
  // Crash immediately: the body never finishes crossing the link.
  store.ClientCrash();
  sim.Run();
  EXPECT_FALSE(acked);
  EXPECT_EQ(store.List("").size(), 0u);
}

TEST(SimObjectStore, ClientCrashAfterBackendCommitKeepsObject) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStore store(&sim, &cluster, &link, SimObjectStoreConfig{});

  bool acked = false;
  store.Put("committed", Buffer::Zeros(4 * kMiB),
            [&](Status) { acked = true; });
  // Run until the object is visible (backend writes finished), then crash
  // before the ack is delivered.
  while (store.List("").empty() && sim.Step()) {
  }
  ASSERT_EQ(store.List("").size(), 1u);
  EXPECT_FALSE(acked);
  store.ClientCrash();
  sim.Run();
  EXPECT_FALSE(acked);  // ack was dropped
  EXPECT_EQ(store.List("").size(), 1u);  // but the object survives
}

// A SimObjectStore whose backend half runs on the client's simulator, or,
// with `split`, on a domain of its own (the parallel engine's split,
// DESIGN.md §14), where a GET's answer crosses back over a channel.
struct GetWorld {
  explicit GetWorld(bool split) : split(split) {
    SimDomain* client = nullptr;
    SimDomain* backend = nullptr;
    if (split) {
      client = group.AdoptDomain("client", &sim);
      backend = group.AddDomain("backend");
    }
    cluster = std::make_unique<BackendCluster>(
        split ? backend->sim() : &sim, ClusterConfig::SsdPool());
    store = std::make_unique<SimObjectStore>(&sim, cluster.get(), &link,
                                             SimObjectStoreConfig{});
    if (split) {
      store->BindBackendDomain(
          backend, group.Connect(client, backend, link.half_rtt()),
          group.Connect(backend, client, link.half_rtt()));
    }
  }

  void Run() {
    if (split) {
      group.Run(1);
    } else {
      sim.Run();
    }
  }

  bool split;
  Simulator sim;
  SimDomainGroup group;
  NetLink link{&sim, NetParams{}};
  std::unique_ptr<BackendCluster> cluster;
  std::unique_ptr<SimObjectStore> store;
};

class SimObjectStoreGetTest : public ::testing::TestWithParam<bool> {};

// A client crash drops the answers of the GETs in flight and frees their
// slots; GETs sent after it are answered as usual.
TEST_P(SimObjectStoreGetTest, ClientCrashDropsInFlightGetsAndFreesSlots) {
  GetWorld w(GetParam());
  std::vector<uint8_t> bytes(64 * kKiB);
  for (size_t i = 0; i < bytes.size(); i++) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const Buffer data = Buffer::FromBytes(bytes);
  std::optional<Status> put;
  w.store->Put("obj", data, [&](Status s) { put = s; });
  w.Run();
  ASSERT_TRUE(put.has_value() && put->ok());

  // GETs are sent from a client event, as the disk sends them: a message a
  // channel carries leaves at the end of its sender's window.
  int answered = 0;
  size_t sent = 0;
  w.sim.After(0, [&] {
    for (uint64_t i = 0; i < 3; i++) {
      w.store->GetRange("obj", i * 4 * kKiB, 4 * kKiB,
                        [&answered](Result<Buffer>) { answered++; });
    }
    sent = w.store->gets_in_flight();
    w.store->ClientCrash();
  });
  w.Run();
  EXPECT_EQ(sent, 3u);
  EXPECT_EQ(answered, 0);
  EXPECT_EQ(w.store->gets_in_flight(), 0u);

  std::optional<Result<Buffer>> r;
  w.sim.After(0, [&] {
    w.store->GetRange("obj", 8 * kKiB, 4 * kKiB,
                      [&r](Result<Buffer> rr) { r = std::move(rr); });
  });
  w.Run();
  ASSERT_TRUE(r.has_value() && r->ok());
  EXPECT_EQ(**r, data.Slice(8 * kKiB, 4 * kKiB));
  EXPECT_EQ(w.store->gets_in_flight(), 0u);
  EXPECT_EQ(w.store->stats().gets, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, SimObjectStoreGetTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? std::string("Domain") : std::string("Sequential");
    });

TEST(SimObjectStore, StatsTrackTraffic) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStore store(&sim, &cluster, &link, SimObjectStoreConfig{});

  ASSERT_TRUE(PutSync(&sim, &store, "a", Buffer::Zeros(kMiB)).ok());
  auto r = GetSync(&sim, &store, "a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().put_bytes, kMiB);
  EXPECT_EQ(store.stats().gets, 1u);
  EXPECT_EQ(store.stats().get_bytes, kMiB);
}

}  // namespace
}  // namespace lsvd
