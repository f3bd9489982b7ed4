// Allocation guards, counted with a replaced global operator new:
//  - the zero-payload write path: an all-zero Buffer is its size alone, so
//    making, copying, slicing and appending one allocates nothing, and
//    encoding a journal record of a zero payload allocates only the encoded
//    header, its shared_ptr control block and one chunk vector;
//  - completions below the virtual disk: a backend-cluster or SSD callback
//    of up to 64 bytes of capture is held inline all the way to the
//    simulator, an RBD write keeps one shared state, a bcache writeback
//    round one state for all its pieces, and a retried GET one request;
//  - the read path: a 4 KiB LsvdDisk read keeps one slab-held state from
//    its call to its last fragment, so a cache hit allocates nothing and a
//    backend miss over SimObjectStore only what the retry driver and the
//    object store's std::function callbacks cost.
//
//  - the write cache's live records: the extents of all live records share
//    one deque, so tearing down a cache frees no block per record.
//
// This binary replaces the global operator new (plain and over-aligned:
// extent-map leaves and spilled SmallVectors use the latter) with a
// counting one, and counts the deletes too, so the counts are exact and
// deterministic.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/baseline/bcache_device.h"
#include "src/baseline/rbd_disk.h"
#include "src/blockdev/sim_ssd.h"
#include "src/lsvd/client_host.h"
#include "src/lsvd/journal.h"
#include "src/lsvd/lsvd_disk.h"
#include "src/lsvd/read_cache.h"
#include "src/lsvd/object_format.h"
#include "src/lsvd/write_cache.h"
#include "src/objstore/mem_object_store.h"
#include "src/objstore/retry.h"
#include "src/objstore/sim_object_store.h"
#include "src/sim/cluster.h"
#include "src/sim/net_link.h"
#include "src/sim/simulator.h"
#include "src/util/buffer.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};

void CountedFree(void* p) {
  if (p != nullptr) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace lsvd {
namespace {

// Heap allocations made while running `fn`.
template <typename Fn>
uint64_t AllocsIn(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// Heap blocks freed while running `fn`.
template <typename Fn>
uint64_t FreesIn(Fn&& fn) {
  const uint64_t before = g_frees.load(std::memory_order_relaxed);
  fn();
  return g_frees.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuard, AllZeroBuffersAllocateNothing) {
  uint64_t sink = 0;
  const uint64_t allocs = AllocsIn([&sink] {
    Buffer zeros = Buffer::Zeros(64 * kKiB);
    Buffer copy = zeros;
    Buffer slice = copy.Slice(4 * kKiB, 8 * kKiB);
    Buffer appended = Buffer::Zeros(4 * kKiB);
    appended.Append(slice);
    appended.Append(zeros);
    appended.AppendZeros(kBlockSize);
    uint8_t out[64];
    appended.CopyTo(100, out);
    appended.ForEachChunk(
        [&sink](const auto&, uint64_t, uint64_t n) { sink += n; });
    sink += appended.Crc() + (appended == zeros ? 1 : 0) +
            (appended.IsAllZeros() ? 1 : 0) + out[0];
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_NE(sink, 0u);
}

TEST(AllocGuard, JournalRecordOfZeroPayloadAllocatesOnlyItsHeader) {
  for (const size_t extents : {1, 32, 250}) {
    JournalRecord rec;
    rec.seq = 5;
    for (size_t i = 0; i < extents; i++) {
      rec.extents.push_back({2 * i * kBlockSize, kBlockSize});
    }
    rec.data = Buffer::Zeros(extents * kBlockSize);
    uint64_t size = 0;
    // The encoded header's vector, its shared_ptr control block and the
    // record's one-chunk vector.
    EXPECT_LE(AllocsIn([&] { size = EncodeJournalRecord(rec).size(); }), 3u)
        << extents << " extents";
    EXPECT_EQ(size, kBlockSize + extents * kBlockSize);
  }
}

TEST(AllocGuard, DataObjectOfZeroPayloadAllocatesOnlyItsHeader) {
  DataObjectHeader header;
  header.seq = 9;
  for (uint64_t i = 0; i < 2048; i++) {
    header.extents.push_back({i * 64 * kKiB, 16 * kKiB, 0, 0});
  }
  const Buffer data = Buffer::Zeros(2048 * 16 * kKiB);
  uint64_t size = 0;
  EXPECT_LE(AllocsIn([&] { size = EncodeDataObject(header, data).size(); }),
            3u);
  EXPECT_EQ(size, DataObjectHeaderSize(2048) + data.size());
}

// Gives every calendar bucket of `sim` room for 16 keys: 16 events in each
// day of a block and in each block of the coarse ring, and 16 beyond it.
// After this, scheduling an event allocates only to grow a bucket past that
// high-water mark, or the slab past its high-water mark of pending events.
void WarmCalendar(Simulator* sim) {
  constexpr Nanos kDay = Nanos{1} << 12;
  constexpr Nanos kBlock = Nanos{1} << 22;
  for (Nanos i = 0; i < 1024 * 16; i++) {
    sim->After(i / 16 * kDay, [] {});
    sim->After(i / 16 * kBlock, [] {});
    sim->After(2048 * kBlock, [] {});
  }
  sim->Run();
}

TEST(AllocGuard, ClusterWriteHoldsA64ByteCaptureInline) {
  Simulator sim;
  WarmCalendar(&sim);
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  int hits = 0;
  std::array<uint64_t, 7> pad{1, 2, 3, 4, 5, 6, 7};
  const auto done = [&hits, pad] { hits += static_cast<int>(pad[6]); };
  static_assert(sizeof(done) == 64);
  const auto write = [&] {
    cluster.Write(3, kGiB, 4096, done);
    cluster.WalAppend(5, 4096, done);
    cluster.Read(7, 2 * kGiB, 4096, done);
    sim.Run();
  };
  // The simulator slab's first chunk and the first write-size histogram
  // buckets.
  write();
  write();
  EXPECT_EQ(AllocsIn(write), 0u);
  EXPECT_EQ(hits, 9 * 7);
}

TEST(AllocGuard, SimSsdCallbacksHoldA48ByteCaptureInline) {
  Simulator sim;
  WarmCalendar(&sim);
  SimSsd ssd(&sim, kGiB, SsdParams::P3700());
  uint64_t sink = 0;
  std::array<uint64_t, 5> pad{1, 2, 3, 4, 5};
  // Zero payloads: the written and read Buffers hold no chunk, so every
  // count below is the callbacks' and the device's own.
  const auto cycle = [&](uint64_t offset, uint64_t len) {
    const auto wrote = [&sink, pad](Status s) { sink += s.ok() ? pad[4] : 0; };
    const auto flushed = [&sink, pad](Status s) {
      sink += s.ok() ? pad[3] : 0;
    };
    const auto read = [&sink, pad](Result<Buffer> r) {
      sink += r.ok() ? r->size() + pad[0] : 0;
    };
    static_assert(sizeof(wrote) == 48 && sizeof(read) == 48);
    ssd.Write(offset, Buffer::Zeros(len), wrote);
    ssd.Flush(flushed);
    ssd.Read(offset, len, read);
    sim.Run();
  };
  // The device's list of unflushed writes is a deque, which takes a node
  // every ten writes or so; any callback that allocated would add at least
  // one per cycle.
  constexpr uint64_t kCycles = 100;
  const auto cycles = [&](uint64_t len) {
    for (uint64_t i = 0; i < kCycles; i++) {
      cycle(i * len, len);
    }
  };
  cycles(4 * kKiB);  // the pending slab's first chunk
  EXPECT_LE(AllocsIn([&] { cycles(4 * kKiB); }), kCycles / 8);
  // A striped request shares its slot across the stripes.
  EXPECT_LE(AllocsIn([&] { cycles(256 * kKiB); }), kCycles / 8);
  EXPECT_EQ(sink, 3 * kCycles * (5 + 4 + 1) +
                      kCycles * (2 * 4 * kKiB + 256 * kKiB));
}

// The RBD world of the baseline: the SSD pool, a client link and one image.
struct RbdWorld {
  static constexpr uint64_t kVolume = 256 * kMiB;
  Simulator sim;
  BackendCluster cluster{&sim, ClusterConfig::SsdPool()};
  NetLink link{&sim, NetParams{}};
  RbdDisk rbd{&sim, &cluster, &link, kVolume, RbdConfig{}};
};

TEST(AllocGuard, RbdWriteKeepsOneStatePerWrite) {
  RbdWorld w;
  WarmCalendar(&w.sim);
  Rng rng(1);
  int acked = 0;
  const auto write = [&] {
    w.rbd.Write(rng.Uniform(RbdWorld::kVolume / (4 * kKiB)) * 4 * kKiB,
                Buffer::Zeros(4 * kKiB), [&acked](Status s) {
                  acked += s.ok() ? 1 : 0;
                });
    w.sim.Run();
  };
  for (int i = 0; i < 1000; i++) {
    write();
  }
  // One allocation each: the write's shared state.
  constexpr int kWrites = 100;
  EXPECT_LE(AllocsIn([&] {
              for (int i = 0; i < kWrites; i++) {
                write();
              }
            }),
            uint64_t{kWrites});
  EXPECT_EQ(acked, 1000 + kWrites);
}

TEST(AllocGuard, BcacheWritebackAllocatesAtMostTenPerPiece) {
  RbdWorld w;
  WarmCalendar(&w.sim);
  ClientHostConfig hc;
  hc.ssd_capacity = kGiB;
  ClientHost host(&w.sim, hc);
  constexpr uint64_t kCache = 64 * kMiB;
  BcacheDevice bcache(&host, &w.rbd, *host.AllocRegion(kCache), kCache,
                      BcacheConfig{});
  Rng rng(2);
  const auto stamp =
      std::make_shared<const std::vector<uint8_t>>(4 * kKiB, 0xA5);
  const auto dirty = [&](int blocks) {
    int acked = 0;
    for (int i = 0; i < blocks; i++) {
      Buffer data;
      data.AppendShared(stamp, 0, stamp->size());
      bcache.Write(rng.Uniform(RbdWorld::kVolume / (4 * kKiB)) * 4 * kKiB,
                   std::move(data), [&acked](Status) { acked++; });
    }
    // Only until acknowledged: idle writeback would drain them first.
    while (acked < blocks && w.sim.Step()) {
    }
  };
  dirty(1024);
  bcache.WritebackAll([] {});
  w.sim.Run();
  dirty(1024);
  const uint64_t ops = bcache.stats().writeback_ops;
  const uint64_t allocs = AllocsIn([&] {
    bcache.WritebackAll([] {});
    w.sim.Run();
  });
  const uint64_t pieces = bcache.stats().writeback_ops - ops;
  ASSERT_GT(pieces, 1000u);
  EXPECT_EQ(bcache.dirty_bytes(), 0u);
  EXPECT_LE(allocs, 10 * pieces) << allocs << " allocations for " << pieces
                                 << " pieces";
}

TEST(AllocGuard, RetryGetRangeMakesAtMostThreeAllocations) {
  Simulator sim;
  WarmCalendar(&sim);
  MemObjectStore store(&sim);
  const auto stamp =
      std::make_shared<const std::vector<uint8_t>>(64 * kKiB, 0x3C);
  Buffer object;
  object.AppendShared(stamp, 0, stamp->size());
  // A short name, held in the string itself (no allocation of its own).
  store.Put("vol.00000001", object, [](Status) {});
  sim.Run();
  RetryPolicy policy;
  Rng rng(policy.seed);
  const RetryContext ctx{&sim,    &store, &policy,
                         &rng,    std::make_shared<bool>(true),
                         kSecond, [] {},  [] {}};
  uint64_t got = 0;
  const auto get = [&] {
    // The callback fits std::function's own buffer.
    RetryGetRange(ctx, "vol.00000001", 4 * kKiB, 8 * kKiB,
                  [&got](Result<Buffer> r) { got += r.ok() ? r->size() : 0; });
    sim.Run();
  };
  get();
  // The request, the store's std::function callback and the range's chunk
  // vector.
  EXPECT_LE(AllocsIn(get), 3u);
  EXPECT_EQ(got, 2 * 8 * kKiB);
}

TEST(AllocGuard, JournalRecordWriteCallbackIsInline) {
  Simulator sim;
  WarmCalendar(&sim);
  ClientHostConfig hc;
  hc.ssd_capacity = kGiB;
  hc.ssd = SsdParams::Instant();
  ClientHost host(&sim, hc);
  constexpr uint64_t kRegion = 64 * kMiB;
  WriteCache wc(&host, *host.AllocRegion(kRegion), kRegion,
                StageCosts{0, 0, 0, 0, 0, 0, 0, 0, 0});
  wc.Format([](Status) {});
  sim.Run();
  uint64_t acked = 0;
  uint64_t batch = 0;
  // One 4 KiB zero write per journal record, released at once so the log
  // keeps wrapping.
  const auto record = [&] {
    batch++;
    wc.Append(0, Buffer::Zeros(4 * kKiB), batch,
              [&acked](Status s) { acked += s.ok() ? 1 : 0; });
    sim.Run();
    wc.ReleaseThrough(batch);
  };
  for (int i = 0; i < 5000; i++) {  // past a checkpoint and a log wrap
    record();
  }
  constexpr uint64_t kRecords = 1000;  // no checkpoint in this window
  const uint64_t allocs = AllocsIn([&] {
    for (uint64_t i = 0; i < kRecords; i++) {
      record();
    }
  });
  EXPECT_EQ(acked, 5000 + kRecords);
  // Per record: the encoded header, its control block and its chunk
  // vector, plus the odd deque node (≈ 3.36). The journal record's extent
  // list is inline, the live record's extents go to a shared deque, and the
  // SSD-write callback, [this, alive, seq] of 32 bytes, is held inline.
  EXPECT_LE(allocs, 7 * kRecords / 2) << allocs << " for " << kRecords;
}

// Records of one to four 4 KiB writes stay live (nothing is released), so
// the cache holds every one when it is torn down. Live records and their
// extents sit in two deques: teardown frees the deques' nodes (eight
// records or 32 extents each), the map's leaves and a fixed set of
// members, but no block per record.
TEST(AllocGuard, LiveJournalRecordsFreeNoBlockPerRecord) {
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = kGiB;
  hc.ssd = SsdParams::Instant();
  ClientHost host(&sim, hc);
  constexpr uint64_t kRegion = 64 * kMiB;
  auto wc = std::make_unique<WriteCache>(
      &host, *host.AllocRegion(kRegion), kRegion,
      StageCosts{0, 0, 0, 0, 0, 0, 0, 0, 0});
  wc->Format([](Status) {});
  sim.Run();
  uint64_t vlba = 0;
  for (uint64_t batch = 1; batch <= 600; batch++) {
    for (int i = 0; i < 4; i++) {
      wc->Append(vlba, Buffer::Zeros(4 * kKiB), batch, [](Status) {});
      vlba += 8 * kKiB;  // gaps: every write is its own map extent
    }
    sim.Run();
  }
  const size_t records = wc->RecordsAfterBatch(0).size();
  ASSERT_GE(records, 600u);
  const uint64_t frees = FreesIn([&wc] { wc.reset(); });
  // A block per record would make this at least `records`.
  EXPECT_LE(frees, records / 3) << frees << " for " << records << " records";
}

// A disk over the simulated object store, its volume written with zeros
// and drained to the backend, the write cache's releasable records
// evicted: every read misses both caches until its window is fetched.
struct ReadWorld {
  static constexpr uint64_t kVolume = 64 * kMiB;
  Simulator sim;
  ClientHost host{&sim, HostConfig()};
  BackendCluster cluster{&sim, ClusterConfig::SsdPool()};
  NetLink link{&sim, NetParams{}};
  SimObjectStore store{&sim, &cluster, &link, SimObjectStoreConfig{}};
  std::unique_ptr<LsvdDisk> disk;
  uint64_t got = 0;  // bytes read

  static ClientHostConfig HostConfig() {
    ClientHostConfig hc;
    hc.ssd_capacity = kGiB;
    return hc;
  }

  ReadWorld() {
    WarmCalendar(&sim);
    LsvdConfig config;
    config.volume_name = "v";
    config.volume_size = kVolume;
    config.write_cache_size = 64 * kMiB;
    config.read_cache_size = 128 * kMiB;
    config.batch_bytes = 4 * kMiB;
    disk = std::make_unique<LsvdDisk>(&host, &store, config);
    disk->Create([](Status) {});
    sim.Run();
    for (uint64_t off = 0; off < kVolume; off += 256 * kKiB) {
      disk->Write(off, Buffer::Zeros(256 * kKiB), [](Status) {});
    }
    disk->Drain([](Status) {});
    sim.Run();
    disk->write_cache().EvictReleasable([](Status) {});
    sim.Run();
  }

  // One 4 KiB read at `offset`, run to completion. The callback's capture
  // is one pointer, within std::function's own buffer.
  void Read(uint64_t offset) {
    disk->Read(offset, 4 * kKiB, [this](Result<Buffer> r) {
      got += r.ok() ? r->size() : 0;
    });
    sim.Run();
  }
};

TEST(AllocGuard, LsvdDiskReadFromWriteCacheAllocatesNothing) {
  ReadWorld w;
  w.disk->Write(0, Buffer::Zeros(4 * kKiB), [](Status) {});
  w.sim.Run();
  for (int i = 0; i < 32; i++) {  // the read slab and stream lists
    w.Read(0);
  }
  EXPECT_EQ(AllocsIn([&] {
              for (int i = 0; i < 100; i++) {
                w.Read(0);
              }
            }),
            0u);
  EXPECT_EQ(w.got, 132 * 4 * kKiB);
  EXPECT_EQ(w.disk->stats().write_cache_hits, 132u);
}

TEST(AllocGuard, LsvdDiskReadFromReadCacheAllocatesNothing) {
  ReadWorld w;
  w.Read(0);  // fetches the window into the read cache
  for (int i = 0; i < 32; i++) {  // the read slab and stream lists
    w.Read(0);
  }
  EXPECT_EQ(AllocsIn([&] {
              for (int i = 0; i < 100; i++) {
                w.Read(0);
              }
            }),
            0u);
  EXPECT_EQ(w.got, 133 * 4 * kKiB);
  EXPECT_EQ(w.disk->stats().read_cache_hits, 132u);
}

TEST(AllocGuard, LsvdDiskBackendMissAllocatesAtMostThree) {
  ReadWorld w;
  // One read per 1 MiB: each misses to the backend and fills a 256 KiB
  // window of the read cache. The first 16 fill the slabs.
  constexpr uint64_t kStride = kMiB;
  for (uint64_t i = 0; i < 16; i++) {
    w.Read(i * kStride);
  }
  constexpr uint64_t kMisses = 48;
  const uint64_t allocs = AllocsIn([&] {
    for (uint64_t i = 16; i < 16 + kMisses; i++) {
      w.Read(i * kStride);
    }
  });
  EXPECT_EQ(w.disk->stats().backend_reads, 16 + kMisses);
  EXPECT_EQ(w.got, (16 + kMisses) * 4 * kKiB);
  // Per miss: the retry driver's request, the std::function that holds its
  // answer in the object store, and the object's name ("v.d." and twelve
  // digits, one byte past std::string's inline buffer); the slack is the
  // SSD's list of unflushed writes growing now and then.
  EXPECT_LE(allocs, 3 * kMisses + kMisses / 8) << allocs << " for "
                                               << kMisses;
}

TEST(AllocGuard, ReadCacheInsertOfAZeroWindowAllocatesNothingOnceWarm) {
  Simulator sim;
  WarmCalendar(&sim);
  ClientHostConfig hc;
  hc.ssd_capacity = kGiB;
  ClientHost host(&sim, hc);
  constexpr uint64_t kRegion = 64 * kMiB;
  ReadCache rc(&host, *host.AllocRegion(kRegion), kRegion, 64 * kKiB);
  // Windows laid end to end past the cache's size, so slots recycle. The
  // flush stands in for the write cache's, which in a disk empties the
  // SSD's list of unflushed writes now and then. Only Insert is counted:
  // the simulator's calendar may still grow a bucket as time moves on.
  uint64_t vlba = 0;
  const auto insert = [&] {
    const uint64_t allocs =
        AllocsIn([&] { rc.Insert(vlba, Buffer::Zeros(256 * kKiB)); });
    vlba += 256 * kKiB;
    host.ssd()->Flush([](Status) {});
    sim.Run();
    return allocs;
  };
  for (int i = 0; i < 1000; i++) {
    insert();
  }
  constexpr int kInserts = 100;
  uint64_t allocs = 0;
  for (int i = 0; i < kInserts; i++) {
    allocs += insert();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(rc.stats().insertions, 4u * (1000 + kInserts));
  EXPECT_GT(rc.stats().evictions, 0u);
}

}  // namespace
}  // namespace lsvd
