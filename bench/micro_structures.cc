// google-benchmark microbenchmarks for LSVD's core data structures: the
// extent map (all three translation maps, §3.1/§6.1), the event engine,
// CRC32C, the journal/object codecs, the SSD's block store and the
// write-cache checkpoint encoder. These justify the in-memory-map
// design decision (§6.1: ~24 bytes and sub-microsecond operations per entry)
// and track the hot-path CPU work (docs/PERF.md).
//
// Benchmarks report an "allocs_per_op" counter (heap allocations per
// iteration, via the operator-new hook below) so allocation regressions in
// the scheduler and map fast paths show up directly.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "src/baseline/bcache_device.h"
#include "src/baseline/rbd_disk.h"
#include "src/blockdev/sim_ssd.h"
#include "src/lsvd/client_host.h"
#include "src/lsvd/extent_map.h"
#include "src/lsvd/journal.h"
#include "src/lsvd/lsvd_disk.h"
#include "src/lsvd/object_format.h"
#include "src/lsvd/paged_extent_map.h"
#include "src/lsvd/write_cache.h"
#include "src/objstore/mem_object_store.h"
#include "src/objstore/sim_object_store.h"
#include "src/sim/cluster.h"
#include "src/sim/net_link.h"
#include "src/sim/simulator.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "src/util/units.h"

// Global operator-new replacement counting heap allocations. Counting is a
// single relaxed atomic add, cheap enough to leave on for every benchmark.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lsvd {
namespace {

// RAII: counts heap allocations across the timed loop and reports them as a
// per-iteration counter.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), start_(g_alloc_count.load(std::memory_order_relaxed)) {}
  ~AllocCounter() {
    const uint64_t n =
        g_alloc_count.load(std::memory_order_relaxed) - start_ - excluded_;
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(n) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
    if (items_ > 0) {
      state_.counters["allocs_per_item"] = benchmark::Counter(
          static_cast<double>(n) / static_cast<double>(items_));
    }
  }

  // Runs `fn` untimed, leaving its allocations out of the count.
  template <typename Fn>
  void Exclude(Fn&& fn) {
    state_.PauseTiming();
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    fn();
    excluded_ += g_alloc_count.load(std::memory_order_relaxed) - before;
    state_.ResumeTiming();
  }

  // Also reports allocations per item, for an iteration that handles many.
  void AddItems(uint64_t n) { items_ += n; }

 private:
  benchmark::State& state_;
  uint64_t start_;
  uint64_t excluded_ = 0;
  uint64_t items_ = 0;
};

void BM_ExtentMapUpdate(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  Rng rng(1);
  // Pre-populate.
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0});
  }
  uint64_t seq = entries;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{seq++, 0});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapUpdate)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_ExtentMapLookup(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  Rng rng(2);
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0});
  }
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.Lookup(rng.Uniform(entries * 4) * 16 * kKiB, 64 * kKiB));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

// Out-param Lookup (the hot-path API): no result-vector allocation, and the
// map's last-extent hint turns repeated/sequential probes into O(1).
void BM_ExtentMapLookupOutParam(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  Rng rng(2);
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0});
  }
  ExtentMap<ObjTarget>::SegmentVec segs;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Lookup(rng.Uniform(entries * 4) * 16 * kKiB, 64 * kKiB, &segs);
    benchmark::DoNotOptimize(segs.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapLookupOutParam)->Arg(1000)->Arg(100000)->Arg(1000000);

// Sequential scan over adjacent extents — the hint's best case (streaming
// reads, GC victim scans, checkpoint encodes).
void BM_ExtentMapLookupSequential(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(i * 16 * kKiB, 16 * kKiB, ObjTarget{i, 0});
  }
  ExtentMap<ObjTarget>::SegmentVec segs;
  uint64_t next = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Lookup(next * 16 * kKiB, 16 * kKiB, &segs);
    benchmark::DoNotOptimize(segs.size());
    next = (next + 1) % entries;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapLookupSequential)->Arg(1000)->Arg(1000000);

// A fully fragmented volume map: `blocks` 4 KiB extents (262 144 = a 1 GiB
// volume) written in random order with non-contiguous SSD targets — the
// write-cache map's steady state under fig06 / perfbench lsvd_randwrite.
// `plba` is left just past the last target.
ExtentMap<SsdTarget> FragmentedVolumeMap(uint64_t blocks, Rng* rng,
                                         uint64_t* plba) {
  ExtentMap<SsdTarget> map;
  std::vector<uint64_t> order(blocks);
  std::iota(order.begin(), order.end(), uint64_t{0});
  for (uint64_t i = blocks - 1; i > 0; i--) {
    std::swap(order[i], order[rng->Uniform(i + 1)]);
  }
  *plba = 0;
  for (const uint64_t b : order) {
    map.Update(b * 4 * kKiB, 4 * kKiB, SsdTarget{*plba}, nullptr);
    *plba += 8 * kKiB;  // gap: consecutive writes never merge
  }
  return map;
}

// Random 4 KiB overwrites of a fully fragmented volume map.
void BM_ExtentMapOverwrite4K(benchmark::State& state) {
  const auto blocks = static_cast<uint64_t>(state.range(0));
  Rng rng(3);
  uint64_t plba = 0;
  ExtentMap<SsdTarget> map = FragmentedVolumeMap(blocks, &rng, &plba);
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Update(rng.Uniform(blocks) * 4 * kKiB, 4 * kKiB, SsdTarget{plba},
               nullptr);
    plba += 8 * kKiB;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapOverwrite4K)->Arg(262144);

// Seek latency: random 4 KiB lookups into the same fragmented map, each
// address derived from the previous lookup's result, so one seek cannot
// start before the last one ends and the time per iteration is the full
// latency of a cold descent (random blocks all but never hit the hint).
void BM_ExtentMapSeekChain(benchmark::State& state) {
  const auto blocks = static_cast<uint64_t>(state.range(0));
  Rng rng(4);
  uint64_t plba = 0;
  const ExtentMap<SsdTarget> map = FragmentedVolumeMap(blocks, &rng, &plba);
  uint64_t key = 1;
  AllocCounter allocs(state);
  for (auto _ : state) {
    key = key * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019;
    key ^= map.LookupOne((key >> 24) % blocks * 4 * kKiB)->plba;
  }
  benchmark::DoNotOptimize(key);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapSeekChain)->Arg(262144);

// The flat map against PagedExtentMap with no residency budget (the backend
// object map's default), through the same calls: random 16 KiB updates and
// 64 KiB lookups over `entries` extents (the BM_ExtentMapUpdate /
// LookupOutParam shapes).
template <typename Map>
void BM_MapIfaceUpdate(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  Map map;
  Rng rng(1);
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0}, nullptr);
  }
  uint64_t seq = entries;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{seq++, 0}, nullptr);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_MapIfaceUpdate, ExtentMap<ObjTarget>)
    ->Arg(100000)
    ->Arg(1000000);
BENCHMARK_TEMPLATE(BM_MapIfaceUpdate, PagedExtentMap<ObjTarget>)
    ->Arg(100000)
    ->Arg(1000000);

template <typename Map>
void BM_MapIfaceLookup(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  Map map;
  Rng rng(2);
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0}, nullptr);
  }
  typename Map::SegmentVec segs;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Lookup(rng.Uniform(entries * 4) * 16 * kKiB, 64 * kKiB, &segs);
    benchmark::DoNotOptimize(segs.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_MapIfaceLookup, ExtentMap<ObjTarget>)
    ->Arg(100000)
    ->Arg(1000000);
BENCHMARK_TEMPLATE(BM_MapIfaceLookup, PagedExtentMap<ObjTarget>)
    ->Arg(100000)
    ->Arg(1000000);

// Event engine: schedule-then-drain churn with short delays — the shape of
// nearly all simulation traffic (device latencies, network hops). Exercises
// the calendar queue's near window and InlineFn's inline storage.
void BM_SimulatorNearEvents(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Simulator sim;
  Rng rng(3);
  uint64_t sink = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < batch; i++) {
      sim.At(sim.now() + 1 + static_cast<Nanos>(rng.Uniform(500 * 1000)),
             [&sink] { sink++; });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SimulatorNearEvents)->Arg(64)->Arg(1024);

// Mixed near + far timers: far events (seconds out, e.g. GC ticks and retry
// backoffs) land in the overflow heap and must migrate into the calendar
// window without disturbing near-event throughput.
void BM_SimulatorMixedHorizon(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Simulator sim;
  Rng rng(4);
  uint64_t sink = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < batch; i++) {
      const bool far = (i & 7) == 0;  // 1 in 8 beyond the near window
      const Nanos delay = far ? FromSeconds(0.1 + 0.01 * (i & 63))
                              : 1 + static_cast<Nanos>(rng.Uniform(100 * 1000));
      sim.At(sim.now() + delay, [&sink] { sink++; });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SimulatorMixedHorizon)->Arg(64)->Arg(1024);

// Deep backlog: `count` events pending at once, spread over ~3 s of virtual
// time, then popped to empty — the shape of bcache's writeback during
// recovery, which parks ~0.5M events seconds ahead. Most of them sit beyond
// the near window, in the coarse ring.
void BM_SimulatorDeepBacklog(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  Simulator sim;
  Rng rng(5);
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < count; i++) {
      const Nanos delay = 1 + static_cast<Nanos>(rng.Uniform(3'000'000'000));
      sim.At(sim.now() + delay, [&sink, i] { sink += static_cast<uint64_t>(i); });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * count);
}
BENCHMARK(BM_SimulatorDeepBacklog)->Arg(500000)->Unit(benchmark::kMillisecond);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_JournalEncode(benchmark::State& state) {
  JournalRecord rec;
  rec.seq = 1;
  const auto nexts = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < nexts; i++) {
    rec.extents.push_back({i * 16 * kKiB, 16 * kKiB});
  }
  rec.data = Buffer::Zeros(nexts * 16 * kKiB);
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeJournalRecord(rec));
  }
}
BENCHMARK(BM_JournalEncode)->Arg(4)->Arg(32)->Arg(128);

void BM_ObjectHeaderDecode(benchmark::State& state) {
  DataObjectHeader header;
  header.seq = 7;
  const auto nexts = static_cast<size_t>(state.range(0));
  Buffer data;
  for (size_t i = 0; i < nexts; i++) {
    header.extents.push_back({i * 64 * kKiB, 16 * kKiB, 0, 0});
    data.AppendZeros(16 * kKiB);
  }
  const Buffer object = EncodeDataObject(header, data);
  for (auto _ : state) {
    DataObjectHeader out;
    benchmark::DoNotOptimize(DecodeDataObjectHeader(object, &out));
  }
}
BENCHMARK(BM_ObjectHeaderDecode)->Arg(16)->Arg(512)->Arg(2048);

// SimSsd's block store under the journal's write shape: one non-zero
// header block (an encoded record header, shared rather than copied) plus
// a symbolic zero payload of `range(0)` blocks, written at the log head,
// flushed, and read back.
void BM_SimSsdJournalWriteFlushRead(benchmark::State& state) {
  const auto payload = static_cast<uint64_t>(state.range(0)) * 4 * kKiB;
  constexpr uint64_t kCapacity = 256 * kMiB;
  Simulator sim;
  SimSsd ssd(&sim, kCapacity, SsdParams::Instant());
  auto header = std::make_shared<const std::vector<uint8_t>>(4 * kKiB, 0x5A);
  uint64_t offset = 0;
  uint64_t sink = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    const uint64_t len = 4 * kKiB + payload;
    if (offset + len > kCapacity) {
      offset = 0;
    }
    Buffer record;
    record.AppendShared(header, 0, header->size());
    record.AppendZeros(payload);
    ssd.Write(offset, std::move(record), [](Status) {});
    ssd.Flush([](Status) {});
    ssd.Read(offset, len, [&sink](Result<Buffer> r) { sink += r->size(); });
    sim.Run();
    offset += len;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimSsdJournalWriteFlushRead)->Arg(4)->Arg(256);

// The LSVD 4 KiB write path in steady state: zero-filled random writes at
// queue depth 32 through LsvdDisk (QoS, kernel-CPU charge, journal record,
// SSD write, ack), with batching, PUTs, checkpoints and GC running behind
// them. One iteration is one acknowledged write; allocs_per_op counts every
// heap allocation the whole stack makes per write.
void BM_LsvdDiskWrite4K(benchmark::State& state) {
  constexpr uint64_t kVolume = 256 * kMiB;
  constexpr int kQueueDepth = 32;
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = kGiB;
  ClientHost host(&sim, hc);
  MemObjectStore store(&sim);
  LsvdConfig config;
  config.volume_name = "vol";
  config.volume_size = kVolume;
  config.write_cache_size = 64 * kMiB;
  config.read_cache_size = 32 * kMiB;
  config.batch_bytes = 8 * kMiB;
  LsvdDisk disk(&host, &store, config);
  disk.Create([](Status) {});
  sim.Run();

  Rng rng(1);
  uint64_t acked = 0;
  uint64_t failed = 0;
  const auto issue = [&] {
    disk.Write(rng.Uniform(kVolume / (4 * kKiB)) * 4 * kKiB,
               Buffer::Zeros(4 * kKiB), [&acked, &failed](Status s) {
                 acked++;
                 failed += s.ok() ? 0 : 1;
               });
  };
  // Runs the simulator until `target` writes are acknowledged, keeping
  // kQueueDepth in flight.
  const auto run_until = [&](uint64_t target) {
    while (acked < target) {
      const uint64_t before = acked;
      while (acked == before && sim.Step()) {
      }
      for (uint64_t i = before; i < acked; i++) {
        issue();
      }
    }
  };
  for (int i = 0; i < kQueueDepth; i++) {
    issue();
  }
  run_until(50000);  // warm up past the first batches and checkpoints
  uint64_t target = acked;
  AllocCounter allocs(state);
  for (auto _ : state) {
    run_until(++target);
  }
  if (failed > 0) {
    state.SkipWithError("write failed");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LsvdDiskWrite4K);

// Where a BM_LsvdDiskRead4K read is served.
enum class ReadRoute { kWriteCache, kReadCache, kBackend };

// A 4 KiB LsvdDisk read, one at a time, from Read() to its callback, served
// by the write cache, the read cache, or (missing both) the backend over
// SimObjectStore with its 256 KiB prefetch into the read cache. The volume
// holds zeros, so the data costs no allocation: allocs_per_op is the read
// path's own. Backend reads stride 1 MiB over a 256 MiB volume, more
// windows than the 32 MiB read cache holds, so every one misses.
void BM_LsvdDiskRead4K(benchmark::State& state, ReadRoute route) {
  constexpr uint64_t kVolume = 256 * kMiB;
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = kGiB;
  ClientHost host(&sim, hc);
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  SimObjectStore store(&sim, &cluster, &link, SimObjectStoreConfig{});
  LsvdConfig config;
  config.volume_name = "vol";
  config.volume_size = kVolume;
  config.write_cache_size = 64 * kMiB;
  config.read_cache_size = 32 * kMiB;
  config.batch_bytes = 8 * kMiB;
  LsvdDisk disk(&host, &store, config);
  disk.Create([](Status) {});
  sim.Run();
  for (uint64_t off = 0; off < kVolume; off += kMiB) {
    disk.Write(off, Buffer::Zeros(kMiB), [](Status) {});
  }
  disk.Drain([](Status) {});
  sim.Run();
  disk.write_cache().EvictReleasable([](Status) {});
  sim.Run();
  if (route == ReadRoute::kWriteCache) {
    disk.Write(0, Buffer::Zeros(4 * kKiB), [](Status) {});
    sim.Run();
  }

  uint64_t next = 0;
  uint64_t failed = 0;
  const auto read = [&] {
    uint64_t offset = 0;
    if (route == ReadRoute::kBackend) {
      offset = next;
      next = (next + kMiB) % kVolume;
    }
    disk.Read(offset, 4 * kKiB, [&failed](Result<Buffer> r) {
      failed += r.ok() ? 0 : 1;
    });
    sim.Run();
  };
  for (int i = 0; i < 512; i++) {
    read();
  }
  const LsvdDiskStats before = disk.stats();
  AllocCounter allocs(state);
  for (auto _ : state) {
    read();
  }
  const LsvdDiskStats after = disk.stats();
  const uint64_t served =
      route == ReadRoute::kWriteCache  ? after.write_cache_hits -
                                             before.write_cache_hits
      : route == ReadRoute::kReadCache ? after.read_cache_hits -
                                             before.read_cache_hits
                                       : after.backend_reads -
                                             before.backend_reads;
  if (failed > 0 || served != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("read failed or took another route");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_LsvdDiskRead4K, write_cache, ReadRoute::kWriteCache);
BENCHMARK_CAPTURE(BM_LsvdDiskRead4K, read_cache, ReadRoute::kReadCache);
BENCHMARK_CAPTURE(BM_LsvdDiskRead4K, backend, ReadRoute::kBackend);

// The RBD baseline's 4 KiB write in steady state: zero-filled random writes
// at queue depth 32 (client link, three WAL appends and
// three in-place writes on the SSD pool, ack). One iteration is one
// acknowledged write.
void BM_RbdDiskWrite4K(benchmark::State& state) {
  constexpr uint64_t kVolume = 256 * kMiB;
  constexpr int kQueueDepth = 32;
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  RbdDisk rbd(&sim, &cluster, &link, kVolume, RbdConfig{});
  Rng rng(1);
  uint64_t acked = 0;
  uint64_t failed = 0;
  const auto issue = [&] {
    rbd.Write(rng.Uniform(kVolume / (4 * kKiB)) * 4 * kKiB,
              Buffer::Zeros(4 * kKiB), [&acked, &failed](Status s) {
                acked++;
                failed += s.ok() ? 0 : 1;
              });
  };
  const auto run_until = [&](uint64_t target) {
    while (acked < target) {
      const uint64_t before = acked;
      while (acked == before && sim.Step()) {
      }
      for (uint64_t i = before; i < acked; i++) {
        issue();
      }
    }
  };
  for (int i = 0; i < kQueueDepth; i++) {
    issue();
  }
  run_until(20000);
  uint64_t target = acked;
  AllocCounter allocs(state);
  for (auto _ : state) {
    run_until(++target);
  }
  if (failed > 0) {
    state.SkipWithError("write failed");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RbdDiskWrite4K);

// bcache's full writeback (WritebackAll, the §4.4 sync) over RBD: each
// iteration dirties 2048 random 4 KiB blocks of stamped data (untimed,
// allocations not counted), then writes every dirty piece back: an SSD read
// and an RBD write per piece. allocs_per_item is per written-back piece.
void BM_BcacheWritebackAll(benchmark::State& state) {
  constexpr uint64_t kVolume = 256 * kMiB;
  constexpr uint64_t kCache = 64 * kMiB;
  constexpr int kDirtyBlocks = 2048;
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = kGiB;
  ClientHost host(&sim, hc);
  BackendCluster cluster(&sim, ClusterConfig::SsdPool());
  NetLink link(&sim, NetParams{});
  RbdDisk rbd(&sim, &cluster, &link, kVolume, RbdConfig{});
  BcacheDevice bcache(&host, &rbd, *host.AllocRegion(kCache), kCache,
                      BcacheConfig{});
  Rng rng(2);
  const auto stamp = std::make_shared<const std::vector<uint8_t>>(
      4 * kKiB, 0xA5);
  // Runs only until the writes are acknowledged: a full Run() would let
  // bcache's idle writeback drain them first.
  const auto dirty = [&] {
    int acked = 0;
    for (int i = 0; i < kDirtyBlocks; i++) {
      Buffer data;
      data.AppendShared(stamp, 0, stamp->size());
      bcache.Write(rng.Uniform(kVolume / (4 * kKiB)) * 4 * kKiB,
                   std::move(data), [&acked](Status) { acked++; });
    }
    while (acked < kDirtyBlocks && sim.Step()) {
    }
  };
  dirty();
  bcache.WritebackAll([] {});
  sim.Run();
  uint64_t written_back = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    allocs.Exclude(dirty);
    const uint64_t ops = bcache.stats().writeback_ops;
    bcache.WritebackAll([] {});
    sim.Run();
    written_back += bcache.stats().writeback_ops - ops;
  }
  allocs.AddItems(written_back);
  if (bcache.dirty_bytes() != 0) {
    state.SkipWithError("dirty data left after WritebackAll");
  }
  state.SetItemsProcessed(static_cast<int64_t>(written_back));
}
BENCHMARK(BM_BcacheWritebackAll)->Unit(benchmark::kMillisecond);

// A write-cache checkpoint: encoding the records that hold `range(0)`
// non-adjacent 4 KiB extents into one blob, and handing it to the SSD with
// its flush.
void BM_CheckpointEncode(benchmark::State& state) {
  const auto extents = static_cast<uint64_t>(state.range(0));
  Simulator sim;
  ClientHostConfig hc;
  hc.ssd_capacity = 2 * kGiB;
  hc.ssd = SsdParams::Instant();
  ClientHost host(&sim, hc);
  constexpr uint64_t kRegion = kGiB;
  WriteCache wc(&host, *host.AllocRegion(kRegion), kRegion,
                StageCosts{0, 0, 0, 0, 0, 0, 0, 0, 0});
  wc.Format([](Status) {});
  sim.Run();
  for (uint64_t i = 0; i < extents; i++) {
    wc.Append(2 * i * 4 * kKiB, Buffer::Zeros(4 * kKiB), 1, [](Status) {});
  }
  sim.Run();
  uint64_t ok = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    wc.WriteCheckpoint([&ok](Status s) { ok += s.ok() ? 1 : 0; });
    sim.Run();
  }
  if (ok != static_cast<uint64_t>(state.iterations()) ||
      wc.map().extent_count() != extents) {
    state.SkipWithError("checkpoint failed or map not fragmented");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CheckpointEncode)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace lsvd

BENCHMARK_MAIN();
