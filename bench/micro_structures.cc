// google-benchmark microbenchmarks for LSVD's core data structures: the
// extent map (all three translation maps, §3.1/§6.1), the event engine,
// CRC32C, and the journal/object codecs. These justify the in-memory-map
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

#include "src/lsvd/extent_map.h"
#include "src/lsvd/journal.h"
#include "src/lsvd/object_format.h"
#include "src/lsvd/paged_extent_map.h"
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
        g_alloc_count.load(std::memory_order_relaxed) - start_;
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(n) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
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

// Random 4 KiB overwrites of a fully fragmented volume map: `blocks` 4 KiB
// extents (262 144 = a 1 GiB volume) written in random order with
// non-contiguous SSD targets — the write-cache map's steady state under
// fig06 / perfbench lsvd_randwrite.
void BM_ExtentMapOverwrite4K(benchmark::State& state) {
  const auto blocks = static_cast<uint64_t>(state.range(0));
  ExtentMap<SsdTarget> map;
  Rng rng(3);
  std::vector<uint64_t> order(blocks);
  std::iota(order.begin(), order.end(), uint64_t{0});
  for (uint64_t i = blocks - 1; i > 0; i--) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  uint64_t plba = 0;
  for (const uint64_t b : order) {
    map.Update(b * 4 * kKiB, 4 * kKiB, SsdTarget{plba}, nullptr);
    plba += 8 * kKiB;  // gap: consecutive writes never merge
  }
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Update(rng.Uniform(blocks) * 4 * kKiB, 4 * kKiB, SsdTarget{plba},
               nullptr);
    plba += 8 * kKiB;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapOverwrite4K)->Arg(262144);

// The flat map against PagedExtentMap with no residency budget, through the
// same ExtentMapIface calls: random 16 KiB updates and 64 KiB lookups over
// `entries` extents (the BM_ExtentMapUpdate / LookupOutParam shapes).
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

}  // namespace
}  // namespace lsvd

BENCHMARK_MAIN();
