#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "perfbench/src/decorators.h"
#include "perfbench/src/issuer.h"
#include "perfbench/src/trace.h"
#include "src/baseline/bcache_device.h"
#include "src/baseline/rbd_disk.h"
#include "src/lsvd/lsvd_disk.h"
#include "src/objstore/sim_object_store.h"
#include "src/sim/cluster.h"
#include "src/sim/sim_domain.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/workload/fio_gen.h"

namespace perfbench {
namespace {

using namespace lsvd;

// ---------------------------------------------------------------- sizes ---

struct Sizes {
  int clients = 1;
  int shards = 0;            // 0 = one 32-SSD pool (paper config #1)
  int disks_per_shard = 2;   // SSDs per shard when shards > 0
  uint64_t volume = 0;       // bytes per client volume
  uint64_t write_cache = 0;  // SSD journal bytes per volume
  uint64_t read_cache = 0;   // SSD read-cache bytes per volume
  uint64_t block = 4 * kKiB;
  int queue_depth = 32;
  uint64_t ops = 0;          // load ops per client
  uint64_t warmup_ops = 0;   // lsvd_mixed read-cache warm-up reads
  uint64_t readback = 0;     // sampled read-back reads (0 = every block
                             // the shadow saw written)
};

uint64_t Scaled(uint64_t v, double scale, uint64_t granule) {
  const auto s = static_cast<uint64_t>(static_cast<double>(v) * scale);
  return std::max(granule, s / granule * granule);
}

Sizes SizesFor(Workload w, double scale) {
  Sizes s;
  switch (w) {
    case Workload::kLsvdRandwrite:
    case Workload::kBcacheRandwrite:
      // Fig. 6's large cache: four times the volume, split 1:3 between
      // journal and read cache. bcache gets the same 4 GiB.
      s.volume = kGiB;
      s.write_cache = kGiB;
      s.read_cache = 3 * kGiB;
      s.ops = 150000;
      s.readback = 8192;
      break;
    case Workload::kLsvdMixed:
      // Total cache ~0.56 of the volume; the journal holds the whole load
      // without wrapping (see MakeMixedGen and perfbench/README.md).
      s.volume = kGiB;
      s.write_cache = 384 * kMiB;
      s.read_cache = 192 * kMiB;
      s.queue_depth = 16;
      s.ops = 100000;
      s.warmup_ops = 20000;
      break;
    case Workload::kShardedScaleout:
      // fig18's gate shape: 8 client volumes over 8 SSD-backed shards.
      s.clients = 8;
      s.shards = 8;
      s.volume = 256 * kMiB;
      s.write_cache = 64 * kMiB;
      s.read_cache = 192 * kMiB;
      s.block = 256 * kKiB;
      s.ops = 4000;
      s.readback = 512;
      break;
  }
  s.volume = Scaled(s.volume, scale, 64 * kMiB);
  s.ops = Scaled(s.ops, scale, 100);
  s.warmup_ops = s.warmup_ops == 0 ? 0 : Scaled(s.warmup_ops, scale, 100);
  s.readback = s.readback == 0 ? 0 : Scaled(s.readback, scale, 64);
  return s;
}

LsvdConfig VolumeConfig(const Sizes& s) {
  LsvdConfig config;
  config.volume_name = "vol";
  config.volume_size = s.volume;
  config.write_cache_size = s.write_cache;
  config.read_cache_size = s.read_cache;
  config.batch_bytes = 8 * kMiB;
  return config;
}

// ------------------------------------------------------------- helpers ---

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Linear-interpolated quantile of virtual-time samples, in microseconds.
double QuantileUs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) {
    return 0.0;
  }
  std::sort(ns.begin(), ns.end());
  const double pos = q * static_cast<double>(ns.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, ns.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(ns[lo]) * (1 - frac) +
          static_cast<double>(ns[hi]) * frac) /
         1e3;
}

// FNV-1a over every simulated result a round produces.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; i++) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  void Add(uint64_t v) { Add(&v, sizeof(v)); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  void Add(const PhaseStats& p) {
    for (const uint64_t v : {p.reads, p.writes, p.bytes_written, p.errors,
                             p.mismatches}) {
      Add(v);
    }
    Add(p.write_ns.data(), p.write_ns.size() * sizeof(int64_t));
    Add(p.read_ns.data(), p.read_ns.size() * sizeof(int64_t));
    Add(static_cast<uint64_t>(p.first_issue));
    Add(static_cast<uint64_t>(p.last_done));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// lsvd_mixed op stream: 70 % reads, 30 % writes, one block each; 80 % of
// ops fall in the hot first fifth of the volume, the rest in the cold
// remainder. The warm-up stream (`reads_only`) has no writes.
//
// The volume is striped into 1 MiB lanes: writes go to odd lanes, reads to
// the middle half of even lanes, which hold preconditioned zeros. LsvdDisk
// can return stale or foreign data on its read-cache, prefetch and backend
// paths under concurrency (see perfbench/README.md); this layout keeps every
// block those paths serve during the load a zero block, and no read-cache
// fill or prefetch (at most 256 KiB) reaches a block the load writes. The
// stamped writes are checked by the post-recovery read-back.
WorkloadGen MakeMixedGen(uint64_t volume, uint64_t seed, bool reads_only) {
  auto rng = std::make_shared<Rng>(seed);
  constexpr uint64_t kLaneBlocks = kMiB / kBlockSize;
  const uint64_t pairs = volume / kMiB / 2;  // (read lane, write lane) pairs
  const uint64_t hot = pairs / 5;
  return [rng, pairs, hot, reads_only](WorkloadOp* op) {
    const bool write = !reads_only && rng->Bernoulli(0.3);
    op->kind = write ? WorkloadOp::Kind::kWrite : WorkloadOp::Kind::kRead;
    const uint64_t pair = rng->Bernoulli(0.8) ? rng->Uniform(hot)
                                              : rng->UniformRange(hot, pairs);
    const uint64_t block =
        write ? (2 * pair + 1) * kLaneBlocks + rng->Uniform(kLaneBlocks)
              : 2 * pair * kLaneBlocks + kLaneBlocks / 4 +
                    rng->Uniform(kLaneBlocks / 2);
    op->offset = block * kBlockSize;
    op->len = kBlockSize;
    return true;
  };
}

// One 4 KiB read of every block in `blocks`, in order.
WorkloadGen MakeReadBackGen(const std::vector<uint64_t>& blocks) {
  auto next = std::make_shared<size_t>(0);
  return [&blocks, next](WorkloadOp* op) {
    if (*next >= blocks.size()) {
      return false;
    }
    op->kind = WorkloadOp::Kind::kRead;
    op->offset = blocks[(*next)++] * kBlockSize;
    op->len = kBlockSize;
    return true;
  };
}

WorkloadGen MakeSampleReadGen(uint64_t volume, uint64_t reads,
                              uint64_t seed) {
  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandRead;
  fio.block_size = kBlockSize;
  fio.volume_size = volume;
  fio.max_ops = reads;
  fio.seed = seed;
  return MakeFioGen(fio);
}

WorkloadGen MakeLoadGen(Workload w, const Sizes& s, uint64_t seed) {
  if (w == Workload::kLsvdMixed) {
    return MakeMixedGen(s.volume, seed, /*reads_only=*/false);
  }
  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandWrite;
  fio.block_size = s.block;
  fio.volume_size = s.volume;
  fio.seed = seed;
  return MakeFioGen(fio);
}

// Seeds for each generator of a round, derived from the run's seed.
uint64_t LoadSeed(uint64_t seed, int client) {
  return seed * 1000003ull + static_cast<uint64_t>(client);
}
uint64_t WarmupSeed(uint64_t seed) { return seed * 1000003ull + 777777ull; }
uint64_t ReadBackSeed(uint64_t seed, int client) {
  return seed * 1000003ull + 500000ull + static_cast<uint64_t>(client);
}

// The engine a round runs on: one sequential simulator, or a SimDomainGroup
// whose domain 0 adopts it (sharded_scaleout).
struct Engine {
  Simulator sim;
  std::unique_ptr<SimDomainGroup> group;
  int threads = 1;

  void Run() {
    ScopedSpan span(SpanName::kSimRun);
    if (group != nullptr) {
      group->Run(threads);
    } else {
      sim.Run();
    }
  }
  uint64_t events() const {
    return group != nullptr ? group->events_processed()
                            : sim.events_processed();
  }
};

// Counters sampled around the load phase.
struct ClusterSample {
  uint64_t write_bytes = 0;
  uint64_t write_ops = 0;
  Nanos busy = 0;
  int disks = 0;
};

ClusterSample SampleClusters(
    const std::vector<std::unique_ptr<BackendCluster>>& clusters) {
  ClusterSample s;
  for (const auto& c : clusters) {
    const DiskStats t = c->TotalStats();
    s.write_bytes += t.write_bytes;
    s.write_ops += t.write_ops;
    s.busy += c->TotalBusy();
    s.disks += c->num_disks();
  }
  return s;
}

SsdStats SumSsd(const std::vector<ClientHost*>& hosts) {
  SsdStats sum;
  for (ClientHost* h : hosts) {
    const SsdStats& s = h->ssd()->stats();
    sum.read_ops += s.read_ops;
    sum.write_ops += s.write_ops;
    sum.read_bytes += s.read_bytes;
    sum.write_bytes += s.write_bytes;
    sum.flushes += s.flushes;
    sum.sequential_writes += s.sequential_writes;
  }
  return sum;
}

// Fields shared by both system paths, filled in as the round goes.
struct Common {
  int64_t setup_start = 0;
  int64_t load_start = 0;
  int64_t load_run_end = 0;
  int64_t recovery_end = 0;
  int64_t last_ack_host = 0;
  int64_t incident_host = 0;  // start of the end-of-load incident
  ClusterSample cluster0, cluster1;
  SsdStats ssd0, ssd1;
  uint64_t events0 = 0, events1 = 0;
  Nanos load_t0 = 0;  // virtual time the load phase starts and goes idle
  Nanos load_t1 = 0;
  std::vector<PhaseStats> load;      // per client
  std::vector<PhaseStats> readback;  // per client
  Nanos recovery_ns = 0;             // max over clients
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void CountPhase(Common* c, const char* phase, const PhaseStats& p) {
  c->attempted += p.ops();
  c->failed += p.errors + p.mismatches;
  if (p.errors + p.mismatches > 0) {
    std::fprintf(stderr, "perfbench: %s phase: %llu errors, %llu mismatched "
                 "reads of %llu ops\n", phase,
                 static_cast<unsigned long long>(p.errors),
                 static_cast<unsigned long long>(p.mismatches),
                 static_cast<unsigned long long>(p.ops()));
  }
}

// End-to-end virtual-time metrics plus the layer metrics every workload has.
void FillCommon(const Common& c, RoundResult* r) {
  uint64_t writes = 0, bytes_written = 0, ops = 0;
  std::vector<int64_t> write_ns, read_ns, readback_ns;
  Nanos first = INT64_MAX, last = 0;
  for (const PhaseStats& p : c.load) {
    writes += p.writes;
    bytes_written += p.bytes_written;
    ops += p.ops();
    write_ns.insert(write_ns.end(), p.write_ns.begin(), p.write_ns.end());
    read_ns.insert(read_ns.end(), p.read_ns.begin(), p.read_ns.end());
    first = std::min(first, p.first_issue);
    last = std::max(last, p.last_done);
  }
  uint64_t readback_failed = 0;
  for (const PhaseStats& p : c.readback) {
    readback_ns.insert(readback_ns.end(), p.read_ns.begin(),
                       p.read_ns.end());
    readback_failed += p.errors + p.mismatches;
  }
  // Write-only workloads have no load-phase reads; their read latency is
  // the post-recovery read-back's.
  if (read_ns.empty()) {
    read_ns = std::move(readback_ns);
  }

  r->setup_s = Seconds(c.setup_start, c.load_start);
  r->load_s = Seconds(c.load_start, c.last_ack_host);
  r->load_run_s = Seconds(c.load_start, c.load_run_end);
  r->recovery_s = Seconds(c.incident_host, c.recovery_end);
  r->load_ops = ops;
  r->load_events = c.events1 - c.events0;
  r->attempted = c.attempted;
  r->failed = c.failed;
  r->readback_failed = readback_failed;

  const Nanos span = last - first;
  r->sim["sim_iops"] = span > 0 ? static_cast<double>(ops) / ToSeconds(span)
                                : 0.0;
  r->sim["sim_write_p50_us"] = QuantileUs(write_ns, 0.50);
  r->sim["sim_write_p99_us"] = QuantileUs(write_ns, 0.99);
  r->sim["sim_read_p50_us"] = QuantileUs(read_ns, 0.50);
  r->sim["sim_read_p99_us"] = QuantileUs(read_ns, 0.99);
  r->sim["sim_waf"] =
      Ratio(static_cast<double>(c.cluster1.write_bytes - c.cluster0.write_bytes),
            static_cast<double>(bytes_written));
  r->sim["sim_recovery_ms"] = static_cast<double>(c.recovery_ns) / 1e6;

  auto& L = r->layer;
  L["sim.events_per_op"] = Ratio(static_cast<double>(r->load_events),
                                 static_cast<double>(ops));
  const double window_ns =
      static_cast<double>(c.cluster1.disks) *
      static_cast<double>(std::max<Nanos>(1, c.load_t1 - c.load_t0));
  L["sim.cluster_busy_frac"] =
      Ratio(static_cast<double>(c.cluster1.busy - c.cluster0.busy), window_ns);
  L["sim.cluster_write_ops_per_client_write"] =
      Ratio(static_cast<double>(c.cluster1.write_ops - c.cluster0.write_ops),
            static_cast<double>(writes));
  L["blockdev.ssd.write_ops_per_client_write"] =
      Ratio(static_cast<double>(c.ssd1.write_ops - c.ssd0.write_ops),
            static_cast<double>(writes));
  L["blockdev.ssd.write_bytes"] =
      static_cast<double>(c.ssd1.write_bytes - c.ssd0.write_bytes);
  L["blockdev.ssd.read_ops"] =
      static_cast<double>(c.ssd1.read_ops - c.ssd0.read_ops);
  L["blockdev.ssd.flushes"] =
      static_cast<double>(c.ssd1.flushes - c.ssd0.flushes);
  L["blockdev.ssd.seq_write_frac"] = Ratio(
      static_cast<double>(c.ssd1.sequential_writes - c.ssd0.sequential_writes),
      static_cast<double>(c.ssd1.write_ops - c.ssd0.write_ops));
}

void FillSpans(RoundResult* r) {
  const auto self = Tracer::Get().SelfSeconds();
  auto at = [&self](SpanName n) { return self[static_cast<size_t>(n)]; };
  auto& S = r->traced;
  S["sim.self_s"] = at(SpanName::kSimRun);
  S["workload.gen_s"] = at(SpanName::kWorkloadGen);
  S["lsvd.write_call_s"] = at(SpanName::kLsvdWrite);
  S["lsvd.read_call_s"] = at(SpanName::kLsvdRead);
  S["objstore.put_call_s"] = at(SpanName::kObjPut);
  S["objstore.get_call_s"] = at(SpanName::kObjGet);
  S["baseline.bcache.write_call_s"] = at(SpanName::kBcacheWrite);
  S["baseline.rbd.call_s"] = at(SpanName::kRbd);
}

// ---------------------------------------------------------------- LSVD ---

struct LsvdClient {
  Simulator* sim = nullptr;
  SimDomain* domain = nullptr;
  std::unique_ptr<ClientHost> host;
  std::unique_ptr<NetLink> link;
  std::vector<std::unique_ptr<SimObjectStore>> stores;
  std::vector<std::unique_ptr<TracedObjectStore>> traced_stores;
  std::unique_ptr<LsvdDisk> disk;
  std::unique_ptr<TracedDisk> traced_disk;
  std::unique_ptr<CorruptingDisk> corrupt_disk;
  std::unique_ptr<Shadow> shadow;
  std::unique_ptr<Issuer> issuer;  // the running phase's
  MetricsRegistry* registry = nullptr;  // null: the disk's own
  int64_t last_ack_host = 0;
  std::optional<Status> opened;
  Nanos open_ns = 0;
};

struct LsvdWorld {
  // Declared first so it outlives every component holding gauge callbacks.
  MetricsRegistry metrics;
  Engine engine;
  std::vector<std::unique_ptr<BackendCluster>> clusters;
  std::vector<LsvdClient> clients;
};

std::vector<ObjectStore*> StorePtrs(LsvdClient* c) {
  std::vector<ObjectStore*> out;
  if (!c->traced_stores.empty()) {
    for (auto& s : c->traced_stores) {
      out.push_back(s.get());
    }
  } else {
    for (auto& s : c->stores) {
      out.push_back(s.get());
    }
  }
  return out;
}

// Builds a client's disk and the decorator chain the issuers talk to: on
// fresh SSD regions, or after a crash on the regions the dead disk used.
// `phase` is the round phase the disk serves first (see CorruptPhase).
void AttachDisk(LsvdClient* c, const LsvdConfig& config,
                const RoundOptions& o, CorruptPhase phase,
                std::optional<DiskRegions> regions = std::nullopt) {
  c->corrupt_disk.reset();
  c->traced_disk.reset();
  c->disk.reset();
  c->disk = regions.has_value()
                ? std::make_unique<LsvdDisk>(c->host.get(), StorePtrs(c),
                                             config, *regions, c->registry)
                : std::make_unique<LsvdDisk>(c->host.get(), StorePtrs(c),
                                             config, c->registry);
  VirtualDisk* front = c->disk.get();
  if (o.traced) {
    c->traced_disk = std::make_unique<TracedDisk>(
        c->sim, front, SpanName::kLsvdWrite, SpanName::kLsvdRead);
    front = c->traced_disk.get();
  }
  if (o.corrupt_nth_read > 0 && o.corrupt_phase == phase) {
    c->corrupt_disk = std::make_unique<CorruptingDisk>(
        front, o.corrupt_nth_read, phase == CorruptPhase::kReadBack);
    front = c->corrupt_disk.get();
  }
}

VirtualDisk* Front(LsvdClient* c) {
  if (c->corrupt_disk != nullptr) {
    return c->corrupt_disk.get();
  }
  if (c->traced_disk != nullptr) {
    return c->traced_disk.get();
  }
  return c->disk.get();
}

// Starts a closed-loop op stream on a client's (current) disk.
void StartPhase(LsvdClient* c, WorkloadGen gen, uint64_t ops, int queue_depth,
                std::function<void()> done) {
  c->issuer = std::make_unique<Issuer>(c->sim, Front(c), c->shadow.get());
  c->issuer->Run(std::move(gen), ops, queue_depth, std::move(done));
}

void BuildLsvdWorld(LsvdWorld* w, const Sizes& s, const RoundOptions& o) {
  // Finer histogram geometry for the per-layer percentiles; only bucket
  // resolution changes, not what the disk records.
  w->metrics.GetHistogram("lsvd.write.ack_us", 4);
  w->metrics.GetHistogram("lsvd.write_cache.append_to_free_us", 4);
  w->metrics.GetHistogram("backend.batch.seal_to_commit_us", 4);

  const bool parallel = s.shards > 0;
  if (parallel) {
    w->engine.group = std::make_unique<SimDomainGroup>();
    w->engine.threads = o.traced ? 1 : o.threads;
  }
  w->clients.resize(static_cast<size_t>(s.clients));
  for (int i = 0; i < s.clients; i++) {
    LsvdClient& c = w->clients[static_cast<size_t>(i)];
    c.sim = &w->engine.sim;
    if (parallel) {
      c.domain = i == 0 ? w->engine.group->AdoptDomain("client",
                                                       &w->engine.sim)
                        : w->engine.group->AddDomain("client" +
                                                     std::to_string(i));
      c.sim = c.domain->sim();
    }
    c.registry = i == 0 ? &w->metrics : nullptr;
    ClientHostConfig hc;
    c.host = std::make_unique<ClientHost>(c.sim, hc, c.registry);
    c.link = std::make_unique<NetLink>(c.sim, NetParams{});
  }

  if (!parallel) {
    w->clusters.push_back(std::make_unique<BackendCluster>(
        &w->engine.sim, ClusterConfig::SsdPool(), &w->metrics));
    LsvdClient& c = w->clients[0];
    c.stores.push_back(std::make_unique<SimObjectStore>(
        c.sim, w->clusters[0].get(), c.link.get(), SimObjectStoreConfig{},
        &w->metrics));
  } else {
    ClusterConfig pool;
    pool.kind = DiskKind::kSsd;
    pool.num_disks = s.disks_per_shard;
    for (int i = 0; i < s.shards; i++) {
      const std::string prefix = "shard" + std::to_string(i);
      SimDomain* dom = w->engine.group->AddDomain(prefix);
      w->clusters.push_back(std::make_unique<BackendCluster>(
          dom->sim(), pool, &w->metrics, prefix + ".cluster"));
      // Channels are created in (client, shard) order so their ids, the
      // determinism tie-break, depend on the topology only.
      for (int ci = 0; ci < s.clients; ci++) {
        LsvdClient& c = w->clients[static_cast<size_t>(ci)];
        c.stores.push_back(std::make_unique<SimObjectStore>(
            c.sim, w->clusters.back().get(), c.link.get(),
            SimObjectStoreConfig{}, ci == 0 ? &w->metrics : nullptr,
            prefix + ".objstore"));
        const Nanos hop = c.link->half_rtt();
        CrossDomainChannel* c2b = w->engine.group->Connect(c.domain, dom, hop);
        CrossDomainChannel* b2c = w->engine.group->Connect(dom, c.domain, hop);
        c.stores.back()->BindBackendDomain(dom, c2b, b2c);
      }
    }
  }
  for (LsvdClient& c : w->clients) {
    if (o.traced) {
      for (auto& st : c.stores) {
        c.traced_stores.push_back(
            std::make_unique<TracedObjectStore>(c.sim, st.get()));
      }
    }
  }
}

void AddDiskToDigest(Digest* d, LsvdDisk* disk) {
  const LsvdDiskStats st = disk->stats();
  for (const uint64_t v :
       {st.writes, st.write_bytes, st.reads, st.read_bytes, st.flushes,
        st.write_cache_hits, st.read_cache_hits, st.backend_reads,
        st.zero_reads}) {
    d->Add(v);
  }
}

RoundResult RunLsvdRound(Workload wl, uint64_t seed, const RoundOptions& o) {
  const Sizes s = SizesFor(wl, o.scale);
  const LsvdConfig config = VolumeConfig(s);
  RoundResult r;
  Common c;
  Digest digest;

  // --- setup ---
  c.setup_start = HostNowNs();
  LsvdWorld w;
  BuildLsvdWorld(&w, s, o);
  // lsvd_mixed restarts before its load; the others load the created disk.
  const CorruptPhase first_phase =
      s.warmup_ops > 0 ? CorruptPhase::kNone : CorruptPhase::kLoad;
  for (LsvdClient& cl : w.clients) {
    if (wl == Workload::kLsvdMixed) {
      cl.shadow = std::make_unique<Shadow>(s.volume / kBlockSize);
    }
    AttachDisk(&cl, config, o, first_phase);
    cl.disk->Create([&cl](Status st) { cl.opened = st; });
  }
  w.engine.Run();
  std::vector<std::unique_ptr<Issuer>> fillers;
  for (LsvdClient& cl : w.clients) {
    if (!cl.opened.has_value() || !cl.opened->ok()) {
      c.attempted++;
      c.failed++;
    }
    // Zero-filled preconditioning; version 0 of every block.
    fillers.push_back(std::make_unique<Issuer>(cl.sim, Front(&cl), nullptr));
    fillers.back()->Run(MakePreconditionGen(s.volume, 4 * kMiB), UINT64_MAX,
                        16, [] {});
  }
  w.engine.Run();
  for (auto& f : fillers) {
    CountPhase(&c, "precondition", f->TakeStats());
  }
  fillers.clear();
  // The client process dies once writeback is idle and each volume
  // re-attaches. With `cache_lost` the host's cache SSD dies too and the
  // volume re-attaches from the backend alone, on fresh cache regions;
  // otherwise the SSD loses only its volatile cache and the volume recovers
  // its journal and checkpoints from the same regions.
  auto crash_and_reattach = [&](bool cache_lost, CorruptPhase next) {
    std::vector<DiskRegions> regions;
    for (LsvdClient& cl : w.clients) {
      regions.push_back(cl.disk->regions());
      cl.disk->Kill();
      for (auto& st : cl.stores) {
        st->ClientCrash();
      }
      if (!cache_lost) {
        cl.host->ssd()->PowerFail();
      }
    }
    w.engine.Run();
    for (size_t i = 0; i < w.clients.size(); i++) {
      LsvdClient& cl = w.clients[i];
      AttachDisk(&cl, config, o, next,
                 cache_lost ? std::nullopt
                            : std::optional<DiskRegions>(regions[i]));
      cl.opened.reset();
      const Nanos start = cl.sim->now();
      auto opened = [&cl, start](Status st) {
        cl.opened = st;
        cl.open_ns = cl.sim->now() - start;
      };
      if (cache_lost) {
        cl.disk->OpenCacheLost(opened);
      } else {
        cl.disk->OpenAfterCrash(opened);
      }
    }
    w.engine.Run();
    for (LsvdClient& cl : w.clients) {
      if (!cl.opened.has_value() || !cl.opened->ok()) {
        c.attempted++;
        c.failed++;
      }
    }
  };
  if (s.warmup_ops > 0) {
    // Restart from the backend, so the load begins with an empty journal
    // and the volume's data behind the read cache; then warm the cache.
    crash_and_reattach(/*cache_lost=*/true, CorruptPhase::kLoad);
    for (LsvdClient& cl : w.clients) {
      StartPhase(&cl, MakeMixedGen(s.volume, WarmupSeed(seed), true),
                 s.warmup_ops, s.queue_depth, [] {});
    }
    w.engine.Run();
    for (LsvdClient& cl : w.clients) {
      CountPhase(&c, "warm-up", cl.issuer->TakeStats());
    }
  }

  // --- load ---
  std::vector<ClientHost*> hosts;
  std::vector<LsvdDiskStats> disk0;
  std::vector<WriteCacheStats> wc0;
  std::vector<ReadCacheStats> rc0;
  std::vector<BackendStoreStats> be0;
  std::vector<ObjectStoreStats> os0;
  for (LsvdClient& cl : w.clients) {
    hosts.push_back(cl.host.get());
    disk0.push_back(cl.disk->stats());
    wc0.push_back(cl.disk->write_cache().stats());
    rc0.push_back(cl.disk->read_cache().stats());
    be0.push_back(cl.disk->backend().stats());
    for (auto& st : cl.stores) {
      os0.push_back(st->stats());
    }
  }
  const MetricsSnapshot snap0 = w.metrics.Snapshot();
  const uint64_t windows0 = w.engine.group ? w.engine.group->windows() : 0;
  const uint64_t stalls0 = w.engine.group ? w.engine.group->sync_stalls() : 0;
  const uint64_t msgs0 =
      w.engine.group ? w.engine.group->messages_delivered() : 0;
  c.cluster0 = SampleClusters(w.clusters);
  c.ssd0 = SumSsd(hosts);
  c.events0 = w.engine.events();
  c.load_t0 = w.engine.sim.now();

  Tracer::Get().set_on(o.traced);
  c.load_start = HostNowNs();
  for (size_t i = 0; i < w.clients.size(); i++) {
    LsvdClient& cl = w.clients[i];
    StartPhase(&cl, MakeLoadGen(wl, s, LoadSeed(seed, static_cast<int>(i))),
               s.ops, s.queue_depth,
               [&cl] { cl.last_ack_host = HostNowNs(); });
  }
  w.engine.Run();
  c.load_run_end = HostNowNs();
  Tracer::Get().set_on(false);

  c.events1 = w.engine.events();
  c.ssd1 = SumSsd(hosts);
  c.cluster1 = SampleClusters(w.clusters);
  c.load_t1 = w.engine.sim.now();
  const MetricsSnapshot delta = w.metrics.Snapshot().DiffSince(snap0);
  LsvdDiskStats dsum;
  WriteCacheStats wcsum;
  ReadCacheStats rcsum;
  BackendStoreStats besum;
  ObjectStoreStats ossum;
  double utilization = 0;
  for (size_t i = 0; i < w.clients.size(); i++) {
    LsvdClient& cl = w.clients[i];
    c.last_ack_host = std::max(c.last_ack_host, cl.last_ack_host);
    c.load.push_back(cl.issuer->TakeStats());
    CountPhase(&c, "load", c.load.back());
    const LsvdDiskStats d = cl.disk->stats();
    dsum.write_cache_hits += d.write_cache_hits - disk0[i].write_cache_hits;
    dsum.read_cache_hits += d.read_cache_hits - disk0[i].read_cache_hits;
    dsum.backend_reads += d.backend_reads - disk0[i].backend_reads;
    dsum.zero_reads += d.zero_reads - disk0[i].zero_reads;
    const WriteCacheStats wc = cl.disk->write_cache().stats();
    wcsum.records += wc.records - wc0[i].records;
    wcsum.record_bytes += wc.record_bytes - wc0[i].record_bytes;
    wcsum.checkpoints += wc.checkpoints - wc0[i].checkpoints;
    wcsum.stalled_appends += wc.stalled_appends - wc0[i].stalled_appends;
    const ReadCacheStats rc = cl.disk->read_cache().stats();
    rcsum.insertions += rc.insertions - rc0[i].insertions;
    rcsum.evictions += rc.evictions - rc0[i].evictions;
    const BackendStoreStats be = cl.disk->backend().stats();
    besum.objects_put += be.objects_put - be0[i].objects_put;
    besum.object_bytes += be.object_bytes - be0[i].object_bytes;
    besum.client_bytes += be.client_bytes - be0[i].client_bytes;
    besum.gc_bytes_copied += be.gc_bytes_copied - be0[i].gc_bytes_copied;
    besum.gc_objects_cleaned +=
        be.gc_objects_cleaned - be0[i].gc_objects_cleaned;
    utilization += cl.disk->backend().Utilization();
    AddDiskToDigest(&digest, cl.disk.get());
    if (cl.registry == nullptr) {
      digest.Add(cl.disk->metrics().ToJson());
    }
  }
  {
    size_t k = 0;
    for (LsvdClient& cl : w.clients) {
      for (auto& st : cl.stores) {
        const ObjectStoreStats now = st->stats();
        ossum.puts += now.puts - os0[k].puts;
        ossum.gets += now.gets - os0[k].gets;
        k++;
      }
    }
  }

  // --- recover ---
  // lsvd_mixed never wraps its journal, so its client crashes with the
  // cache intact and OpenAfterCrash reads back the journal and checkpoints.
  // The others wrap theirs, where OpenAfterCrash is not yet reliable (see
  // perfbench/README.md), and lose the cache.
  c.incident_host = HostNowNs();
  crash_and_reattach(/*cache_lost=*/wl != Workload::kLsvdMixed,
                     CorruptPhase::kReadBack);
  for (size_t i = 0; i < w.clients.size(); i++) {
    LsvdClient& cl = w.clients[i];
    if (!cl.opened.has_value() || !cl.opened->ok()) {
      continue;
    }
    c.recovery_ns = std::max(c.recovery_ns, cl.open_ns);
    if (cl.shadow != nullptr) {
      StartPhase(&cl, MakeReadBackGen(cl.shadow->written()), UINT64_MAX, 32,
                 [] {});
    } else {
      StartPhase(&cl,
                 MakeSampleReadGen(s.volume, s.readback,
                                   ReadBackSeed(seed, static_cast<int>(i))),
                 s.readback, 32, [] {});
    }
  }
  w.engine.Run();
  c.recovery_end = HostNowNs();
  for (LsvdClient& cl : w.clients) {
    c.readback.push_back(cl.issuer->TakeStats());
    CountPhase(&c, "read-back", c.readback.back());
  }

  FillCommon(c, &r);
  auto& L = r.layer;
  const double writes = static_cast<double>(wcsum.records);
  const double routed = static_cast<double>(
      dsum.write_cache_hits + dsum.read_cache_hits + dsum.backend_reads +
      dsum.zero_reads);
  L["lsvd.write_ack_us.p50"] = delta.Percentile("lsvd.write.ack_us", 0.50);
  L["lsvd.write_ack_us.p99"] = delta.Percentile("lsvd.write.ack_us", 0.99);
  L["lsvd.read_route.write_cache_frac"] =
      Ratio(static_cast<double>(dsum.write_cache_hits), routed);
  L["lsvd.read_route.read_cache_frac"] =
      Ratio(static_cast<double>(dsum.read_cache_hits), routed);
  L["lsvd.read_route.backend_frac"] =
      Ratio(static_cast<double>(dsum.backend_reads), routed);
  L["write_cache.records"] = writes;
  L["write_cache.bytes_per_record"] =
      Ratio(static_cast<double>(wcsum.record_bytes), writes);
  L["write_cache.checkpoints"] = static_cast<double>(wcsum.checkpoints);
  L["write_cache.stalled_appends"] =
      static_cast<double>(wcsum.stalled_appends);
  L["write_cache.append_to_free_us.p99"] =
      delta.Percentile("lsvd.write_cache.append_to_free_us", 0.99);
  L["read_cache.hit_ratio"] =
      Ratio(static_cast<double>(dsum.read_cache_hits),
            static_cast<double>(dsum.read_cache_hits + dsum.backend_reads));
  L["read_cache.insertions"] = static_cast<double>(rcsum.insertions);
  L["read_cache.evictions"] = static_cast<double>(rcsum.evictions);
  L["backend.objects_put"] = static_cast<double>(besum.objects_put);
  L["backend.bytes_per_object"] =
      Ratio(static_cast<double>(besum.object_bytes),
            static_cast<double>(besum.objects_put));
  L["backend.seal_to_commit_us.p99"] =
      delta.Percentile("backend.batch.seal_to_commit_us", 0.99);
  L["backend.gc.bytes_moved_per_client_byte"] =
      Ratio(static_cast<double>(besum.gc_bytes_copied),
            static_cast<double>(besum.client_bytes));
  L["backend.gc.objects_cleaned"] =
      static_cast<double>(besum.gc_objects_cleaned);
  L["backend.utilization"] =
      utilization / static_cast<double>(w.clients.size());
  L["objstore.puts"] = static_cast<double>(ossum.puts);
  L["objstore.gets"] = static_cast<double>(ossum.gets);
  if (w.engine.group != nullptr) {
    const SimDomainGroup& g = *w.engine.group;
    const double windows = static_cast<double>(g.windows() - windows0);
    L["sim_domain.windows"] = windows;
    L["sim_domain.events_per_window"] =
        Ratio(static_cast<double>(r.load_events), windows);
    L["sim_domain.sync_stalls"] =
        static_cast<double>(g.sync_stalls() - stalls0);
    L["sim_domain.messages"] =
        static_cast<double>(g.messages_delivered() - msgs0);
  }
  if (o.traced) {
    std::vector<int64_t> put_ns, get_ns;
    for (LsvdClient& cl : w.clients) {
      for (auto& ts : cl.traced_stores) {
        put_ns.insert(put_ns.end(), ts->puts().latency_ns.begin(),
                      ts->puts().latency_ns.end());
        get_ns.insert(get_ns.end(), ts->gets().latency_ns.begin(),
                      ts->gets().latency_ns.end());
      }
    }
    r.traced["objstore.put_us.p99"] = QuantileUs(put_ns, 0.99);
    r.traced["objstore.get_us.p99"] = QuantileUs(get_ns, 0.99);
    FillSpans(&r);
  }

  // Everything simulated goes into the digest; host times never do.
  digest.Add(w.metrics.Snapshot().ToJson());
  for (const PhaseStats& p : c.load) {
    digest.Add(p);
  }
  for (const PhaseStats& p : c.readback) {
    digest.Add(p);
  }
  for (LsvdClient& cl : w.clients) {
    digest.Add(static_cast<uint64_t>(cl.open_ns));
  }
  digest.Add(c.events1 - c.events0);
  digest.Add(c.cluster1.write_bytes);
  digest.Add(c.cluster1.write_ops);
  digest.Add(static_cast<uint64_t>(c.cluster1.busy));
  r.digest = digest.value();
  return r;
}

// -------------------------------------------------------- bcache + RBD ---

struct BcacheWorld {
  MetricsRegistry metrics;
  Engine engine;
  std::vector<std::unique_ptr<BackendCluster>> clusters;
  std::unique_ptr<ClientHost> host;
  std::unique_ptr<NetLink> link;
  std::unique_ptr<RbdDisk> rbd;
  std::unique_ptr<TracedDisk> traced_rbd;
  std::unique_ptr<BcacheDevice> bcache;
  std::unique_ptr<TracedDisk> traced_bcache;
};

RoundResult RunBcacheRound(uint64_t seed, const RoundOptions& o) {
  const Sizes s = SizesFor(Workload::kBcacheRandwrite, o.scale);
  RoundResult r;
  Common c;
  Digest digest;

  // --- setup ---
  c.setup_start = HostNowNs();
  BcacheWorld w;
  Simulator* sim = &w.engine.sim;
  w.host = std::make_unique<ClientHost>(sim, ClientHostConfig{}, &w.metrics);
  w.clusters.push_back(std::make_unique<BackendCluster>(
      sim, ClusterConfig::SsdPool(), &w.metrics));
  w.link = std::make_unique<NetLink>(sim, NetParams{});
  w.rbd = std::make_unique<RbdDisk>(sim, w.clusters[0].get(), w.link.get(),
                                    s.volume, RbdConfig{}, /*volume_id=*/0,
                                    &w.metrics);
  VirtualDisk* backing = w.rbd.get();
  if (o.traced) {
    w.traced_rbd = std::make_unique<TracedDisk>(sim, backing, SpanName::kRbd,
                                                SpanName::kRbd);
    backing = w.traced_rbd.get();
  }
  const uint64_t cache = s.write_cache + s.read_cache;
  auto region = w.host->AllocRegion(cache);
  if (!region.ok()) {
    r.attempted = r.failed = 1;
    return r;
  }
  w.bcache = std::make_unique<BcacheDevice>(w.host.get(), backing, *region,
                                            cache, BcacheConfig{},
                                            &w.metrics);
  VirtualDisk* front = w.bcache.get();
  if (o.traced) {
    w.traced_bcache = std::make_unique<TracedDisk>(
        sim, front, SpanName::kBcacheWrite, SpanName::kBcacheRead);
    front = w.traced_bcache.get();
  }
  Issuer issuer(sim, front, nullptr);
  issuer.Run(MakePreconditionGen(s.volume, 4 * kMiB), UINT64_MAX, 16, [] {});
  w.engine.Run();
  CountPhase(&c, "precondition", issuer.TakeStats());

  // --- load ---
  const BcacheStats b0 = w.bcache->stats();
  c.cluster0 = SampleClusters(w.clusters);
  c.ssd0 = SumSsd({w.host.get()});
  c.events0 = w.engine.events();
  c.load_t0 = sim->now();
  uint64_t dirty_at_end = 0;
  Nanos writeback_ns = 0;

  Tracer::Get().set_on(o.traced);
  c.load_start = HostNowNs();
  issuer.Run(MakeLoadGen(Workload::kBcacheRandwrite, s, LoadSeed(seed, 0)),
             s.ops, s.queue_depth, [&] {
    c.last_ack_host = HostNowNs();
    c.incident_host = c.last_ack_host;
    dirty_at_end = w.bcache->dirty_bytes();
    // End-of-load incident: write every dirty block back to RBD, the only
    // state in which bcache+RBD survives losing the client's cache.
    sim->After(0, [&] {
      const Nanos start = sim->now();
      w.bcache->WritebackAll([&, start] { writeback_ns = sim->now() - start; });
    });
  });
  w.engine.Run();
  c.load_run_end = HostNowNs();
  Tracer::Get().set_on(false);

  c.events1 = w.engine.events();
  c.ssd1 = SumSsd({w.host.get()});
  c.cluster1 = SampleClusters(w.clusters);
  c.load_t1 = sim->now();
  c.recovery_ns = writeback_ns;
  c.load.push_back(issuer.TakeStats());
  CountPhase(&c, "load", c.load.back());
  const BcacheStats b1 = w.bcache->stats();

  // --- recover: the cache is gone; read the RBD image itself ---
  w.bcache->Kill();
  Issuer reader(sim, backing, nullptr);
  reader.Run(MakeSampleReadGen(s.volume, s.readback, ReadBackSeed(seed, 0)),
             s.readback, 32, [] {});
  w.engine.Run();
  c.recovery_end = HostNowNs();
  c.readback.push_back(reader.TakeStats());
  CountPhase(&c, "read-back", c.readback.back());

  FillCommon(c, &r);
  auto& L = r.layer;
  L["baseline.bcache.writeback_ops"] =
      static_cast<double>(b1.writeback_ops - b0.writeback_ops);
  L["baseline.bcache.journal_writes"] =
      static_cast<double>(b1.journal_writes - b0.journal_writes);
  L["baseline.bcache.dirty_bytes"] = static_cast<double>(dirty_at_end);
  if (o.traced) {
    r.traced["baseline.rbd.calls"] =
        static_cast<double>(w.traced_rbd->calls().calls);
    r.traced["baseline.rbd.us.p99"] =
        QuantileUs(w.traced_rbd->calls().latency_ns, 0.99);
    FillSpans(&r);
  }

  digest.Add(w.metrics.Snapshot().ToJson());
  for (const PhaseStats& p : c.load) {
    digest.Add(p);
  }
  for (const PhaseStats& p : c.readback) {
    digest.Add(p);
  }
  digest.Add(static_cast<uint64_t>(writeback_ns));
  digest.Add(dirty_at_end);
  digest.Add(c.events1 - c.events0);
  r.digest = digest.value();
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "lsvd_randwrite", "lsvd_mixed", "bcache_randwrite", "sharded_scaleout"};
  return names;
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  for (size_t i = 0; i < names.size(); i++) {
    if (names[i] == name) {
      return static_cast<Workload>(i);
    }
  }
  return std::nullopt;
}

RoundResult RunRound(Workload workload, uint64_t seed,
                     const RoundOptions& options) {
  Tracer::Get().Clear();
  if (workload == Workload::kBcacheRandwrite) {
    return RunBcacheRound(seed, options);
  }
  return RunLsvdRound(workload, seed, options);
}

}  // namespace perfbench
