// Simulated S3-compatible object store (Ceph RADOS Gateway stand-in).
//
// Functionally a key->Buffer map; every operation is charged realistic time
// against the client NIC (NetLink) and the backend disk pool
// (BackendCluster). Two placement policies:
//
//  - kErasure42 (paper's LSVD configuration): each 4 MiB RADOS-style stripe
//    of a PUT becomes 4 data + 2 parity chunk writes of stripe/4 bytes each,
//    plus a batch of small journal/metadata writes — reproducing the ~1 MiB
//    backend write clustering and the small-write tail in Figure 14.
//  - kReplicated3: three whole-stripe copies (used for ablations).
//
// An object becomes visible when all its backend writes complete, so
// concurrent PUTs commit out of order under backend congestion — exactly the
// "stranded object" scenario LSVD's prefix recovery handles (§3.3).
// ClientCrash() drops unacknowledged completions and abandons PUTs that have
// not yet reached the backend.
#ifndef SRC_OBJSTORE_SIM_OBJECT_STORE_H_
#define SRC_OBJSTORE_SIM_OBJECT_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/objstore/object_store.h"
#include "src/sim/cluster.h"
#include "src/sim/net_link.h"
#include "src/sim/simulator.h"
#include "src/util/metrics.h"
#include "src/util/slab.h"

namespace lsvd {

struct SimObjectStoreConfig {
  enum class Placement { kErasure42, kReplicated3 };
  Placement placement = Placement::kErasure42;
  uint64_t stripe_size = 4 * kMiB;
  // Ceph issues ~64 writes per 4 MiB object (paper §4.5): 6 chunk writes for
  // the 4,2 code plus ~58 small journal/metadata writes, charged as WAL
  // appends on the chunk disks. This is what yields the paper's 0.25 backend
  // ops per client op in the 16 KiB load test (Figure 13).
  uint32_t metadata_writes_per_stripe = 58;
  uint32_t metadata_write_size = 4 * kKiB;
  // Per-request gateway (RGW) software overhead: the paper measures an S3
  // range GET at ~5.9 ms end to end (Table 6).
  Nanos get_overhead = 3500 * kMicrosecond;
  Nanos put_overhead = 2 * kMillisecond;
};

struct ObjectStoreStats {
  uint64_t puts = 0;
  uint64_t put_bytes = 0;
  uint64_t gets = 0;
  uint64_t get_bytes = 0;
  uint64_t deletes = 0;
};

class CrossDomainChannel;
class SimDomain;

// The durable object namespace of one backend shard. By default every
// SimObjectStore owns a private bucket (the historical single-host
// behavior); a fleet (src/fleet) builds one bucket per shard and hands the
// same bucket to every host's store view, so objects PUT through host A's
// view are visible to host B's — the property live migration, failover
// recover-attach and cross-host clone fan-out all rest on. A bucket must
// only be shared between stores whose client sides run on one simulator
// (one SimDomain): the map is mutated from client event context, so
// cross-domain sharing would be a data race (DESIGN.md §15).
struct ObjectBucket {
  std::map<std::string, Buffer> objects;
};

class SimObjectStore : public ObjectStore {
 public:
  // `bucket` null keeps a privately owned namespace; non-null shares the
  // caller's (which must outlive the store).
  SimObjectStore(Simulator* sim, BackendCluster* cluster, NetLink* link,
                 SimObjectStoreConfig config,
                 MetricsRegistry* metrics = nullptr,
                 const std::string& prefix = "objstore",
                 ObjectBucket* bucket = nullptr);

  // Parallel engine (DESIGN.md §14): runs this store's backend half — the
  // BackendCluster disk/WAL work and the gateway overheads — on `backend`'s
  // simulator, with the two channels carrying the request and response hops.
  // The cluster passed at construction must have been built on `backend`'s
  // simulator. Client-side state (the object map, epoch, counters, NetLink
  // queues, pending completions) stays on the constructing simulator.
  // Without this call the store runs entirely on `sim` — byte-identical to
  // the pre-parallel engine.
  void BindBackendDomain(SimDomain* backend, CrossDomainChannel* to_backend,
                         CrossDomainChannel* to_client);

  void Put(const std::string& name, Buffer data, PutCallback done) override;
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override;
  void Delete(const std::string& name, PutCallback done) override;
  std::vector<std::string> List(const std::string& prefix) const override;
  Result<uint64_t> Head(const std::string& name) const override;

  // Client process crash: in-flight client-side work is abandoned; PUTs whose
  // data already reached the backend still commit (the backend is remote and
  // unaffected).
  void ClientCrash() { epoch_++; }

  ObjectStoreStats stats() const;
  ObjectBucket* bucket() { return bucket_; }
  // GETs whose answer has been neither delivered nor dropped by a crash.
  size_t gets_in_flight() const { return pending_reads_.live(); }

 private:
  // Issues the stripe/metadata disk writes for an object of `size` bytes.
  // Runs on the backend simulator (== sim_ unless a domain is bound); only
  // the object name and size cross the domain boundary, never the Buffer.
  void BackendWrites(const std::string& name, uint64_t size,
                     std::function<void()> all_done);
  // Charges the network and disk time of the GET in pending_reads_[slot],
  // `bytes` long, then answers it.
  void ReadTiming(uint32_t slot, uint64_t bytes);
  // Domain-split twins of the Put / ReadTiming bodies (see .cc).
  void PutViaDomain(const std::string& name, Buffer data, PutCallback done);
  void ReadViaDomain(uint32_t slot, uint64_t bytes);
  // Runs the GET's callback with its bytes and frees its slot.
  void Answer(uint32_t slot);
  uint64_t Allocate(int disk, uint32_t len);
  static uint64_t NameHash(const std::string& name, uint64_t salt);

  Simulator* sim_;
  BackendCluster* cluster_;
  NetLink* link_;
  SimObjectStoreConfig config_;
  std::unique_ptr<ObjectBucket> owned_bucket_;
  ObjectBucket* bucket_;
  std::vector<uint64_t> alloc_head_;  // per-disk data-region bump allocator
  uint64_t epoch_ = 0;

  // A GET between its call and its answer: the caller's callback, the bytes
  // it will get and the client epoch it was sent in. Its events, on the
  // sequential and the domain path alike, capture only the slot, so only
  // the slot number crosses a domain boundary; the slab is touched on the
  // client side alone.
  struct PendingRead {
    GetCallback done;
    Buffer data;
    uint64_t epoch = 0;
  };
  Slab<PendingRead, 256> pending_reads_;

  // Parallel-engine state. backend_sim_ aliases sim_ until BindBackendDomain
  // splits the store; the pending-PUT map keeps Buffers and completion
  // closures on the client side, keyed by a cookie that crosses the boundary
  // instead.
  Simulator* backend_sim_;
  CrossDomainChannel* to_backend_ = nullptr;
  CrossDomainChannel* to_client_ = nullptr;
  uint64_t next_cookie_ = 0;
  struct PendingPut {
    std::string name;
    Buffer data;
    PutCallback done;
    uint64_t epoch;
  };
  std::map<uint64_t, PendingPut> pending_puts_;

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_puts_;
  Counter* c_put_bytes_;
  Counter* c_gets_;
  Counter* c_get_bytes_;
  Counter* c_deletes_;
};

}  // namespace lsvd

#endif  // SRC_OBJSTORE_SIM_OBJECT_STORE_H_
