// Asynchronous volume replication (paper §4.8).
//
// Because the backend log is a stream of immutable named objects, a volume
// replicates by lazily copying objects from the primary store to a replica
// store. Objects are copied once they are older than `min_age` (first seen
// at least that long ago); objects garbage-collected before they age in are
// simply never copied — the paper's experiment shows ~18 GB of 103 GB
// avoided this way. The replica may receive objects out of order; mounting
// it uses the standard recovery prefix rule, which the paper found
// sufficient to produce a consistent disk.
#ifndef SRC_LSVD_REPLICATOR_H_
#define SRC_LSVD_REPLICATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/objstore/object_store.h"
#include "src/objstore/retry.h"
#include "src/sim/simulator.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace lsvd {

struct ReplicatorConfig {
  std::string volume_name = "vol";
  Nanos min_age = 60 * kSecond;        // copy objects older than this
  Nanos poll_interval = 5 * kSecond;
  // Retry rules for each copy's primary GET and replica PUT (separate
  // budgets, no per-attempt timeout; src/objstore/retry.h). A copy whose
  // budget runs out is retried from scratch on a later poll.
  RetryPolicy retry{.seed = 0x5EED};
};

struct ReplicatorStats {
  uint64_t objects_copied = 0;
  uint64_t bytes_copied = 0;
  uint64_t objects_skipped_deleted = 0;  // GC won the race
  uint64_t retries = 0;
  uint64_t copy_failures = 0;  // copies that exhausted their retry budget
};

class Replicator {
 public:
  Replicator(Simulator* sim, ObjectStore* primary, ObjectStore* replica,
             ReplicatorConfig config, MetricsRegistry* metrics = nullptr,
             const std::string& prefix = "replicator");
  // Sharded volume (DESIGN.md §9): each shard's object stream is copied
  // independently from primaries[i] to replicas[i]. The vectors must have
  // equal, non-zero length matching the volume's stripe width.
  Replicator(Simulator* sim, std::vector<ObjectStore*> primaries,
             std::vector<ObjectStore*> replicas, ReplicatorConfig config,
             MetricsRegistry* metrics = nullptr,
             const std::string& prefix = "replicator");
  ~Replicator() { Stop(); }

  // Starts periodic polling; call Stop() to let the simulator drain.
  void Start();
  void Stop() { *alive_ = false; }

  // One scan-and-copy round; `done` fires when every copy it started
  // finished. Usable directly for deterministic tests.
  void PollOnce(std::function<void()> done);

  // The replica cluster's consistency point: the highest data-object seq S
  // such that every object 1..S is present on its assigned replica shard.
  // Mounting the replica with the prefix rule yields the image through S, so
  // this is the min consistency point across the shard streams.
  uint64_t ConsistencyPoint() const;

  size_t shard_count() const { return shards_.size(); }
  ReplicatorStats stats() const;

 private:
  // Per-shard copy stream: its store pair plus the first-seen/copied
  // tracking, which must be shard-local because shards share one namespace.
  struct ShardStream {
    ObjectStore* primary = nullptr;
    ObjectStore* replica = nullptr;
    // Retried GETs from the primary and PUTs to the replica; requests refer
    // to these, and Start() rebinds their `alive`.
    RetryContext get;
    RetryContext put;
    std::map<std::string, Nanos> first_seen;
    std::set<std::string> copied;
  };

  void ScheduleNext();
  // One object's GET-then-PUT with per-stage retries; calls `done` exactly
  // once unless Stop() or Start() cancels it.
  void CopyObject(size_t shard, const std::string& name,
                  std::function<void()> done);

  Simulator* sim_;
  std::vector<ShardStream> shards_;
  ReplicatorConfig config_;
  Rng retry_rng_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_objects_copied_;
  Counter* c_bytes_copied_;
  Counter* c_objects_skipped_deleted_;
  Counter* c_retries_;
  Counter* c_copy_failures_;
  // Object creation (first seen by the poller) -> copy committed to the
  // replica; bounded below by min_age.
  Histogram* h_copy_lag_us_;
  // Last member: destroyed first, so gauge callbacks never outlive the state
  // they read (the shared host registry outlives detached volumes).
  CallbackGuard callback_guard_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_REPLICATOR_H_
