// The benchmark's four workloads. One round of a workload builds a fresh
// simulated world, runs three phases and reports what it measured:
//
//   setup    build the world, create the volumes, precondition them with
//            zeros (4 MiB sequential writes, QD16) and, for lsvd_mixed,
//            warm the caches; run the engine until it is idle.
//   load     the workload's closed-loop op stream. When the last op of a
//            bcache volume completes, bcache is forced to write every
//            dirty block back to RBD (the only way its image survives losing
//            the cache). The engine then runs until it is idle.
//   recover  The LSVD client process dies. lsvd_mixed's cache SSD survives
//            and the volume recovers with OpenAfterCrash; the other LSVD
//            workloads lose the SSD and re-attach with OpenCacheLost on
//            fresh cache regions. Then every volume is read back and checked
//            (lsvd_mixed: every block it wrote, against the shadow model; the
//            others: a seeded sample of 4 KiB blocks, which must read as
//            zeros).
//
// Every virtual-time result depends only on the workload and the seed; the
// round folds them all into a digest so that rounds can be compared exactly.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload {
  kLsvdRandwrite,
  kLsvdMixed,
  kBcacheRandwrite,
  kShardedScaleout,
};

std::optional<Workload> ParseWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

// Which LSVD disk of a round a self-test corrupts: the one that serves the
// load (and lsvd_mixed's warm-up), whose reads must be zeros, or the one
// re-attached after the crash, whose read-back checks the stamps.
enum class CorruptPhase { kNone, kLoad, kReadBack };

struct RoundOptions {
  bool traced = false;  // decorators and spans on (forces one thread)
  int threads = 1;      // parallel-engine workers (sharded_scaleout only)
  double scale = 1.0;   // multiplies op counts and volume sizes (self-tests)
  // Self-test: damage this many-th read of `corrupt_phase`'s disk (0 =
  // never); load reads get a flipped byte, read-back reads come back as
  // zeros, like a lost acknowledged write.
  uint64_t corrupt_nth_read = 0;
  CorruptPhase corrupt_phase = CorruptPhase::kNone;
};

struct RoundResult {
  // Host seconds.
  double setup_s = 0;
  double load_s = 0;      // first issue -> last client op completed
  double load_run_s = 0;  // the whole load-phase engine run
  double recovery_s = 0;  // post-load engine tail + re-open + read-back
  uint64_t load_ops = 0;
  uint64_t load_events = 0;
  uint64_t attempted = 0;  // every client op of the round
  uint64_t failed = 0;     // errors plus mismatched reads
  uint64_t readback_failed = 0;  // those of the post-recovery read-back
  uint64_t digest = 0;
  // Virtual-time end-to-end metrics (deterministic per seed).
  std::map<std::string, double> sim;
  // Per-layer counts and virtual times (deterministic per seed).
  std::map<std::string, double> layer;
  // Per-layer values only traced rounds measure: span self-times (host
  // seconds) and the decorators' call counts and latencies.
  std::map<std::string, double> traced;
};

RoundResult RunRound(Workload workload, uint64_t seed,
                     const RoundOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
