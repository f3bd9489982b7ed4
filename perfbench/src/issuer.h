// Closed-loop op issuer with an optional stamped-payload shadow verifier.
//
// The issuer keeps `queue_depth` ops outstanding against one VirtualDisk,
// pulling each next op from a src/workload generator, and records every
// op's virtual-time latency. Every read result is checked:
//
//  - Without a Shadow, payloads are zero runs (what every repo bench
//    writes) and a read must return all zeros.
//  - With a Shadow, write `v` of block `b` carries the stamp (b, v) in its
//    first 16 bytes and zeros after; version 0 is the all-zero block. A
//    read of `b` must return the newest version acknowledged before the read
//    was issued, or a later version of `b` that was issued before the read
//    completed. After a client crash the same rule, applied to a read-back,
//    is the paper's guarantee that acknowledged writes survive.
//
// Errors and mismatches are counted, never fatal, so a run reports them.
#ifndef PERFBENCH_ISSUER_H_
#define PERFBENCH_ISSUER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/blockdev/virtual_disk.h"
#include "src/sim/simulator.h"
#include "src/workload/driver.h"

namespace perfbench {

// Per-block version bookkeeping for stamped payloads.
class Shadow {
 public:
  explicit Shadow(uint64_t blocks) : acked_(blocks, 0), issued_(blocks, 0) {
    version_block_.push_back(0);  // version 0: the all-zero block
  }

  // Allocates the next version for a write of `block`.
  uint64_t Issue(uint64_t block);
  void Ack(uint64_t block, uint64_t version);
  uint64_t acked(uint64_t block) const { return acked_[block]; }
  // True if `data` (one block) may be read from `block` by a read that was
  // issued when `floor` was the block's newest acknowledged version.
  bool Check(uint64_t block, uint64_t floor, const lsvd::Buffer& data) const;
  // Every block written at least once, in first-write order.
  const std::vector<uint64_t>& written() const { return written_; }

 private:
  std::vector<uint64_t> acked_;
  std::vector<uint64_t> issued_;
  std::vector<uint64_t> version_block_;  // version -> block
  std::vector<uint64_t> written_;
};

lsvd::Buffer StampedBlock(uint64_t block, uint64_t version);

struct PhaseStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_written = 0;
  uint64_t errors = 0;      // ops completed with a non-OK status
  uint64_t mismatches = 0;  // reads that returned the wrong data
  std::vector<int64_t> write_ns;
  std::vector<int64_t> read_ns;
  lsvd::Nanos first_issue = -1;
  lsvd::Nanos last_done = 0;

  uint64_t ops() const { return reads + writes + errors; }
};

class Issuer {
 public:
  Issuer(lsvd::Simulator* sim, lsvd::VirtualDisk* disk, Shadow* shadow)
      : sim_(sim), disk_(disk), shadow_(shadow) {}
  Issuer(const Issuer&) = delete;
  Issuer& operator=(const Issuer&) = delete;

  // Issues up to `max_ops` ops from `gen` with `queue_depth` outstanding;
  // `done` fires in event context when the last one completes.
  void Run(lsvd::WorkloadGen gen, uint64_t max_ops, int queue_depth,
           std::function<void()> done);

  // Returns the current phase's statistics and starts a fresh phase.
  PhaseStats TakeStats();

 private:
  void IssueNext();
  void Complete();
  void Finish();
  void CheckRead(uint64_t offset, const lsvd::Buffer& data,
                 const std::vector<uint64_t>& floors);

  lsvd::Simulator* sim_;
  lsvd::VirtualDisk* disk_;
  Shadow* shadow_;
  lsvd::WorkloadGen gen_;
  uint64_t remaining_ = 0;
  int outstanding_ = 0;
  std::function<void()> done_;
  PhaseStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ISSUER_H_
