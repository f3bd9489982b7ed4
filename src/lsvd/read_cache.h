// Block-granular read cache (paper §3.1).
//
// Most of the SSD is devoted to this cache. It stores fixed-size lines
// (default 64 KiB) allocated FIFO, holding data fetched from the backend.
// Its map is memory-efficient (line granularity) and its loss is harmless —
// the map is only persisted opportunistically to avoid cold-start refetches.
//
// Write-after-read hazards are handled by LSVD's read path ordering (write
// cache is consulted first) plus explicit invalidation on every client write,
// so a line never shadows newer data after the write cache evicts.
#ifndef SRC_LSVD_READ_CACHE_H_
#define SRC_LSVD_READ_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/lsvd/client_host.h"
#include "src/lsvd/extent_map.h"
#include "src/util/metrics.h"

namespace lsvd {

// View over the read cache's registry counters (see docs/METRICS.md,
// "lsvd.read_cache.*").
struct ReadCacheStats {
  uint64_t insertions = 0;
  uint64_t inserted_bytes = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t fill_failures = 0;  // slot fills whose SSD write failed
};

class ReadCache {
 public:
  ReadCache(ClientHost* host, uint64_t base, uint64_t size,
            uint64_t line_size, MetricsRegistry* metrics = nullptr,
            const std::string& prefix = "lsvd.read_cache");

  const ExtentMap<SsdTarget>& map() const { return map_; }

  // Reads cached data by device offset (target of a map lookup). `done`
  // goes to the SSD as it is and runs even after Kill: its caller, LsvdDisk,
  // gates it on its own liveness and kills all its components together.
  void ReadData(uint64_t plba, uint64_t len, BlockDevice::ReadCallback done);

  // Caches backend data covering [vlba, vlba + data.size()). Fire-and-forget:
  // the SSD writes complete in the background, and a line becomes visible in
  // the map only once its fill write is acknowledged — a slot whose fill
  // failed (or that was invalidated/recycled mid-flight) is never mapped.
  void Insert(uint64_t vlba, const Buffer& data);

  // Drops any cached lines overlapping [vlba, vlba+len); called on every
  // client write to prevent stale reads.
  void Invalidate(uint64_t vlba, uint64_t len);

  // Opportunistically persists / restores the line map (§3.2: "the read
  // cache map is periodically persisted to SSD").
  void PersistMap(std::function<void(Status)> done);
  void LoadMap(std::function<void(Status)> done);

  // Drops every pending callback but ReadData's (crash simulation).
  void Kill() { *alive_ = false; }

  uint64_t line_size() const { return line_size_; }
  uint64_t num_lines() const { return num_lines_; }
  ReadCacheStats stats() const;

 private:
  struct Slot {
    uint64_t vlba = 0;
    uint64_t len = 0;  // 0 = empty
    // Fill generation: the completion callback installs the map entry only
    // if the slot was not recycled (FIFO wrap) while the write was in
    // flight. Monotonic, never reused.
    uint64_t gen = 0;
  };
  // An in-flight slot fill, identified by its generation; Invalidate marks
  // overlapping fills so their completion does not install a mapping that a
  // newer client write superseded. Kept in a side list (not per-slot scans):
  // the slot array can be millions of lines, in-flight fills are at most a
  // handful.
  struct PendingFill {
    uint64_t vlba = 0;
    uint64_t len = 0;
    uint64_t gen = 0;
    bool invalidated = false;
  };

  uint64_t SlotOffset(uint64_t slot) const {
    return lines_base_ + slot * line_size_;
  }
  void EvictSlot(uint64_t slot);

  ClientHost* host_;
  SimSsd* ssd_;
  uint64_t base_;
  uint64_t size_;
  uint64_t line_size_;
  uint64_t map_area_;    // bytes reserved for map persistence
  uint64_t lines_base_;
  uint64_t num_lines_;
  uint64_t next_slot_ = 0;  // FIFO allocation cursor

  ExtentMap<SsdTarget> map_;
  std::vector<Slot> slots_;
  uint64_t fill_gen_ = 0;
  std::vector<PendingFill> pending_fills_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_insertions_;
  Counter* c_inserted_bytes_;
  Counter* c_evictions_;
  Counter* c_invalidations_;
  Counter* c_fill_failures_;
  // Last member: destroyed first, so gauge callbacks never outlive the state
  // they read (the shared host registry outlives detached volumes).
  CallbackGuard callback_guard_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_READ_CACHE_H_
