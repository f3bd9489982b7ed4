// Backend object formats and naming (paper Figures 3-4, §3.3).
//
// Data objects:  "<volume>.d.<seq>" — a 4 KiB-aligned header listing the
// virtual-disk extents contained, followed by the batched write data. The
// header lets the in-memory object map be rebuilt by replaying objects in
// sequence order, and lets the garbage collector find an object's
// at-creation extent list without reading its data.
//
// Checkpoint objects: "<volume>.c.<seq>" — a serialized snapshot of the
// object map, the GC object-info table, deferred deletes and snapshots,
// valid through data object <seq>. Recovery loads the newest checkpoint and
// replays data objects with seq greater than it.
#ifndef SRC_LSVD_OBJECT_FORMAT_H_
#define SRC_LSVD_OBJECT_FORMAT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/lsvd/extent_map.h"
#include "src/util/buffer.h"
#include "src/util/status.h"

namespace lsvd {

struct ObjectExtent {
  uint64_t vlba = 0;
  uint64_t len = 0;
  // Garbage-collected extents are applied to the object map *conditionally*:
  // only where the map still points at `expected` (the location the data was
  // copied from). This keeps a concurrent newer write from being clobbered,
  // both live and during recovery replay. Client-write extents have no
  // expectation (expected_seq == 0) and apply unconditionally.
  uint64_t expected_seq = 0;
  uint64_t expected_offset = 0;
  // TRIM tombstone: the extent punches [vlba, vlba+len) out of the object map
  // instead of mapping it, and contributes no payload bytes. Encoded in the
  // top bit of the extent's length word.
  bool is_trim = false;

  bool conditional() const { return expected_seq != 0; }
};

struct DataObjectHeader {
  uint64_t seq = 0;
  // Byte offset where data begins (header size, 4 KiB aligned).
  uint64_t data_offset = 0;
  // GC generation (docs/GC.md): 0 for fresh client data, 1 + max victim
  // generation for GC-copied data.
  uint32_t generation = 0;
  std::vector<ObjectExtent> extents;
};

// --- naming ---
std::string DataObjectName(const std::string& volume, uint64_t seq);
std::string CheckpointObjectName(const std::string& volume, uint64_t seq);
std::string DataObjectPrefix(const std::string& volume);
std::string CheckpointPrefix(const std::string& volume);
// Parses the sequence number out of a data/checkpoint object name for the
// given volume; nullopt if the name does not match.
std::optional<uint64_t> ParseDataObjectSeq(const std::string& volume,
                                           const std::string& name);
std::optional<uint64_t> ParseCheckpointSeq(const std::string& volume,
                                           const std::string& name);

// --- data objects ---
// Serializes header + data. Header is padded to a 4 KiB boundary.
Buffer EncodeDataObject(const DataObjectHeader& header, const Buffer& data);
// Parses and CRC-checks a header from the first bytes of an object.
Status DecodeDataObjectHeader(const Buffer& object_prefix,
                              DataObjectHeader* header);
// Size in bytes the encoded header will occupy for this many extents.
uint64_t DataObjectHeaderSize(size_t extent_count);
// Sum of the data-bearing (non-trim) extent lengths: the payload size an
// encoded object with this header must carry after data_offset.
uint64_t DataObjectPayloadBytes(const DataObjectHeader& header);

// --- checkpoint objects ---
struct ObjectInfo {
  uint64_t total_bytes = 0;  // data payload bytes at creation
  uint64_t live_bytes = 0;   // still-referenced payload bytes
};

struct DeferredDelete {
  uint64_t seq = 0;     // object that was garbage collected (N0)
  uint64_t gc_head = 0; // newest object seq at collection time (Ngc)
};

struct CheckpointState {
  uint64_t through_seq = 0;  // map reflects data objects <= this seq
  uint64_t next_seq = 0;     // next object sequence number to allocate
  std::vector<ExtentMap<ObjTarget>::Extent> object_map;
  std::map<uint64_t, ObjectInfo> object_info;
  std::vector<DeferredDelete> deferred_deletes;
  std::vector<uint64_t> snapshots;  // object seqs pinned by snapshots
  // Number of backend shards the volume's object stream is striped across
  // (1 when unsharded).
  uint32_t shard_count = 1;
  // Consistency vector, one entry per shard: the highest sequence number on
  // that shard that is part of the globally contiguous prefix
  // 1..through_seq, i.e. ConsistencyVector(through_seq, shard_count) below.
  // The decoder rejects any other vector, so a checkpoint whose stripe
  // width or prefix fields disagree is never trusted (DESIGN.md §9).
  std::vector<uint64_t> shard_consistent;
  // Non-zero GC generations by object seq. Objects at or below through_seq
  // are recovered from the checkpoint alone (their headers are never
  // re-read), so generation-aware victim scoring needs the tags here.
  std::map<uint64_t, uint32_t> generations;
};

Buffer EncodeCheckpoint(const CheckpointState& state);
Status DecodeCheckpoint(const Buffer& object, CheckpointState* state);

// --- sharding helpers ---
// Round-robin stripe placement: data object `seq` (1-based) lives on shard
// (seq - 1) % shard_count. Checkpoints always live on shard 0.
size_t ShardForSeq(uint64_t seq, size_t shard_count);
// The consistency vector implied by a contiguous global prefix 1..through:
// entry i is the highest seq s <= through with ShardForSeq(s) == i (0 when
// the prefix has no object on that shard yet).
std::vector<uint64_t> ConsistencyVector(uint64_t through, size_t shard_count);

}  // namespace lsvd

#endif  // SRC_LSVD_OBJECT_FORMAT_H_
