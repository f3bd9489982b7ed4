#include "src/lsvd/object_format.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "src/util/codec.h"
#include "src/util/crc32c.h"
#include "src/util/units.h"

namespace lsvd {
namespace {

constexpr uint32_t kDataMagic = 0x4C53564F;   // "LSVO"
constexpr uint32_t kCkptMagic = 0x4C53564B;   // "LSVK"
// The one layout each decoder accepts. The numbers are past those of the
// superseded layouts, so stale bytes fail the version check, not the CRC.
constexpr uint32_t kDataVersion = 4;
constexpr uint32_t kCkptVersion = 4;
// A data-object extent's length word carries the trim-tombstone flag in its
// top bit; extent lengths never come near 2^63.
constexpr uint64_t kExtentTrimBit = uint64_t{1} << 63;
// Fixed-size checkpoint entries, for bounding counts against the blob size:
// map extent, object info, deferred delete, snapshot, consistency-vector
// entry, generation.
constexpr uint64_t kCkptMapEntry = 32;
constexpr uint64_t kCkptInfoEntry = 24;
constexpr uint64_t kCkptDeferEntry = 16;
constexpr uint64_t kCkptU64Entry = 8;
constexpr uint64_t kCkptGenEntry = 12;
constexpr uint64_t kHeaderAlign = 4 * kKiB;
// Largest data-object header the decoder accepts.
constexpr uint64_t kMaxHeaderBytes = 256 * kKiB;

std::string FormatSeq(uint64_t seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::optional<uint64_t> ParseSeqSuffix(const std::string& prefix,
                                       const std::string& name) {
  if (name.size() != prefix.size() + 12 ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = prefix.size(); i < name.size(); i++) {
    const char c = name[i];
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

}  // namespace

std::string DataObjectPrefix(const std::string& volume) {
  return volume + ".d.";
}

std::string CheckpointPrefix(const std::string& volume) {
  return volume + ".c.";
}

std::string DataObjectName(const std::string& volume, uint64_t seq) {
  return DataObjectPrefix(volume) + FormatSeq(seq);
}

std::string CheckpointObjectName(const std::string& volume, uint64_t seq) {
  return CheckpointPrefix(volume) + FormatSeq(seq);
}

std::optional<uint64_t> ParseDataObjectSeq(const std::string& volume,
                                           const std::string& name) {
  return ParseSeqSuffix(DataObjectPrefix(volume), name);
}

std::optional<uint64_t> ParseCheckpointSeq(const std::string& volume,
                                           const std::string& name) {
  return ParseSeqSuffix(CheckpointPrefix(volume), name);
}

namespace {

// Encoded header bytes before the padding. Fixed fields: magic, version,
// seq, data_offset, extent count, generation, crc; then 32 bytes per extent.
uint64_t EncodedHeaderBytes(size_t extent_count) {
  return 4 + 4 + 8 + 8 + 4 + 4 + 4 + 32 * uint64_t{extent_count};
}

}  // namespace

uint64_t DataObjectHeaderSize(size_t extent_count) {
  const uint64_t raw = EncodedHeaderBytes(extent_count);
  return (raw + kHeaderAlign - 1) / kHeaderAlign * kHeaderAlign;
}

uint64_t DataObjectPayloadBytes(const DataObjectHeader& header) {
  uint64_t sum = 0;
  for (const auto& e : header.extents) {
    if (!e.is_trim) {
      sum += e.len;
    }
  }
  return sum;
}

Buffer EncodeDataObject(const DataObjectHeader& header, const Buffer& data) {
  const size_t encoded = EncodedHeaderBytes(header.extents.size());
  Encoder enc;
  enc.Reserve(encoded);
  enc.PutU32(kDataMagic);
  enc.PutU32(kDataVersion);
  enc.PutU64(header.seq);
  const uint64_t data_offset = DataObjectHeaderSize(header.extents.size());
  enc.PutU64(data_offset);
  enc.PutU32(static_cast<uint32_t>(header.extents.size()));
  enc.PutU32(header.generation);
  const size_t crc_pos = enc.size();
  enc.PutU32(0);
  uint64_t sum = 0;
  for (const auto& e : header.extents) {
    assert(e.len < kExtentTrimBit);
    enc.PutU64(e.vlba);
    enc.PutU64(e.is_trim ? e.len | kExtentTrimBit : e.len);
    enc.PutU64(e.expected_seq);
    enc.PutU64(e.expected_offset);
    if (!e.is_trim) {
      sum += e.len;
    }
  }
  assert(sum == data.size());
  // The CRC covers the header padded to kHeaderAlign; the padding stays a
  // symbolic zero run, folded into the CRC without being written.
  assert(enc.size() == encoded);
  enc.PatchU32(crc_pos, Crc32cExtendZeros(Crc32c(enc.bytes().data(), encoded),
                                          data_offset - encoded));
  Buffer out;
  out.AppendShared(std::make_shared<const std::vector<uint8_t>>(enc.Take()),
                   0, encoded);
  out.AppendZeros(data_offset - encoded);
  out.Append(data);
  return out;
}

Status DecodeDataObjectHeader(const Buffer& object_prefix,
                              DataObjectHeader* header) {
  if (object_prefix.size() < kHeaderAlign) {
    return Status::Corruption("object too small for header");
  }
  // Parse the fixed fields from the first block, then extend if the extent
  // list spills past it.
  std::vector<uint8_t> bytes(kHeaderAlign);
  object_prefix.CopyTo(0, bytes);
  Decoder dec(bytes);
  if (dec.GetU32() != kDataMagic) {
    return Status::Corruption("bad data object magic");
  }
  if (dec.GetU32() != kDataVersion) {
    return Status::Corruption("unsupported object version");
  }
  header->seq = dec.GetU64();
  header->data_offset = dec.GetU64();
  const uint32_t extent_count = dec.GetU32();
  header->generation = dec.GetU32();
  const size_t crc_pos = dec.position();
  const uint32_t header_crc = dec.GetU32();
  // The offset pins the extent count to the header's size, so the extent
  // loop below never reads past `bytes`.
  if (header->data_offset != DataObjectHeaderSize(extent_count)) {
    return Status::Corruption("data offset inconsistent with extent count");
  }
  if (std::min(object_prefix.size(), kMaxHeaderBytes) < header->data_offset) {
    return Status::Corruption("header truncated");
  }
  const size_t fixed = dec.position();
  if (header->data_offset > kHeaderAlign) {
    bytes.resize(header->data_offset);
    object_prefix.CopyTo(kHeaderAlign, {bytes.data() + kHeaderAlign,
                                        bytes.size() - kHeaderAlign});
    dec = Decoder(bytes);
    dec.Skip(fixed);
  }

  header->extents.clear();
  for (uint32_t i = 0; i < extent_count; i++) {
    ObjectExtent e;
    e.vlba = dec.GetU64();
    const uint64_t len_word = dec.GetU64();
    e.len = len_word & ~kExtentTrimBit;
    e.is_trim = (len_word & kExtentTrimBit) != 0;
    e.expected_seq = dec.GetU64();
    e.expected_offset = dec.GetU64();
    if (!dec.ok() || e.len == 0) {
      return Status::Corruption("object extent malformed");
    }
    if (e.is_trim && e.conditional()) {
      return Status::Corruption("trim extent cannot be conditional");
    }
    header->extents.push_back(e);
  }

  // CRC over the padded header with the CRC field zeroed.
  std::memset(bytes.data() + crc_pos, 0, 4);
  if (Crc32c(bytes.data(), bytes.size()) != header_crc) {
    return Status::Corruption("object header CRC mismatch");
  }
  return Status::Ok();
}

size_t ShardForSeq(uint64_t seq, size_t shard_count) {
  if (shard_count <= 1 || seq == 0) {
    return 0;
  }
  return static_cast<size_t>((seq - 1) % shard_count);
}

std::vector<uint64_t> ConsistencyVector(uint64_t through, size_t shard_count) {
  if (shard_count <= 1) {
    return {through};
  }
  std::vector<uint64_t> vec(shard_count, 0);
  for (size_t i = 0; i < shard_count; i++) {
    if (through == 0) {
      continue;
    }
    // Largest s in [1, through] with (s - 1) % shard_count == i.
    const uint64_t last_slot = (through - 1) % shard_count;
    const uint64_t back =
        last_slot >= i ? last_slot - i : last_slot + shard_count - i;
    if (back < through) {
      vec[i] = through - back;
    }
  }
  return vec;
}

Buffer EncodeCheckpoint(const CheckpointState& state) {
  const size_t encoded =
      4 + 4 + 8 + 8 + 7 * 4 + 4 + 32 * state.object_map.size() +
      24 * state.object_info.size() + 16 * state.deferred_deletes.size() +
      8 * state.snapshots.size() + 8 * state.shard_consistent.size() +
      12 * state.generations.size();
  Encoder enc;
  enc.Reserve(encoded);
  enc.PutU32(kCkptMagic);
  enc.PutU32(kCkptVersion);
  enc.PutU64(state.through_seq);
  enc.PutU64(state.next_seq);
  enc.PutU32(static_cast<uint32_t>(state.object_map.size()));
  enc.PutU32(static_cast<uint32_t>(state.object_info.size()));
  enc.PutU32(static_cast<uint32_t>(state.deferred_deletes.size()));
  enc.PutU32(static_cast<uint32_t>(state.snapshots.size()));
  enc.PutU32(state.shard_count);
  enc.PutU32(static_cast<uint32_t>(state.shard_consistent.size()));
  enc.PutU32(static_cast<uint32_t>(state.generations.size()));
  const size_t crc_pos = enc.size();
  enc.PutU32(0);
  for (const auto& e : state.object_map) {
    enc.PutU64(e.start);
    enc.PutU64(e.len);
    enc.PutU64(e.target.seq);
    enc.PutU64(e.target.offset);
  }
  for (const auto& [seq, info] : state.object_info) {
    enc.PutU64(seq);
    enc.PutU64(info.total_bytes);
    enc.PutU64(info.live_bytes);
  }
  for (const auto& d : state.deferred_deletes) {
    enc.PutU64(d.seq);
    enc.PutU64(d.gc_head);
  }
  for (const uint64_t s : state.snapshots) {
    enc.PutU64(s);
  }
  for (const uint64_t s : state.shard_consistent) {
    enc.PutU64(s);
  }
  for (const auto& [seq, gen] : state.generations) {
    enc.PutU64(seq);
    enc.PutU32(gen);
  }

  assert(enc.size() == encoded);
  enc.PatchU32(crc_pos, Crc32c(enc.bytes().data(), encoded));
  // Hand the encoded vector over instead of copying it.
  Buffer out;
  out.AppendShared(std::make_shared<const std::vector<uint8_t>>(enc.Take()),
                   0, encoded);
  return out;
}

Status DecodeCheckpoint(const Buffer& object, CheckpointState* state) {
  std::vector<uint8_t> bytes = object.ToBytes();
  Decoder dec(bytes);
  if (dec.GetU32() != kCkptMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  if (dec.GetU32() != kCkptVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  state->through_seq = dec.GetU64();
  state->next_seq = dec.GetU64();
  const uint32_t map_count = dec.GetU32();
  const uint32_t info_count = dec.GetU32();
  const uint32_t defer_count = dec.GetU32();
  const uint32_t snap_count = dec.GetU32();
  const uint32_t shard_count = dec.GetU32();
  const uint32_t vec_count = dec.GetU32();
  const uint32_t gen_count = dec.GetU32();
  const size_t crc_pos = dec.position();
  const uint32_t crc = dec.GetU32();
  if (!dec.ok()) {
    return Status::Corruption("checkpoint truncated");
  }

  std::vector<uint8_t> check = bytes;
  for (int i = 0; i < 4; i++) {
    check[crc_pos + static_cast<size_t>(i)] = 0;
  }
  if (Crc32c(check.data(), check.size()) != crc) {
    return Status::Corruption("checkpoint CRC mismatch");
  }
  // Every entry has a fixed size, so the counts must account for exactly
  // the bytes that follow the header: a CRC-valid blob with an inflated
  // count is rejected before any loop runs.
  const uint64_t body = map_count * kCkptMapEntry +
                        info_count * kCkptInfoEntry +
                        defer_count * kCkptDeferEntry +
                        (uint64_t{snap_count} + vec_count) * kCkptU64Entry +
                        gen_count * kCkptGenEntry;
  if (body != dec.remaining()) {
    return Status::Corruption("checkpoint counts disagree with its size");
  }
  state->object_map.clear();
  state->object_info.clear();
  state->deferred_deletes.clear();
  state->snapshots.clear();
  state->generations.clear();
  state->shard_count = shard_count;
  state->shard_consistent.clear();
  for (uint32_t i = 0; i < map_count; i++) {
    ExtentMap<ObjTarget>::Extent e;
    e.start = dec.GetU64();
    e.len = dec.GetU64();
    e.target.seq = dec.GetU64();
    e.target.offset = dec.GetU64();
    state->object_map.push_back(e);
  }
  for (uint32_t i = 0; i < info_count; i++) {
    const uint64_t seq = dec.GetU64();
    ObjectInfo info;
    info.total_bytes = dec.GetU64();
    info.live_bytes = dec.GetU64();
    state->object_info[seq] = info;
  }
  for (uint32_t i = 0; i < defer_count; i++) {
    DeferredDelete d;
    d.seq = dec.GetU64();
    d.gc_head = dec.GetU64();
    state->deferred_deletes.push_back(d);
  }
  for (uint32_t i = 0; i < snap_count; i++) {
    state->snapshots.push_back(dec.GetU64());
  }
  for (uint32_t i = 0; i < vec_count; i++) {
    state->shard_consistent.push_back(dec.GetU64());
  }
  for (uint32_t i = 0; i < gen_count; i++) {
    const uint64_t seq = dec.GetU64();
    state->generations[seq] = dec.GetU32();
  }
  if (shard_count == 0 ||
      state->shard_consistent !=
          ConsistencyVector(state->through_seq, shard_count)) {
    return Status::Corruption(
        "consistency vector disagrees with shard count and through_seq");
  }
  return Status::Ok();
}

}  // namespace lsvd
