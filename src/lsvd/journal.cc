#include "src/lsvd/journal.h"

#include <cassert>

#include "src/util/codec.h"
#include "src/util/crc32c.h"

namespace lsvd {
namespace {

constexpr uint32_t kJournalMagic = 0x4C53564A;  // "LSVJ"
constexpr uint32_t kTrimMagic = 0x4C535654;     // "LSVT": trim record, no data
// Encoded header: magic, seq, batch seq, extent count, data length, data
// CRC and header CRC, then 16 bytes per extent; zeros fill the block.
constexpr size_t kHeaderFixedBytes = 4 + 8 + 8 + 4 + 8 + 4 + 4;
constexpr size_t kHeaderExtentBytes = 16;
static_assert(kHeaderFixedBytes + kMaxJournalExtents * kHeaderExtentBytes <=
              kBlockSize);

}  // namespace

uint64_t JournalRecordSize(bool is_trim,
                           std::span<const JournalExtent> extents) {
  if (is_trim) {
    return kBlockSize;
  }
  uint64_t data = 0;
  for (const auto& e : extents) {
    data += e.len;
  }
  return kBlockSize + data;
}

Buffer EncodeJournalRecord(const JournalRecord& record) {
  assert(record.extents.size() <= kMaxJournalExtents);
  uint64_t data_len = 0;
  for (const auto& e : record.extents) {
    assert(e.len % kBlockSize == 0);
    data_len += e.len;
  }
  if (record.is_trim) {
    // Trim records describe discarded ranges only; no payload follows the
    // header and the data-length field stays zero.
    assert(record.data.size() == 0);
    data_len = 0;
  } else {
    assert(record.data.size() == data_len);
  }

  const size_t encoded =
      kHeaderFixedBytes + kHeaderExtentBytes * record.extents.size();
  Encoder enc;
  enc.Reserve(encoded);
  enc.PutU32(record.is_trim ? kTrimMagic : kJournalMagic);
  enc.PutU64(record.seq);
  enc.PutU64(record.batch_seq);
  enc.PutU32(static_cast<uint32_t>(record.extents.size()));
  enc.PutU64(data_len);
  enc.PutU32(record.data.Crc());
  const size_t crc_pos = enc.size();
  enc.PutU32(0);  // header CRC backpatched below
  for (const auto& e : record.extents) {
    enc.PutU64(e.vlba);
    enc.PutU64(e.len);
  }
  assert(enc.size() == encoded);

  // CRC covers the whole header block with the CRC field zeroed; the zero
  // padding after the encoded fields is folded in without reading it.
  enc.PatchU32(crc_pos,
               Crc32cExtendZeros(Crc32c(enc.bytes().data(), encoded),
                                 kBlockSize - encoded));

  // Donate the encoded fields instead of copying them and leave the rest of
  // the header block a symbolic zero run; downstream consumers (the SSD
  // block store) then share the same storage copy-free.
  Buffer out;
  out.AppendShared(std::make_shared<const std::vector<uint8_t>>(enc.Take()),
                   0, encoded);
  out.AppendZeros(kBlockSize - encoded);
  out.Append(record.data);
  return out;
}

Status DecodeJournalHeader(const Buffer& header_block, JournalRecord* record,
                           uint64_t* data_len, uint64_t volume_limit) {
  if (header_block.size() != kBlockSize) {
    return Status::InvalidArgument("journal header must be one block");
  }
  std::vector<uint8_t> header = header_block.ToBytes();
  Decoder dec(header);
  const uint32_t magic = dec.GetU32();
  if (magic != kJournalMagic && magic != kTrimMagic) {
    return Status::Corruption("bad journal magic");
  }
  record->is_trim = (magic == kTrimMagic);
  record->seq = dec.GetU64();
  record->batch_seq = dec.GetU64();
  const uint32_t extent_count = dec.GetU32();
  *data_len = dec.GetU64();
  const uint32_t data_crc = dec.GetU32();
  const size_t crc_pos = dec.position();
  const uint32_t header_crc = dec.GetU32();
  if (extent_count > kMaxJournalExtents) {
    return Status::Corruption("journal extent count out of range");
  }

  // Verify header CRC with the field zeroed.
  for (int i = 0; i < 4; i++) {
    header[crc_pos + static_cast<size_t>(i)] = 0;
  }
  if (Crc32c(header.data(), header.size()) != header_crc) {
    return Status::Corruption("journal header CRC mismatch");
  }

  record->extents.clear();
  uint64_t sum = 0;
  for (uint32_t i = 0; i < extent_count; i++) {
    JournalExtent e;
    e.vlba = dec.GetU64();
    e.len = dec.GetU64();
    if (!dec.ok() || e.len == 0 || e.len % kBlockSize != 0) {
      return Status::Corruption("journal extent malformed");
    }
    if (e.vlba % kBlockSize != 0 || e.len > UINT64_MAX - e.vlba) {
      return Status::Corruption("journal extent range overflows");
    }
    if (volume_limit != 0 && e.vlba + e.len > volume_limit) {
      return Status::Corruption("journal extent past end of volume");
    }
    if (e.len > UINT64_MAX - sum) {
      return Status::Corruption("journal extent length sum overflows");
    }
    sum += e.len;
    record->extents.push_back(e);
  }
  if (record->is_trim) {
    // Trim records carry no payload; the extent lengths describe only the
    // discarded virtual ranges.
    if (*data_len != 0) {
      return Status::Corruption("trim record carries payload");
    }
  } else if (sum != *data_len) {
    return Status::Corruption("journal extent lengths disagree with payload");
  }
  // Stash the payload CRC for VerifyJournalData via the data field: encode it
  // in an empty buffer's CRC is impossible, so keep it in record->data_crc.
  record->data_crc = data_crc;
  return Status::Ok();
}

Status VerifyJournalData(const JournalRecord& record, const Buffer& data) {
  if (data.Crc() != record.data_crc) {
    return Status::Corruption("journal payload CRC mismatch");
  }
  return Status::Ok();
}

}  // namespace lsvd
