// On-SSD write-cache journal record codec (paper Figure 2).
//
// A record is a 4 KiB header block followed by the data blocks it describes:
//
//   header: magic | seq | batch_seq | extent count | data CRC | header CRC
//           | extents[(vLBA, len), ...]
//
// The sequence number and CRCs ensure that only complete records are used in
// recovery: replay expects exactly the next sequence number and stops at the
// first mismatch or corrupt header (§3.3). `batch_seq` records which backend
// object the contained writes were assigned to, enabling the post-crash
// "rewind and replay to backend" step.
#ifndef SRC_LSVD_JOURNAL_H_
#define SRC_LSVD_JOURNAL_H_

#include <cstdint>
#include <span>

#include "src/blockdev/block_device.h"
#include "src/util/buffer.h"
#include "src/util/small_vector.h"
#include "src/util/status.h"

namespace lsvd {

struct JournalExtent {
  uint64_t vlba = 0;  // byte address in the virtual disk
  uint64_t len = 0;   // bytes (multiple of kBlockSize)
};

// A record's extent list. Under 4 KiB random writes a record holds about
// 3.4 extents, so four are kept inline: the writer builds, encodes and
// files a record of up to four extents without allocating a list.
using JournalExtentList = SmallVector<JournalExtent, 4>;

struct JournalRecord {
  uint64_t seq = 0;        // journal-local sequence number
  uint64_t batch_seq = 0;  // backend object this data was batched into
  bool is_trim = false;    // TRIM tombstone record: extents only, no payload
  JournalExtentList extents;
  Buffer data;             // concatenated extent payloads (empty for trims)
  uint32_t data_crc = 0;   // payload CRC (filled by DecodeJournalHeader)
};

// Maximum extents that fit in the 4 KiB header.
inline constexpr size_t kMaxJournalExtents = 250;

// Serializes header (padded to kBlockSize) + data. data.size() must equal the
// extent length sum and be block-aligned. The header block is one data chunk
// of exactly the encoded fields (40 bytes plus 16 per extent) and a symbolic
// zero run to the block end. Trim records carry a distinct magic
// ("LSVT"), describe the discarded ranges in their extents, and have no
// payload — the record is exactly one header block.
Buffer EncodeJournalRecord(const JournalRecord& record);

// Bytes of header + payload a record with these extents occupies in the log.
uint64_t JournalRecordSize(bool is_trim,
                           std::span<const JournalExtent> extents);

// Parses and validates the header block. On success fills `record` (without
// data) and sets `data_len` to the payload size following the header.
// Returns Corruption for bad magic/CRC, which recovery treats as log end.
// When `volume_limit` is non-zero, extents reaching past that many bytes of
// virtual disk are rejected as corruption, so a damaged header that passes
// its CRC by chance can never replay an out-of-range write; the extent
// length sum is always guarded against uint64_t overflow.
Status DecodeJournalHeader(const Buffer& header_block, JournalRecord* record,
                           uint64_t* data_len, uint64_t volume_limit = 0);

// Validates the payload CRC recorded in the header against `data`.
Status VerifyJournalData(const JournalRecord& record, const Buffer& data);

}  // namespace lsvd

#endif  // SRC_LSVD_JOURNAL_H_
