// Unit tests for the journal record and backend object codecs.
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "src/blockdev/sim_ssd.h"
#include "src/lsvd/journal.h"
#include "src/lsvd/object_format.h"
#include "src/util/codec.h"
#include "src/util/crc32c.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

// Hand-builds a journal header with a *valid* CRC around arbitrary field
// values, so tests can exercise the semantic validation that runs after the
// integrity checks pass.
Buffer ForgeJournalHeader(uint64_t seq, uint32_t extent_count,
                          const std::vector<JournalExtent>& extents,
                          uint64_t data_len) {
  Encoder enc;
  enc.PutU32(0x4C53564A);  // journal magic
  enc.PutU64(seq);
  enc.PutU64(0);  // batch_seq
  enc.PutU32(extent_count);
  enc.PutU64(data_len);
  enc.PutU32(0);  // data CRC
  const size_t crc_pos = enc.size();
  enc.PutU32(0);  // header CRC backpatched below
  for (const auto& e : extents) {
    enc.PutU64(e.vlba);
    enc.PutU64(e.len);
  }
  enc.PadTo(kBlockSize);
  std::vector<uint8_t> header = enc.Take();
  const uint32_t crc = Crc32c(header.data(), header.size());
  for (int i = 0; i < 4; i++) {
    header[crc_pos + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  return Buffer::FromBytes(header);
}

TEST(JournalCodec, RoundTrip) {
  JournalRecord rec;
  rec.seq = 42;
  rec.batch_seq = 7;
  rec.extents = {{0, 4096}, {8 * kMiB, 8192}};
  rec.data = TestPattern(12288, 1);

  Buffer encoded = EncodeJournalRecord(rec);
  EXPECT_EQ(encoded.size(), kBlockSize + 12288);
  EXPECT_EQ(JournalRecordSize(rec.is_trim, rec.extents), encoded.size());

  JournalRecord out;
  uint64_t data_len = 0;
  ASSERT_TRUE(
      DecodeJournalHeader(encoded.Slice(0, kBlockSize), &out, &data_len).ok());
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.batch_seq, 7u);
  EXPECT_EQ(data_len, 12288u);
  ASSERT_EQ(out.extents.size(), 2u);
  EXPECT_EQ(out.extents[0].vlba, 0u);
  EXPECT_EQ(out.extents[1].vlba, 8 * kMiB);
  EXPECT_EQ(out.extents[1].len, 8192u);
  EXPECT_TRUE(
      VerifyJournalData(out, encoded.Slice(kBlockSize, data_len)).ok());
}

// The header CRC is computed over the encoded fields and extended over the
// zero tail; it must equal a CRC over the whole block (with the CRC field
// zeroed), which is what the decoder checks.
TEST(JournalCodec, HeaderCrcEqualsFullBlockCrc) {
  constexpr size_t kHeaderCrcPos = 4 + 8 + 8 + 4 + 8 + 4;
  for (const size_t extents : {0, 1, 250}) {
    for (const bool is_trim : {false, true}) {
      JournalRecord rec;
      rec.seq = 9;
      rec.batch_seq = 3;
      rec.is_trim = is_trim;
      for (size_t i = 0; i < extents; i++) {
        rec.extents.push_back({2 * i * kBlockSize, kBlockSize});
      }
      if (!is_trim) {
        rec.data = TestPattern(extents * kBlockSize, extents + 1);
      }
      std::vector<uint8_t> header =
          EncodeJournalRecord(rec).Slice(0, kBlockSize).ToBytes();
      uint32_t stored = 0;
      for (size_t i = 0; i < 4; i++) {
        stored |= static_cast<uint32_t>(header[kHeaderCrcPos + i]) << (8 * i);
        header[kHeaderCrcPos + i] = 0;
      }
      EXPECT_EQ(stored, Crc32c(header.data(), header.size()))
          << extents << " extents, trim " << is_trim;
    }
  }
}

// The encoded header is donated as one short data chunk of exactly the
// encoded fields (40 bytes plus 16 per extent); the rest of the header block
// is a symbolic zero run. Written to a SimSsd, flushed and read back after a
// power failure, the header still decodes.
TEST(JournalCodec, HeaderChunkIsTheEncodedFieldsAndSurvivesTheSsd) {
  for (const size_t extents : {0, 1, 250}) {
    JournalRecord rec;
    rec.seq = 11;
    rec.batch_seq = 4;
    for (size_t i = 0; i < extents; i++) {
      rec.extents.push_back({2 * i * kBlockSize, kBlockSize});
    }
    rec.data = Buffer::Zeros(extents * kBlockSize);
    const Buffer encoded = EncodeJournalRecord(rec);
    ASSERT_EQ(encoded.size(), kBlockSize + extents * kBlockSize);
    std::vector<std::pair<bool, uint64_t>> chunks;  // (is data, length)
    encoded.ForEachChunk([&](const auto& data, uint64_t, uint64_t n) {
      chunks.emplace_back(data != nullptr, n);
    });
    ASSERT_EQ(chunks.size(), 2u) << extents;
    EXPECT_EQ(chunks[0], std::make_pair(true, uint64_t{40 + 16 * extents}));
    EXPECT_EQ(chunks[1],
              std::make_pair(false, encoded.size() - (40 + 16 * extents)));

    Simulator sim;
    SimSsd ssd(&sim, 16 * kMiB, SsdParams::Instant());
    const uint64_t at = 3 * kBlockSize;
    ssd.Write(at, encoded, [](Status s) { ASSERT_TRUE(s.ok()); });
    ssd.Flush([](Status s) { ASSERT_TRUE(s.ok()); });
    sim.Run();
    ssd.PowerFail();
    std::optional<Result<Buffer>> read;
    ssd.Read(at, kBlockSize, [&read](Result<Buffer> r) { read = std::move(r); });
    sim.Run();
    ASSERT_TRUE(read.has_value() && read->ok());
    JournalRecord out;
    uint64_t data_len = 0;
    ASSERT_TRUE(DecodeJournalHeader(**read, &out, &data_len).ok()) << extents;
    EXPECT_EQ(out.seq, 11u);
    EXPECT_EQ(out.batch_seq, 4u);
    EXPECT_EQ(out.extents.size(), extents);
    EXPECT_EQ(data_len, extents * kBlockSize);
    EXPECT_TRUE(VerifyJournalData(out, rec.data).ok());
  }
}

TEST(JournalCodec, DetectsHeaderCorruption) {
  JournalRecord rec;
  rec.seq = 1;
  rec.extents = {{4096, 4096}};
  rec.data = TestPattern(4096, 2);
  auto bytes = EncodeJournalRecord(rec).ToBytes();
  bytes[100] ^= 0xFF;  // flip a bit inside the header

  JournalRecord out;
  uint64_t data_len = 0;
  Buffer header = Buffer::FromBytes(
      std::span<const uint8_t>(bytes.data(), kBlockSize));
  EXPECT_EQ(DecodeJournalHeader(header, &out, &data_len).code(),
            StatusCode::kCorruption);
}

TEST(JournalCodec, DetectsDataCorruption) {
  JournalRecord rec;
  rec.seq = 1;
  rec.extents = {{4096, 4096}};
  rec.data = TestPattern(4096, 3);
  Buffer encoded = EncodeJournalRecord(rec);

  JournalRecord out;
  uint64_t data_len = 0;
  ASSERT_TRUE(
      DecodeJournalHeader(encoded.Slice(0, kBlockSize), &out, &data_len).ok());
  Buffer wrong_data = TestPattern(4096, 4);
  EXPECT_EQ(VerifyJournalData(out, wrong_data).code(),
            StatusCode::kCorruption);
}

TEST(JournalCodec, GarbageIsRejected) {
  JournalRecord out;
  uint64_t data_len = 0;
  EXPECT_FALSE(
      DecodeJournalHeader(Buffer::Zeros(kBlockSize), &out, &data_len).ok());
  EXPECT_FALSE(
      DecodeJournalHeader(TestPattern(kBlockSize, 5), &out, &data_len).ok());
}

TEST(JournalCodec, RejectsExtentPastVolumeLimit) {
  JournalRecord rec;
  rec.seq = 3;
  rec.extents = {{60 * kMiB, 8192}};
  rec.data = TestPattern(8192, 9);
  Buffer header = EncodeJournalRecord(rec).Slice(0, kBlockSize);

  JournalRecord out;
  uint64_t data_len = 0;
  // Inside a 64 MiB volume: accepted (also with no limit configured).
  EXPECT_TRUE(DecodeJournalHeader(header, &out, &data_len, 64 * kMiB).ok());
  EXPECT_TRUE(DecodeJournalHeader(header, &out, &data_len).ok());
  // The same CRC-valid record must not replay into a smaller volume.
  EXPECT_EQ(DecodeJournalHeader(header, &out, &data_len, 32 * kMiB).code(),
            StatusCode::kCorruption);
  // Exactly at the end of the volume is still in range.
  EXPECT_TRUE(
      DecodeJournalHeader(header, &out, &data_len, 60 * kMiB + 8192).ok());
  EXPECT_EQ(
      DecodeJournalHeader(header, &out, &data_len, 60 * kMiB + 4096).code(),
      StatusCode::kCorruption);
}

TEST(JournalCodec, RejectsUnalignedVlba) {
  Buffer header = ForgeJournalHeader(1, 1, {{100, 4096}}, 4096);
  JournalRecord out;
  uint64_t data_len = 0;
  EXPECT_EQ(DecodeJournalHeader(header, &out, &data_len).code(),
            StatusCode::kCorruption);
}

TEST(JournalCodec, RejectsExtentRangeOverflow) {
  // vlba + len wraps uint64_t; without the guard the volume-limit check
  // would pass on the wrapped value.
  const uint64_t huge = UINT64_MAX - 4095;  // block-aligned
  Buffer header = ForgeJournalHeader(1, 1, {{2 * 4096, huge}}, huge);
  JournalRecord out;
  uint64_t data_len = 0;
  EXPECT_EQ(DecodeJournalHeader(header, &out, &data_len, 64 * kMiB).code(),
            StatusCode::kCorruption);
}

TEST(JournalCodec, RejectsExtentLengthSumOverflow) {
  // Each extent is individually fine; the sum wraps uint64_t and would
  // otherwise masquerade as a small payload.
  const uint64_t half = 1ULL << 63;  // block-aligned
  Buffer header =
      ForgeJournalHeader(1, 2, {{0, half}, {0, half}}, /*data_len=*/0);
  JournalRecord out;
  uint64_t data_len = 0;
  EXPECT_EQ(DecodeJournalHeader(header, &out, &data_len).code(),
            StatusCode::kCorruption);
}

TEST(JournalCodec, RejectsTruncatedExtentArray) {
  // Header claims 5 extents but encodes only 2; the missing entries decode
  // as zero padding (len 0), which must not pass.
  Buffer header =
      ForgeJournalHeader(1, 5, {{0, 4096}, {8192, 4096}}, 5 * 4096);
  JournalRecord out;
  uint64_t data_len = 0;
  EXPECT_EQ(DecodeJournalHeader(header, &out, &data_len).code(),
            StatusCode::kCorruption);
}

TEST(ObjectNaming, FormatAndParse) {
  EXPECT_EQ(DataObjectName("vol", 17), "vol.d.000000000017");
  EXPECT_EQ(CheckpointObjectName("vol", 3), "vol.c.000000000003");
  EXPECT_EQ(ParseDataObjectSeq("vol", "vol.d.000000000017"), 17u);
  EXPECT_EQ(ParseCheckpointSeq("vol", "vol.c.000000000003"), 3u);
  EXPECT_EQ(ParseDataObjectSeq("vol", "other.d.000000000017"), std::nullopt);
  EXPECT_EQ(ParseDataObjectSeq("vol", "vol.c.000000000017"), std::nullopt);
  EXPECT_EQ(ParseDataObjectSeq("vol", "vol.d.0000000017"), std::nullopt);
  // Lexicographic order matches numeric order (zero padding).
  EXPECT_LT(DataObjectName("vol", 99), DataObjectName("vol", 100));
}

TEST(ObjectCodec, DataObjectRoundTrip) {
  DataObjectHeader header;
  header.seq = 9;
  header.extents = {{0, 8192, 0, 0}, {kMiB, 4096, 0, 0}};
  Buffer data = TestPattern(12288, 6);
  Buffer object = EncodeDataObject(header, data);

  DataObjectHeader out;
  ASSERT_TRUE(DecodeDataObjectHeader(object, &out).ok());
  EXPECT_EQ(out.seq, 9u);
  EXPECT_EQ(out.data_offset, DataObjectHeaderSize(2));
  ASSERT_EQ(out.extents.size(), 2u);
  EXPECT_EQ(out.extents[1].vlba, kMiB);
  EXPECT_FALSE(out.extents[0].conditional());
  // Payload follows the header verbatim.
  EXPECT_EQ(object.Slice(out.data_offset, 12288), data);
}

TEST(ObjectCodec, ConditionalExtentsSurviveRoundTrip) {
  DataObjectHeader header;
  header.seq = 30;
  header.extents = {{4096, 4096, 12, 8192}};
  Buffer object = EncodeDataObject(header, TestPattern(4096, 7));
  DataObjectHeader out;
  ASSERT_TRUE(DecodeDataObjectHeader(object, &out).ok());
  ASSERT_EQ(out.extents.size(), 1u);
  EXPECT_TRUE(out.extents[0].conditional());
  EXPECT_EQ(out.extents[0].expected_seq, 12u);
  EXPECT_EQ(out.extents[0].expected_offset, 8192u);
}

TEST(ObjectCodec, HeaderCorruptionDetected) {
  DataObjectHeader header;
  header.seq = 1;
  header.extents = {{0, 4096, 0, 0}};
  auto bytes = EncodeDataObject(header, TestPattern(4096, 8)).ToBytes();
  bytes[40] ^= 1;
  DataObjectHeader out;
  EXPECT_EQ(DecodeDataObjectHeader(Buffer::FromBytes(bytes), &out).code(),
            StatusCode::kCorruption);
}

TEST(ObjectCodec, CheckpointRoundTrip) {
  CheckpointState state;
  state.through_seq = 55;
  state.next_seq = 60;
  state.shard_consistent = {55};
  state.object_map = {{0, 4096, ObjTarget{3, 4096}},
                      {kMiB, 8192, ObjTarget{55, 12288}}};
  state.object_info[3] = ObjectInfo{100000, 50000};
  state.object_info[55] = ObjectInfo{200000, 200000};
  state.deferred_deletes = {{10, 50}};
  state.snapshots = {20, 40};

  Buffer encoded = EncodeCheckpoint(state);
  CheckpointState out;
  ASSERT_TRUE(DecodeCheckpoint(encoded, &out).ok());
  EXPECT_EQ(out.through_seq, 55u);
  EXPECT_EQ(out.next_seq, 60u);
  ASSERT_EQ(out.object_map.size(), 2u);
  EXPECT_EQ(out.object_map[1].target.seq, 55u);
  EXPECT_EQ(out.object_info.at(3).live_bytes, 50000u);
  ASSERT_EQ(out.deferred_deletes.size(), 1u);
  EXPECT_EQ(out.deferred_deletes[0].gc_head, 50u);
  EXPECT_EQ(out.snapshots, (std::vector<uint64_t>{20, 40}));
}

TEST(ObjectCodec, CheckpointCorruptionDetected) {
  CheckpointState state;
  state.through_seq = 1;
  auto bytes = EncodeCheckpoint(state).ToBytes();
  bytes[8] ^= 0x80;
  CheckpointState out;
  EXPECT_EQ(DecodeCheckpoint(Buffer::FromBytes(bytes), &out).code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace lsvd
