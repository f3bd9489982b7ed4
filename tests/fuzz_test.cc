// Randomized robustness tests: every on-disk/on-object codec must either
// decode correctly or return an error — never crash, never accept corrupt
// input — under random mutations and truncations; plus reference-model
// property tests for the run allocator and Buffer.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/lsvd/journal.h"
#include "src/lsvd/object_format.h"
#include "src/lsvd/write_cache.h"
#include "src/util/buffer.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "src/util/run_allocator.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

class CodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzz, JournalHeaderNeverAcceptsCorruption) {
  Rng rng(GetParam());
  JournalRecord rec;
  rec.seq = rng.Next() % 100000;
  rec.batch_seq = rng.Next() % 1000;
  const int n = 1 + static_cast<int>(rng.Uniform(10));
  for (int i = 0; i < n; i++) {
    rec.extents.push_back(
        {rng.Uniform(1 << 20) * kBlockSize, (1 + rng.Uniform(4)) * kBlockSize});
  }
  uint64_t data_len = 0;
  for (const auto& e : rec.extents) {
    data_len += e.len;
  }
  rec.data = TestPattern(data_len, GetParam());
  auto header = EncodeJournalRecord(rec).Slice(0, kBlockSize).ToBytes();

  // Unmutated: decodes and matches.
  JournalRecord out;
  uint64_t out_len = 0;
  ASSERT_TRUE(
      DecodeJournalHeader(Buffer::FromBytes(header), &out, &out_len).ok());
  ASSERT_EQ(out.seq, rec.seq);
  ASSERT_EQ(out_len, data_len);

  // 200 random single-byte mutations: every one must be rejected (the CRC
  // covers the whole header block).
  for (int trial = 0; trial < 200; trial++) {
    auto mutated = header;
    const size_t pos = rng.Uniform(mutated.size());
    const auto bit = static_cast<uint8_t>(1u << rng.Uniform(8));
    mutated[pos] ^= bit;
    JournalRecord m;
    uint64_t ml = 0;
    const Status s = DecodeJournalHeader(Buffer::FromBytes(mutated), &m, &ml);
    EXPECT_FALSE(s.ok()) << "mutation at byte " << pos << " accepted";
  }
}

// Every case carries the whole layout: a non-zero generation, a trim
// tombstone and conditional GC extents.
TEST_P(CodecFuzz, ObjectHeaderNeverAcceptsCorruption) {
  Rng rng(GetParam() + 100);
  DataObjectHeader header;
  header.seq = rng.Next() % 100000;
  header.generation = 1 + static_cast<uint32_t>(rng.Uniform(7));
  const int n = 2 + static_cast<int>(rng.Uniform(50));
  Buffer data;
  for (int i = 0; i < n; i++) {
    ObjectExtent e;
    e.vlba = rng.Uniform(1 << 20) * kBlockSize;
    e.len = (1 + rng.Uniform(4)) * kBlockSize;
    e.is_trim = i == 0 || rng.Bernoulli(0.2);
    if (!e.is_trim) {
      if (rng.Bernoulli(0.3)) {
        e.expected_seq = 1 + rng.Next() % 100;
        e.expected_offset = rng.Next() % 4096;
      }
      data.AppendZeros(e.len);
    }
    header.extents.push_back(e);
  }
  Buffer object = EncodeDataObject(header, data);
  auto prefix = object.Slice(0, DataObjectHeaderSize(header.extents.size()))
                    .ToBytes();

  DataObjectHeader out;
  ASSERT_TRUE(DecodeDataObjectHeader(Buffer::FromBytes(prefix), &out).ok());
  EXPECT_EQ(out.seq, header.seq);
  EXPECT_EQ(out.generation, header.generation);
  EXPECT_EQ(DataObjectPayloadBytes(out), data.size());
  ASSERT_EQ(out.extents.size(), header.extents.size());
  for (size_t i = 0; i < out.extents.size(); i++) {
    const ObjectExtent& got = out.extents[i];
    const ObjectExtent& want = header.extents[i];
    EXPECT_EQ(got.vlba, want.vlba) << i;
    EXPECT_EQ(got.len, want.len) << i;
    EXPECT_EQ(got.is_trim, want.is_trim) << i;
    EXPECT_EQ(got.expected_seq, want.expected_seq) << i;
    EXPECT_EQ(got.expected_offset, want.expected_offset) << i;
  }

  for (int trial = 0; trial < 200; trial++) {
    auto mutated = prefix;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    DataObjectHeader m;
    EXPECT_FALSE(DecodeDataObjectHeader(Buffer::FromBytes(mutated), &m).ok())
        << "mutation at byte " << pos << " accepted";
  }
  for (size_t len = 0; len < prefix.size(); len++) {
    DataObjectHeader m;
    const std::vector<uint8_t> cut(prefix.begin(),
                                   prefix.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DecodeDataObjectHeader(Buffer::FromBytes(cut), &m).ok())
        << "truncation to " << len << " bytes accepted";
  }
}

// Every case carries a consistency vector for 1-8 shards and a generation
// table.
TEST_P(CodecFuzz, CheckpointNeverAcceptsCorruption) {
  Rng rng(GetParam() + 200);
  CheckpointState state;
  state.through_seq = rng.Next() % 10000;
  state.next_seq = state.through_seq + 1;
  state.shard_count = 1 + static_cast<uint32_t>(rng.Uniform(8));
  state.shard_consistent =
      ConsistencyVector(state.through_seq, state.shard_count);
  const int n = static_cast<int>(rng.Uniform(40));
  for (int i = 0; i < n; i++) {
    state.object_map.push_back({rng.Uniform(1 << 20) * kBlockSize,
                                (1 + rng.Uniform(8)) * kBlockSize,
                                ObjTarget{rng.Next() % 1000, rng.Uniform(1 << 22)}});
    state.object_info[rng.Next() % 1000] =
        ObjectInfo{rng.Uniform(1 << 24), rng.Uniform(1 << 20)};
  }
  const int gens = 1 + static_cast<int>(rng.Uniform(10));
  for (int i = 0; i < gens; i++) {
    state.generations[rng.Next() % 1000] =
        1 + static_cast<uint32_t>(rng.Uniform(7));
  }
  if (rng.Bernoulli(0.5)) {
    state.snapshots.push_back(rng.Next() % 500);
    state.deferred_deletes.push_back({rng.Next() % 100, rng.Next() % 1000});
  }
  auto bytes = EncodeCheckpoint(state).ToBytes();

  CheckpointState out;
  ASSERT_TRUE(DecodeCheckpoint(Buffer::FromBytes(bytes), &out).ok());
  EXPECT_EQ(out.through_seq, state.through_seq);
  EXPECT_EQ(out.object_map, state.object_map);
  EXPECT_EQ(out.shard_count, state.shard_count);
  EXPECT_EQ(out.shard_consistent, state.shard_consistent);
  EXPECT_EQ(out.generations, state.generations);

  for (int trial = 0; trial < 200; trial++) {
    auto mutated = bytes;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    CheckpointState m;
    EXPECT_FALSE(DecodeCheckpoint(Buffer::FromBytes(mutated), &m).ok());
  }
  for (size_t len = 0; len < bytes.size(); len++) {
    CheckpointState m;
    const std::vector<uint8_t> cut(bytes.begin(),
                                   bytes.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DecodeCheckpoint(Buffer::FromBytes(cut), &m).ok())
        << "truncation to " << len << " bytes accepted";
  }
}

// The write-cache checkpoint blob, through recovery: any bit flipped in the
// newest slot's blob must make Recover fall back to the older slot and
// replay the log to the same state a clean recovery reaches.
TEST_P(CodecFuzz, WriteCacheRecoverSurvivesCorruptNewestSlot) {
  Rng rng(GetParam() + 400);
  TestWorld world;
  constexpr uint64_t kRegion = 16 * kMiB;
  const uint64_t base = *world.host.AllocRegion(kRegion);
  const StageCosts zero{0, 0, 0, 0, 0, 0, 0, 0, 0};
  SimSsd* ssd = world.host.ssd();
  int newest_slot = 0;
  {
    WriteCache wc(&world.host, base, kRegion, zero);
    wc.Format([](Status s) { ASSERT_TRUE(s.ok()); });
    world.sim.Run();
    // Writes and trims, checkpointed twice (the cache adds one of its own
    // after the first record).
    for (int ckpt = 0; ckpt < 2; ckpt++) {
      for (int i = 0; i < 20; i++) {
        const uint64_t vlba = rng.Uniform(256) * kBlockSize;
        const uint64_t len = (1 + rng.Uniform(4)) * kBlockSize;
        const auto ok = [](Status s) { ASSERT_TRUE(s.ok()); };
        if (rng.Bernoulli(0.2)) {
          wc.AppendTrim(vlba, len, 1, ok);
        } else {
          wc.Append(vlba, TestPattern(len, rng.Next()), 1, ok);
        }
        world.sim.Run();
      }
      wc.WriteCheckpoint([](Status s) { ASSERT_TRUE(s.ok()); });
      world.sim.Run();
    }
    // Format wrote generation 1; generation g lands in slot g % 2.
    newest_slot = static_cast<int>(wc.stats().checkpoints % 2);
    wc.Kill();
  }

  using SsdExtents = std::vector<MapExtent<SsdTarget>>;
  using TrimExtents = std::vector<MapExtent<ObjTarget>>;
  const auto recover = [&](SsdExtents* map, TrimExtents* trims) {
    WriteCache fresh(&world.host, base, kRegion, zero);
    std::optional<Status> s;
    fresh.Recover([&](Status st) { s = st; });
    world.sim.Run();
    *map = fresh.map().Extents();
    *trims = fresh.trim_map().Extents();
    return s.value_or(Status::Unavailable("recovery never finished"));
  };
  SsdExtents want_map;
  TrimExtents want_trims;
  ASSERT_TRUE(recover(&want_map, &want_trims).ok());
  ASSERT_FALSE(want_map.empty());
  ASSERT_FALSE(want_trims.empty());

  const auto read_block = [&](uint64_t offset) {
    std::optional<Result<Buffer>> r;
    ssd->Read(offset, kBlockSize, [&](Result<Buffer> rr) { r = std::move(rr); });
    world.sim.Run();
    return r->value().ToBytes();
  };
  const auto write_block = [&](uint64_t offset, std::vector<uint8_t> bytes) {
    ssd->Write(offset, Buffer::FromBytes(bytes),
               [](Status s) { ASSERT_TRUE(s.ok()); });
    world.sim.Run();
  };
  WriteCache layout(&world.host, base, kRegion, zero);
  const uint64_t newest = layout.checkpoint_slot_offset(newest_slot);
  const std::vector<uint8_t> head = read_block(newest);
  uint64_t blob_len = 0;
  for (int i = 0; i < 8; i++) {
    blob_len |= static_cast<uint64_t>(head[8 + static_cast<size_t>(i)])
                << (8 * i);
  }
  ASSERT_GE(blob_len, kBlockSize);

  for (int trial = 0; trial < 40; trial++) {
    const uint64_t pos = rng.Uniform(blob_len);
    const uint64_t block = newest + pos / kBlockSize * kBlockSize;
    const std::vector<uint8_t> original = read_block(block);
    std::vector<uint8_t> mutated = original;
    mutated[pos % kBlockSize] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    write_block(block, mutated);
    SsdExtents map;
    TrimExtents trims;
    const Status s = recover(&map, &trims);
    EXPECT_TRUE(s.ok()) << "flip at blob byte " << pos << ": " << s.ToString();
    EXPECT_EQ(map, want_map) << "flip at blob byte " << pos;
    EXPECT_EQ(trims, want_trims) << "flip at blob byte " << pos;
    write_block(block, original);
  }
}

TEST_P(CodecFuzz, RandomGarbageIsRejectedNotCrashed) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 50; trial++) {
    std::vector<uint8_t> garbage(kBlockSize);
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.Next());
    }
    JournalRecord jr;
    uint64_t len = 0;
    EXPECT_FALSE(
        DecodeJournalHeader(Buffer::FromBytes(garbage), &jr, &len).ok());
    DataObjectHeader oh;
    EXPECT_FALSE(DecodeDataObjectHeader(Buffer::FromBytes(garbage), &oh).ok());
    CheckpointState cs;
    EXPECT_FALSE(DecodeCheckpoint(Buffer::FromBytes(garbage), &cs).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- RunAllocator property test against a byte-level reference ---

class AllocatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  constexpr uint64_t kBase = 1 << 20;
  constexpr uint64_t kSize = 1 << 16;
  RunAllocator alloc(kBase, kSize);
  std::vector<bool> ref(kSize, false);  // true = allocated
  std::vector<std::pair<uint64_t, uint64_t>> live;  // (offset, len)

  for (int step = 0; step < 2000; step++) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const uint64_t len = (1 + rng.Uniform(16)) * 256;
      auto got = alloc.Allocate(len);
      // Reference: does a first-fit run of `len` exist?
      uint64_t run = 0;
      bool exists = false;
      for (uint64_t i = 0; i < kSize && !exists; i++) {
        run = ref[i] ? 0 : run + 1;
        if (run >= len) {
          exists = true;
        }
      }
      ASSERT_EQ(got.has_value(), exists) << "step " << step;
      if (got.has_value()) {
        ASSERT_GE(*got, kBase);
        ASSERT_LE(*got + len, kBase + kSize);
        for (uint64_t i = 0; i < len; i++) {
          ASSERT_FALSE(ref[*got - kBase + i]) << "double allocation";
          ref[*got - kBase + i] = true;
        }
        live.push_back({*got, len});
      }
    } else {
      const size_t idx = rng.Uniform(live.size());
      auto [off, len] = live[idx];
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
      alloc.Free(off, len);
      for (uint64_t i = 0; i < len; i++) {
        ref[off - kBase + i] = false;
      }
    }
    // Free-byte accounting must agree.
    uint64_t free_ref = 0;
    for (const bool b : ref) {
      free_ref += b ? 0 : 1;
    }
    ASSERT_EQ(alloc.free_bytes(), free_ref) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(11, 22, 33));

// --- Buffer property test against a byte-vector reference ---

class BufferProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferProperty, RopeOperationsMatchFlatReference) {
  Rng rng(GetParam());
  Buffer buf;
  std::vector<uint8_t> ref;

  for (int step = 0; step < 300; step++) {
    const int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      // Append random bytes.
      std::vector<uint8_t> bytes(1 + rng.Uniform(300));
      for (auto& b : bytes) {
        b = static_cast<uint8_t>(rng.Next());
      }
      buf.AppendBytes(bytes);
      ref.insert(ref.end(), bytes.begin(), bytes.end());
    } else if (op == 1) {
      const uint64_t n = 1 + rng.Uniform(500);
      buf.AppendZeros(n);
      ref.insert(ref.end(), n, 0);
    } else if (!ref.empty() && ref.size() < (1u << 20)) {
      // Re-append a slice of the existing buffer (exercises chunk sharing);
      // capped so the buffer cannot grow geometrically.
      const uint64_t off = rng.Uniform(ref.size());
      const uint64_t len =
          1 + rng.Uniform(std::min<uint64_t>(ref.size() - off, 4096));
      Buffer slice = buf.Slice(off, len);
      buf.Append(slice);
      ref.insert(ref.end(), ref.begin() + static_cast<ptrdiff_t>(off),
                 ref.begin() + static_cast<ptrdiff_t>(off + len));
    }
    ASSERT_EQ(buf.size(), ref.size());

    // Random window probes.
    if (!ref.empty()) {
      for (int probe = 0; probe < 3; probe++) {
        const uint64_t off = rng.Uniform(ref.size());
        const uint64_t len = 1 + rng.Uniform(ref.size() - off);
        std::vector<uint8_t> window(len);
        buf.CopyTo(off, window);
        ASSERT_EQ(0, std::memcmp(window.data(), ref.data() + off, len))
            << "step " << step;
      }
    }
  }
  EXPECT_EQ(buf.ToBytes(), ref);
  EXPECT_EQ(buf.Crc(), Crc32c(ref.data(), ref.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferProperty,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace lsvd
