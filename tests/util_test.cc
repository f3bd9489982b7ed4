// Unit tests for src/util: CRC32C, Buffer, Histogram, Rng, Table, Status.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/buffer.h"
#include "src/util/crc32c.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace lsvd {
namespace {

// --- CRC32C ---

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // 32 bytes of 0xFF.
  std::vector<uint8_t> ffs(32, 0xFF);
  EXPECT_EQ(Crc32c(ffs.data(), ffs.size()), 0x62A8AB43u);
  // Ascending 0..31.
  std::vector<uint8_t> asc(32);
  for (int i = 0; i < 32; i++) {
    asc[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(Crc32c(asc.data(), asc.size()), 0x46DD794Eu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::string data = "log-structured virtual disk";
  const uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t crc = 0;
  for (size_t i = 0; i < data.size(); i += 5) {
    const size_t n = std::min<size_t>(5, data.size() - i);
    crc = Crc32cExtend(crc, data.data() + i, n);
  }
  EXPECT_EQ(crc, whole);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(Crc32c(nullptr, 0), 0u); }

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(100, 0xAB);
  const uint32_t clean = Crc32c(data.data(), data.size());
  data[50] ^= 1;
  EXPECT_NE(Crc32c(data.data(), data.size()), clean);
}

// --- Buffer ---

TEST(Buffer, ZeroRunsAreCheap) {
  Buffer b = Buffer::Zeros(10 * kGiB);
  EXPECT_EQ(b.size(), 10 * kGiB);
  EXPECT_TRUE(b.IsAllZeros());
  std::vector<uint8_t> probe(16, 0xFF);
  b.CopyTo(5 * kGiB, probe);
  for (uint8_t v : probe) {
    EXPECT_EQ(v, 0);
  }
}

TEST(Buffer, AppendAndCopy) {
  Buffer b;
  b.AppendBytes(std::vector<uint8_t>{1, 2, 3});
  b.AppendZeros(4);
  b.AppendBytes(std::vector<uint8_t>{9});
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b.ToBytes(), (std::vector<uint8_t>{1, 2, 3, 0, 0, 0, 0, 9}));
}

TEST(Buffer, SliceSharesAndIsCorrect) {
  Buffer b;
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < 100; i++) {
    data[i] = static_cast<uint8_t>(i);
  }
  b.AppendBytes(data);
  b.AppendZeros(50);
  b.AppendBytes(data);

  Buffer s = b.Slice(90, 70);  // last 10 real, 50 zeros, first 10 real
  auto bytes = s.ToBytes();
  ASSERT_EQ(bytes.size(), 70u);
  EXPECT_EQ(bytes[0], 90);
  EXPECT_EQ(bytes[9], 99);
  EXPECT_EQ(bytes[10], 0);
  EXPECT_EQ(bytes[59], 0);
  EXPECT_EQ(bytes[60], 0);  // data[0]
  EXPECT_EQ(bytes[69], 9);  // data[9]
}

TEST(Buffer, AllZeroBytesStoredAsZeroRun) {
  Buffer b;
  std::vector<uint8_t> zeros(4096, 0);
  b.AppendBytes(zeros);
  EXPECT_TRUE(b.IsAllZeros());
}

// One visited chunk piece: its backing vector (null for a zero run), the
// offset into it, and its length.
struct Piece {
  const std::vector<uint8_t>* data;
  uint64_t offset;
  uint64_t len;
  bool operator==(const Piece&) const = default;
};

std::vector<Piece> Pieces(const Buffer& b) {
  std::vector<Piece> out;
  b.ForEachChunk([&out](const auto& data, uint64_t from, uint64_t n) {
    out.push_back(Piece{data.get(), from, n});
  });
  return out;
}

TEST(Buffer, ForEachChunkVisitsSubBlockChunkAndZeroRun) {
  // A stamped block: a 16-byte data chunk, then a 4 080-byte zero tail.
  Buffer b;
  b.AppendBytes(std::vector<uint8_t>(16, 0x5A));
  b.AppendZeros(4096 - 16);
  const std::vector<Piece> whole = Pieces(b);
  ASSERT_EQ(whole.size(), 2u);
  ASSERT_NE(whole[0].data, nullptr);
  EXPECT_EQ(whole[0].offset, 0u);
  EXPECT_EQ(whole[0].len, 16u);
  EXPECT_EQ(whole[1], (Piece{nullptr, 0, 4096 - 16}));
  // A slice starting inside the data chunk and ending inside the zero run.
  EXPECT_EQ(Pieces(b.Slice(10, 100)),
            (std::vector<Piece>{{whole[0].data, 10, 6}, {nullptr, 0, 94}}));
  // A slice wholly inside the zero run sees only the zero run.
  EXPECT_EQ(Pieces(b.Slice(100, 200)),
            (std::vector<Piece>{{nullptr, 0, 200}}));
}

TEST(Buffer, ForEachChunkSeesAChunkStraddlingABlockEdge) {
  auto bytes = std::make_shared<const std::vector<uint8_t>>(6000, 0x11);
  Buffer b;
  b.AppendZeros(1000);
  b.AppendShared(bytes, 0, 6000);  // bytes 1000..7000 straddle 4096
  b.AppendZeros(8192 - 7000);
  EXPECT_EQ(Pieces(b.Slice(0, 4096)),
            (std::vector<Piece>{{nullptr, 0, 1000}, {bytes.get(), 0, 3096}}));
  EXPECT_EQ(Pieces(b.Slice(4096, 4096)),
            (std::vector<Piece>{{bytes.get(), 3096, 2904},
                                {nullptr, 0, 8192 - 7000}}));
}

TEST(Buffer, AppendSharedKeepsTheVectorAndReMergesContiguousRanges) {
  std::vector<uint8_t> raw(3 * 4096);
  for (size_t i = 0; i < raw.size(); i++) {
    raw[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  auto bytes = std::make_shared<const std::vector<uint8_t>>(raw);
  // Block by block, in order: the three ranges merge back into one chunk
  // that references the vector, not a copy of it.
  Buffer b;
  for (uint64_t i = 0; i < 3; i++) {
    b.AppendShared(bytes, i * 4096, 4096);
  }
  EXPECT_EQ(Pieces(b),
            (std::vector<Piece>{{bytes.get(), 0, 3 * 4096}}));
  EXPECT_EQ(b.ToBytes(), raw);
  // Out of order the ranges stay separate chunks.
  Buffer c;
  c.AppendShared(bytes, 4096, 4096);
  c.AppendShared(bytes, 0, 4096);
  EXPECT_EQ(Pieces(c),
            (std::vector<Piece>{{bytes.get(), 4096, 4096},
                                {bytes.get(), 0, 4096}}));
  // A shared range is not scanned: zero bytes stay a data chunk.
  auto zeros = std::make_shared<const std::vector<uint8_t>>(64, 0);
  Buffer z;
  z.AppendShared(zeros, 0, 64);
  EXPECT_FALSE(z.IsAllZeros());
  EXPECT_EQ(z.ToBytes(), std::vector<uint8_t>(64, 0));
}

TEST(Buffer, CrcMatchesMaterialized) {
  Buffer b;
  b.AppendBytes(std::vector<uint8_t>{5, 6, 7});
  b.AppendZeros(1000);
  b.AppendBytes(std::vector<uint8_t>{8});
  auto bytes = b.ToBytes();
  EXPECT_EQ(b.Crc(), Crc32c(bytes.data(), bytes.size()));
}

TEST(Buffer, Equality) {
  Buffer a = Buffer::FromString("hello");
  Buffer b;
  b.AppendBytes(std::vector<uint8_t>{'h', 'e'});
  b.AppendBytes(std::vector<uint8_t>{'l', 'l', 'o'});
  EXPECT_EQ(a, b);
  Buffer c = Buffer::FromString("hellx");
  EXPECT_FALSE(a == c);
  EXPECT_EQ(Buffer::Zeros(100), Buffer::Zeros(100));
  EXPECT_FALSE(Buffer::Zeros(100) == Buffer::Zeros(101));
}

// --- Buffer zero representation ---
//
// Buffers built from segments of real bytes, zero runs and shared all-zero
// vectors, optionally appended and sliced, each checked against a byte model
// through every read path. Zeros after the last data chunk are implicit, so
// the table covers each side of that boundary.

struct Segment {
  enum Kind { kData, kZeros, kSharedZeroBytes } kind;
  uint64_t len;
};

// gtest lists each case with a byte dump of this struct, so the fields that
// hold no pointers come first: the start of every listed name is then the
// same from run to run, where pointer bytes move with address randomisation.
struct ZeroCase {
  ZeroCase(const char* name, std::vector<Segment> left,
           std::vector<Segment> right, uint64_t slice_offset = 0,
           uint64_t slice_len = UINT64_MAX)
      : slice_offset(slice_offset),
        slice_len(slice_len),
        name(name),
        left(std::move(left)),
        right(std::move(right)) {}

  uint64_t slice_offset;
  uint64_t slice_len;  // UINT64_MAX: the whole buffer
  const char* name;
  std::vector<Segment> left;
  std::vector<Segment> right;  // appended onto `left` as a second buffer
};

// The buffer a segment list builds, its bytes, and which bytes came from a
// data chunk (IsAllZeros must be false exactly when any did).
struct Built {
  Buffer buffer;
  std::vector<uint8_t> bytes;
  std::vector<bool> from_data;
};

Built Build(const std::vector<Segment>& segments, uint8_t seed) {
  Built b;
  for (const Segment& seg : segments) {
    std::vector<uint8_t> bytes(seg.len, 0);
    if (seg.kind == Segment::kData) {
      for (uint64_t i = 0; i < seg.len; i++) {
        bytes[i] = static_cast<uint8_t>(1 + (seed + i * 7) % 251);
      }
      b.buffer.AppendBytes(bytes);
    } else if (seg.kind == Segment::kZeros) {
      b.buffer.AppendZeros(seg.len);
    } else {
      b.buffer.AppendShared(
          std::make_shared<const std::vector<uint8_t>>(bytes), 0, seg.len);
    }
    b.bytes.insert(b.bytes.end(), bytes.begin(), bytes.end());
    b.from_data.insert(b.from_data.end(), seg.len,
                       seg.kind != Segment::kZeros);
  }
  return b;
}

class BufferZeroTest : public ::testing::TestWithParam<ZeroCase> {};

TEST_P(BufferZeroTest, EveryReadPathMatchesTheBytes) {
  const ZeroCase& c = GetParam();
  Built left = Build(c.left, 3);
  const Built right = Build(c.right, 101);
  left.buffer.Append(right.buffer);
  left.bytes.insert(left.bytes.end(), right.bytes.begin(), right.bytes.end());
  left.from_data.insert(left.from_data.end(), right.from_data.begin(),
                        right.from_data.end());
  const uint64_t len = std::min<uint64_t>(c.slice_len, left.bytes.size());
  const Buffer b = left.buffer.Slice(c.slice_offset, len);
  const auto first = static_cast<std::ptrdiff_t>(c.slice_offset);
  const auto last = first + static_cast<std::ptrdiff_t>(len);
  const std::vector<uint8_t> want(left.bytes.begin() + first,
                                  left.bytes.begin() + last);
  const bool all_zeros =
      std::none_of(left.from_data.begin() + first,
                   left.from_data.begin() + last, [](bool d) { return d; });

  ASSERT_EQ(b.size(), want.size());
  EXPECT_EQ(b.ToBytes(), want);
  EXPECT_EQ(b.IsAllZeros(), all_zeros);
  EXPECT_EQ(b.Crc(), Crc32c(want.data(), want.size()));

  // CopyTo from every offset to the end, and of every single byte.
  for (uint64_t off = 0; off < want.size(); off++) {
    std::vector<uint8_t> out(want.size() - off, 0xEE);
    b.CopyTo(off, out);
    ASSERT_TRUE(std::equal(out.begin(), out.end(), want.begin() + off)) << off;
  }

  // ForEachChunk: pieces tile the buffer, zero runs are null with offset 0,
  // and no two zero runs are adjacent.
  std::vector<uint8_t> visited;
  bool last_was_zero = false;
  b.ForEachChunk([&](const auto& data, uint64_t from, uint64_t n) {
    EXPECT_GT(n, 0u);
    if (data == nullptr) {
      EXPECT_EQ(from, 0u);
      EXPECT_FALSE(last_was_zero);
      visited.insert(visited.end(), n, 0);
    } else {
      visited.insert(visited.end(), data->begin() + from,
                     data->begin() + from + n);
    }
    last_was_zero = data == nullptr;
  });
  EXPECT_EQ(visited, want);

  // Equality against a flat copy, a copy, and one byte off.
  EXPECT_EQ(b, Buffer::FromBytes(want));
  EXPECT_EQ(Buffer::FromBytes(want), b);
  const Buffer copy = b;
  EXPECT_EQ(copy, b);
  for (const uint64_t at : {uint64_t{0}, want.size() / 2, want.size() - 1}) {
    if (want.empty()) {
      break;
    }
    std::vector<uint8_t> other = want;
    other[at] ^= 0x40;
    EXPECT_FALSE(b == Buffer::FromBytes(other)) << at;
  }

  // Every sub-slice reads the model's bytes.
  for (uint64_t off = 0; off <= want.size(); off += 7) {
    for (uint64_t n = 0; off + n <= want.size(); n += 13) {
      ASSERT_EQ(b.Slice(off, n).ToBytes(),
                std::vector<uint8_t>(want.begin() + static_cast<long>(off),
                                     want.begin() + static_cast<long>(off + n)))
          << off << "+" << n;
    }
  }
}

using S = Segment;
INSTANTIATE_TEST_SUITE_P(
    Shapes, BufferZeroTest,
    ::testing::Values(
        ZeroCase{"ZerosOnly", {{S::kZeros, 300}}, {}},
        ZeroCase{"ZerosThenData", {{S::kZeros, 100}, {S::kData, 50}}, {}},
        ZeroCase{"DataThenZeros", {{S::kData, 50}, {S::kZeros, 200}}, {}},
        ZeroCase{"DataZerosData",
                 {{S::kData, 10}, {S::kZeros, 60}, {S::kData, 10}},
                 {}},
        ZeroCase{"SliceAcrossDataEnd",
                 {{S::kData, 50}, {S::kZeros, 200}}, {}, 20, 100},
        ZeroCase{"SliceInsideZeroTail",
                 {{S::kData, 50}, {S::kZeros, 200}}, {}, 60, 100},
        ZeroCase{"SliceInsideLeadingZeros",
                 {{S::kZeros, 100}, {S::kData, 50}}, {}, 10, 50},
        ZeroCase{"AppendZerosOntoData", {{S::kData, 40}}, {{S::kZeros, 90}}},
        ZeroCase{"AppendDataOntoZeros", {{S::kZeros, 90}}, {{S::kData, 40}}},
        ZeroCase{"AppendZerosOntoZeros", {{S::kZeros, 90}},
                 {{S::kZeros, 40}}},
        ZeroCase{"AppendDataThenZerosOntoDataThenZeros",
                 {{S::kData, 30}, {S::kZeros, 30}},
                 {{S::kData, 30}, {S::kZeros, 30}}},
        ZeroCase{"SharedZeroBytesAreData",
                 {{S::kSharedZeroBytes, 64}, {S::kZeros, 64}}, {}},
        ZeroCase{"Empty", {}, {}}),
    [](const ::testing::TestParamInfo<ZeroCase>& info) {
      return std::string(info.param.name);
    });

// --- Histogram ---

TEST(Histogram, BucketsAndPercentiles) {
  Histogram h;
  for (int i = 0; i < 100; i++) {
    h.Add(16, 16);  // 100 x 16
  }
  h.Add(1024, 1024);
  EXPECT_EQ(h.total_count(), 101u);
  EXPECT_EQ(h.total_weight(), 100u * 16 + 1024);
  EXPECT_EQ(h.BucketWeight(4), 100u * 16);   // [16, 32)
  EXPECT_EQ(h.BucketWeight(10), 1024u);      // [1024, 2048)
  EXPECT_LT(h.Percentile(0.5), 32.0);
  EXPECT_GE(h.Percentile(0.5), 16.0);
  EXPECT_NEAR(h.MeanValue(), (100.0 * 16 + 1024) / 101, 1e-9);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.MeanValue(), 0.0);
  EXPECT_EQ(h.BucketWeight(3), 0u);
  EXPECT_EQ(h.BucketCount(3), 0u);
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 0.0);
  EXPECT_EQ(h.value_sum(), 0.0);
}

TEST(Histogram, SingleBucketPercentilesInterpolate) {
  Histogram h;
  for (int i = 0; i < 10; i++) {
    h.Add(16);  // all samples in [16, 32)
  }
  // Every percentile must land inside (or at the top edge of) the bucket.
  for (const double f : {0.01, 0.25, 0.50, 0.99, 1.0}) {
    EXPECT_GE(h.Percentile(f), 16.0) << "fraction " << f;
    EXPECT_LE(h.Percentile(f), 32.0) << "fraction " << f;
  }
  // Linear interpolation within the bucket: p50 is the midpoint.
  EXPECT_NEAR(h.Percentile(0.5), 24.0, 1e-9);
  EXPECT_EQ(h.BucketCount(4), 10u);
  EXPECT_EQ(h.total_count(), 10u);
}

TEST(Histogram, LogLinearBucketGeometry) {
  // sub_bits=2: unit buckets below 4; octave [2^m, 2^(m+1)) splits into 4
  // sub-buckets of width 2^(m-2).
  EXPECT_EQ(HistogramBucketLower(0, 2), 0.0);
  EXPECT_EQ(HistogramBucketLower(3, 2), 3.0);
  EXPECT_EQ(HistogramBucketLower(4, 2), 4.0);   // unit/octave seam at 2^k
  EXPECT_EQ(HistogramBucketLower(7, 2), 7.0);   // [4,8): width 1
  EXPECT_EQ(HistogramBucketLower(8, 2), 8.0);   // [8,16): width 2
  EXPECT_EQ(HistogramBucketLower(9, 2), 10.0);
  EXPECT_EQ(HistogramBucketLower(12, 2), 16.0);  // [16,32): width 4
  EXPECT_EQ(HistogramBucketLower(13, 2), 20.0);

  Histogram h(/*sub_bits=*/2);
  EXPECT_EQ(h.sub_bits(), 2);
  h.Add(9);   // [8,10) -> bucket 8
  h.Add(10);  // [10,12) -> bucket 9
  h.Add(21);  // [20,24) -> bucket 13
  EXPECT_EQ(h.BucketCount(8), 1u);
  EXPECT_EQ(h.BucketCount(9), 1u);
  EXPECT_EQ(h.BucketCount(13), 1u);

  // Default geometry is unchanged: same samples, octave-wide buckets.
  Histogram legacy;
  EXPECT_EQ(legacy.sub_bits(), 0);
  legacy.Add(9);
  legacy.Add(10);
  legacy.Add(21);
  EXPECT_EQ(legacy.BucketCount(3), 2u);  // [8,16)
  EXPECT_EQ(legacy.BucketCount(4), 1u);  // [16,32)
}

TEST(Histogram, LogLinearBoundaryInterpolation) {
  // Regression: percentile interpolation must use the log-linear bucket's
  // own bounds, not the enclosing octave. All mass in [1024, 1040) with
  // sub_bits=6 (octave width 1024, sub-bucket width 16): every percentile
  // stays inside the 16-wide sub-bucket and p50 is its midpoint.
  Histogram h(/*sub_bits=*/6);
  for (int i = 0; i < 100; i++) {
    h.Add(1030);
  }
  for (const double f : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.Percentile(f), 1024.0) << "fraction " << f;
    EXPECT_LE(h.Percentile(f), 1040.0) << "fraction " << f;
  }
  EXPECT_NEAR(h.Percentile(0.5), 1032.0, 1e-9);

  // Equal mass in two adjacent sub-buckets: the median lands exactly on
  // their shared boundary.
  Histogram h2(/*sub_bits=*/2);
  h2.Add(8);
  h2.Add(9);
  h2.Add(10);
  h2.Add(11);
  EXPECT_DOUBLE_EQ(h2.Percentile(0.5), 10.0);

  // Bounded relative error: 1000 identical samples, p99.9 within 2^-6.
  Histogram fine(/*sub_bits=*/6);
  for (int i = 0; i < 1000; i++) {
    fine.Add(100000);
  }
  EXPECT_NEAR(fine.Percentile(0.999), 100000.0, 100000.0 / 64 + 1e-9);
}

TEST(Histogram, PercentileIsCountBasedNotWeightBased) {
  Histogram h;
  // One heavy sample at 4, many light samples at 1024: count percentiles
  // must follow the sample counts, ignoring the weight skew.
  h.Add(4, /*weight=*/100000);
  for (int i = 0; i < 99; i++) {
    h.Add(1024, /*weight=*/1);
  }
  EXPECT_GE(h.Percentile(0.5), 1024.0);
  EXPECT_LT(h.Percentile(0.5), 2048.0);
  EXPECT_EQ(h.BucketWeight(2), 100000u);  // [4, 8)
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.total_weight(), 100000u + 99);
  EXPECT_NEAR(h.value_sum(), 4.0 + 99.0 * 1024.0, 1e-9);
}

// --- Rng ---

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  Rng c(43);
  bool diverged = false;
  for (int i = 0; i < 100; i++) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = r.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SkewedFavorsHotRegion) {
  Rng r(7);
  int hot = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; i++) {
    if (r.Skewed(1000, 0.1, 0.9) < 100) {
      hot++;
    }
  }
  // ~90% + 10% * 10% ≈ 91% of accesses land in the hot 10%.
  EXPECT_GT(hot, kTrials * 80 / 100);
}

TEST(Rng, ExponentialMean) {
  Rng r(3);
  double sum = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; i++) {
    sum += r.Exponential(5.0);
  }
  EXPECT_NEAR(sum / kTrials, 5.0, 0.3);
}

// --- Status / Result ---

TEST(Status, Basics) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::NotFound("obj.17");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: obj.17");
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status::Corruption("bad crc"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kCorruption);
}

// --- Table ---

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "iops"});
  t.AddRow({"lsvd", "50000"});
  t.AddRow({"rbd", "12000"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("50000"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::FmtBytes(1536 * kKiB), "1.50 MiB");
  EXPECT_EQ(Table::FmtCount(1234567), "1,234,567");
}

// --- Units ---

TEST(Units, Conversions) {
  EXPECT_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_EQ(FromSeconds(2.5), 2 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(BytesPerSecond(kMiB, kSecond), static_cast<double>(kMiB));
  EXPECT_EQ(BytesPerSecond(kMiB, 0), 0.0);
}

}  // namespace
}  // namespace lsvd
