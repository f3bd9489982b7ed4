// CRC32C correctness: known vectors, incremental/extend semantics, and —
// the property the hot-path overhaul depends on — byte-identical results
// from the hardware (SSE4.2 / ARMv8) and software (slicing-by-8) paths
// across random lengths, alignments, and contents.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/util/crc32c.h"
#include "src/util/rng.h"

namespace lsvd {
namespace {

uint32_t CrcOfString(const std::string& s) {
  return Crc32c(s.data(), s.size());
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / standard CRC32C check values.
  EXPECT_EQ(CrcOfString(""), 0x00000000u);
  EXPECT_EQ(CrcOfString("123456789"), 0xE3069283u);
  EXPECT_EQ(CrcOfString("a"), 0xC1D04330u);
  EXPECT_EQ(CrcOfString("abc"), 0x364B3FB7u);
  EXPECT_EQ(CrcOfString("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
  // 32 bytes of zeros (iSCSI test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(CrcOfString(zeros), 0x8A9136AAu);
  // 32 bytes of 0xFF.
  const std::string ffs(32, '\xff');
  EXPECT_EQ(CrcOfString(ffs), 0x62A8AB43u);
}

TEST(Crc32c, ExtendComposesLikeOneShot) {
  Rng rng(7);
  std::vector<uint8_t> data(1 << 16);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  // Any split point must give the same result via Extend.
  for (const size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{4096},
                           data.size() - 3, data.size()}) {
    uint32_t crc = Crc32cExtend(0, data.data(), cut);
    crc = Crc32cExtend(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "cut=" << cut;
  }
}

TEST(Crc32c, ImplNameIsReported) {
  const std::string name = Crc32cImplName();
  EXPECT_TRUE(name == "sse4.2" || name == "armv8" || name == "software")
      << name;
}

TEST(Crc32c, HardwareMatchesSoftwareExhaustiveSmall) {
  const auto hw = internal::Crc32cHardwareImpl();
  if (hw == nullptr) {
    GTEST_SKIP() << "no hardware CRC32C on this machine";
  }
  // Every length 0..64 at every alignment 0..8, patterned data.
  std::vector<uint8_t> buf(128);
  for (size_t i = 0; i < buf.size(); i++) {
    buf[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  for (size_t align = 0; align <= 8; align++) {
    for (size_t len = 0; len + align <= 96; len++) {
      const uint32_t sw =
          internal::Crc32cExtendSoftware(0, buf.data() + align, len);
      const uint32_t hwv = hw(0, buf.data() + align, len);
      ASSERT_EQ(sw, hwv) << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32c, HardwareMatchesSoftwareRandomized) {
  const auto hw = internal::Crc32cHardwareImpl();
  if (hw == nullptr) {
    GTEST_SKIP() << "no hardware CRC32C on this machine";
  }
  for (uint64_t seed = 1; seed <= 8; seed++) {
    Rng rng(seed);
    std::vector<uint8_t> buf(1 << 20);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    for (int trial = 0; trial < 200; trial++) {
      const size_t len = rng.Uniform(buf.size());
      const size_t off = rng.Uniform(buf.size() - len + 1);
      const uint32_t seed_crc = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(internal::Crc32cExtendSoftware(seed_crc, buf.data() + off, len),
                hw(seed_crc, buf.data() + off, len))
          << "seed=" << seed << " trial=" << trial << " off=" << off
          << " len=" << len;
    }
  }
}

TEST(Crc32c, ExtendZerosMatchesByteLoop) {
  // The O(log n) algebraic zero-extension must agree exactly with feeding
  // real zero bytes through the byte engine, from any starting state.
  std::vector<uint8_t> zeros(1 << 16, 0);
  Rng rng(42);
  for (const uint64_t n :
       {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{7}, uint64_t{8},
        uint64_t{255}, uint64_t{256}, uint64_t{4096}, uint64_t{4097},
        uint64_t{65536}}) {
    for (int trial = 0; trial < 8; trial++) {
      const uint32_t start = trial == 0 ? 0 : static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32cExtendZeros(start, n),
                internal::Crc32cExtendSoftware(start, zeros.data(), n))
          << "n=" << n << " start=" << start;
    }
  }
  // Random lengths, and composition: zeros then data == data after zeros fed
  // as bytes.
  std::vector<uint8_t> tail(64);
  for (auto& b : tail) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (int trial = 0; trial < 100; trial++) {
    const uint64_t n = rng.Uniform(zeros.size() + 1);
    const uint32_t start = static_cast<uint32_t>(rng.Next());
    const uint32_t algebraic = Crc32cExtendZeros(start, n);
    const uint32_t byte_loop =
        internal::Crc32cExtendSoftware(start, zeros.data(), n);
    ASSERT_EQ(algebraic, byte_loop) << "n=" << n;
    ASSERT_EQ(Crc32cExtend(algebraic, tail.data(), tail.size()),
              Crc32cExtend(byte_loop, tail.data(), tail.size()));
  }
  // Huge lengths stay O(log n): just check determinism and a couple of
  // reference identities (extending by a+b zeros == extending twice).
  const uint32_t big = Crc32cExtendZeros(0xDEADBEEF, uint64_t{1} << 40);
  EXPECT_EQ(big, Crc32cExtendZeros(
                     Crc32cExtendZeros(0xDEADBEEF, uint64_t{1} << 39),
                     uint64_t{1} << 39));
}

// Crc32cExtendZeros caches the composed operator per length in a small
// thread-local table: interleaved, repeated and evicting lengths must all
// still match the byte loop, on every thread.
TEST(Crc32c, ExtendZerosCacheMatchesByteLoopForInterleavedLengths) {
  std::vector<uint8_t> zeros(1 << 17, 0);
  // 400 distinct lengths (more than the cache holds, so slots are evicted
  // and refilled): journal-shaped ones (4 KiB multiples, a header's zero
  // tail) and random ones.
  std::vector<uint64_t> lengths;
  for (uint64_t k = 1; k <= 32; k++) {
    lengths.push_back(k * 4096);
    lengths.push_back(4096 - 40 - 16 * k);
  }
  Rng rng(5);
  while (lengths.size() < 400) {
    lengths.push_back(1 + rng.Uniform(zeros.size()));
  }
  const auto check = [&](uint64_t seed, int* mismatches) {
    Rng r(seed);
    for (int i = 0; i < 3000; i++) {
      // Mostly the journal-shaped head of the list, so lengths repeat.
      const size_t pick = r.Uniform(4) == 0 ? r.Uniform(lengths.size())
                                            : r.Uniform(64);
      const uint64_t n = lengths[pick];
      const auto start = static_cast<uint32_t>(r.Next());
      if (Crc32cExtendZeros(start, n) !=
          internal::Crc32cExtendSoftware(start, zeros.data(), n)) {
        ++*mismatches;
      }
    }
  };
  int here = 0;
  check(1, &here);
  EXPECT_EQ(here, 0);
  int a = 0;
  int b = 0;
  std::thread t1([&] { check(2, &a); });
  std::thread t2([&] { check(3, &b); });
  t1.join();
  t2.join();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 0);
}

TEST(Crc32c, DispatchedImplMatchesSoftware) {
  // Whatever Crc32cExtend dispatched to must agree with the reference.
  Rng rng(99);
  std::vector<uint8_t> buf(65536);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (int trial = 0; trial < 50; trial++) {
    const size_t len = rng.Uniform(buf.size());
    const size_t off = rng.Uniform(buf.size() - len + 1);
    ASSERT_EQ(Crc32cExtend(1234, buf.data() + off, len),
              internal::Crc32cExtendSoftware(1234, buf.data() + off, len));
  }
}

}  // namespace
}  // namespace lsvd
