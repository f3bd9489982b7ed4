// Allocation guard for the zero-payload write path: an all-zero Buffer is
// its size alone, so making, copying, slicing and appending one allocates
// nothing, and encoding a journal record of a zero payload allocates only
// the encoded header, its shared_ptr control block and one chunk vector.
//
// This binary replaces the global operator new with a counting one, so the
// counts are exact and deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/lsvd/journal.h"
#include "src/lsvd/object_format.h"
#include "src/util/buffer.h"
#include "src/util/units.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lsvd {
namespace {

// Heap allocations made while running `fn`.
template <typename Fn>
uint64_t AllocsIn(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuard, AllZeroBuffersAllocateNothing) {
  uint64_t sink = 0;
  const uint64_t allocs = AllocsIn([&sink] {
    Buffer zeros = Buffer::Zeros(64 * kKiB);
    Buffer copy = zeros;
    Buffer slice = copy.Slice(4 * kKiB, 8 * kKiB);
    Buffer appended = Buffer::Zeros(4 * kKiB);
    appended.Append(slice);
    appended.Append(zeros);
    appended.AppendZeros(kBlockSize);
    uint8_t out[64];
    appended.CopyTo(100, out);
    appended.ForEachChunk(
        [&sink](const auto&, uint64_t, uint64_t n) { sink += n; });
    sink += appended.Crc() + (appended == zeros ? 1 : 0) +
            (appended.IsAllZeros() ? 1 : 0) + out[0];
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_NE(sink, 0u);
}

TEST(AllocGuard, JournalRecordOfZeroPayloadAllocatesOnlyItsHeader) {
  for (const size_t extents : {1, 32, 250}) {
    JournalRecord rec;
    rec.seq = 5;
    for (size_t i = 0; i < extents; i++) {
      rec.extents.push_back({2 * i * kBlockSize, kBlockSize});
    }
    rec.data = Buffer::Zeros(extents * kBlockSize);
    uint64_t size = 0;
    // The encoded header's vector, its shared_ptr control block and the
    // record's one-chunk vector.
    EXPECT_LE(AllocsIn([&] { size = EncodeJournalRecord(rec).size(); }), 3u)
        << extents << " extents";
    EXPECT_EQ(size, kBlockSize + extents * kBlockSize);
  }
}

TEST(AllocGuard, DataObjectOfZeroPayloadAllocatesOnlyItsHeader) {
  DataObjectHeader header;
  header.seq = 9;
  for (uint64_t i = 0; i < 2048; i++) {
    header.extents.push_back({i * 64 * kKiB, 16 * kKiB, 0, 0});
  }
  const Buffer data = Buffer::Zeros(2048 * 16 * kKiB);
  uint64_t size = 0;
  EXPECT_LE(AllocsIn([&] { size = EncodeDataObject(header, data).size(); }),
            3u);
  EXPECT_EQ(size, DataObjectHeaderSize(2048) + data.size());
}

}  // namespace
}  // namespace lsvd
