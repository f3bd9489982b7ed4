// Unit tests for the block-granular FIFO read cache.
#include <gtest/gtest.h>

#include <optional>

#include "src/lsvd/read_cache.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

class ReadCacheTest : public ::testing::Test {
 protected:
  ReadCacheTest() : host_(&sim_, HostConfig()) {
    base_ = *host_.AllocRegion(kRegionSize);
    rc_ = std::make_unique<ReadCache>(&host_, base_, kRegionSize, kLine);
  }

  static ClientHostConfig HostConfig() {
    ClientHostConfig hc;
    hc.ssd_capacity = kGiB;
    hc.ssd = SsdParams::Instant();
    return hc;
  }

  Result<Buffer> ReadVlba(uint64_t vlba, uint64_t len) {
    auto t = rc_->map().LookupOne(vlba);
    if (!t.has_value()) {
      return Status::NotFound("not cached");
    }
    std::optional<Result<Buffer>> r;
    rc_->ReadData(t->plba, len, [&](Result<Buffer> rr) { r = std::move(rr); });
    sim_.Run();
    return std::move(*r);
  }

  static constexpr uint64_t kRegionSize = 8 * kMiB;
  static constexpr uint64_t kLine = 64 * kKiB;

  Simulator sim_;
  ClientHost host_;
  uint64_t base_ = 0;
  std::unique_ptr<ReadCache> rc_;
};

TEST_F(ReadCacheTest, InsertThenHit) {
  Buffer data = TestPattern(kLine, 1);
  rc_->Insert(kMiB, data);
  sim_.Run();
  EXPECT_TRUE(rc_->map().LookupOne(kMiB).has_value());
  auto r = ReadVlba(kMiB, kLine);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(ReadCacheTest, MultiLineInsertSplitsAcrossSlots) {
  Buffer data = TestPattern(3 * kLine, 2);
  rc_->Insert(0, data);
  sim_.Run();
  EXPECT_EQ(rc_->stats().insertions, 3u);
  EXPECT_EQ(rc_->map().mapped_bytes(), 3 * kLine);
  // Middle of the range readable.
  auto t = rc_->map().LookupOne(kLine + 4096);
  ASSERT_TRUE(t.has_value());
}

TEST_F(ReadCacheTest, PartialTailLine) {
  rc_->Insert(0, TestPattern(kLine + 8192, 3));
  sim_.Run();
  EXPECT_EQ(rc_->map().mapped_bytes(), kLine + 8192);
}

TEST_F(ReadCacheTest, FifoEvictionRecyclesOldestSlot) {
  const uint64_t lines = rc_->num_lines();
  for (uint64_t i = 0; i < lines; i++) {
    rc_->Insert(i * kLine, TestPattern(kLine, 10 + i));
  }
  sim_.Run();
  EXPECT_TRUE(rc_->map().LookupOne(0).has_value());
  // One more insert evicts the first line.
  rc_->Insert(lines * kLine, TestPattern(kLine, 99));
  sim_.Run();
  EXPECT_FALSE(rc_->map().LookupOne(0).has_value());
  EXPECT_TRUE(rc_->map().LookupOne(lines * kLine).has_value());
  EXPECT_GE(rc_->stats().evictions, 1u);
}

TEST_F(ReadCacheTest, EvictionDoesNotDropRelocatedData) {
  const uint64_t lines = rc_->num_lines();
  // Fill slot 0 with vlba 0, then re-insert vlba 0 (lands in slot 1).
  rc_->Insert(0, TestPattern(kLine, 1));
  rc_->Insert(0, TestPattern(kLine, 2));
  sim_.Run();
  // Laps later, slot 0 gets recycled; the slot-1 mapping for vlba 0 must
  // survive since the map no longer points at slot 0.
  for (uint64_t i = 2; i <= lines; i++) {
    rc_->Insert(i * kLine, TestPattern(kLine, 50 + i));
  }
  sim_.Run();
  // Slot 0 and slot 1... slot 1 holds vlba 0 until it is itself recycled.
  // After exactly `lines` total inserts, slot 1 was recycled too, so run one
  // fewer round: re-check with a fresh cache for determinism.
  auto rc2 = std::make_unique<ReadCache>(&host_, *host_.AllocRegion(kRegionSize),
                                         kRegionSize, kLine);
  rc2->Insert(0, TestPattern(kLine, 1));      // slot 0
  rc2->Insert(0, TestPattern(kLine, 2));      // slot 1 (map points here)
  rc2->Insert(kMiB, TestPattern(kLine, 3));   // slot 2
  sim_.Run();
  const uint64_t lines2 = rc2->num_lines();
  for (uint64_t i = 0; i < lines2 - 3; i++) {
    rc2->Insert((10 + i) * kMiB, TestPattern(kLine, 60));  // fill the rest
  }
  sim_.Run();
  // Next insert recycles slot 0 — vlba 0 must stay mapped (to slot 1).
  rc2->Insert(100 * kMiB, TestPattern(kLine, 61));
  sim_.Run();
  EXPECT_TRUE(rc2->map().LookupOne(0).has_value());
}

TEST_F(ReadCacheTest, InvalidateRemovesMapping) {
  rc_->Insert(0, TestPattern(2 * kLine, 4));
  sim_.Run();
  rc_->Invalidate(kLine, 4096);
  EXPECT_TRUE(rc_->map().LookupOne(0).has_value());
  EXPECT_FALSE(rc_->map().LookupOne(kLine).has_value());
  EXPECT_TRUE(rc_->map().LookupOne(kLine + 4096).has_value());
}

TEST_F(ReadCacheTest, PersistAndLoadMap) {
  rc_->Insert(0, TestPattern(kLine, 5));
  rc_->Insert(4 * kMiB, TestPattern(kLine, 6));
  sim_.Run();
  std::optional<Status> s;
  rc_->PersistMap([&](Status st) { s = st; });
  sim_.Run();
  ASSERT_TRUE(s->ok());

  rc_->Kill();
  auto fresh = std::make_unique<ReadCache>(&host_, base_, kRegionSize, kLine);
  std::optional<Status> ls;
  fresh->LoadMap([&](Status st) { ls = st; });
  sim_.Run();
  ASSERT_TRUE(ls->ok());
  EXPECT_TRUE(fresh->map().LookupOne(0).has_value());
  EXPECT_TRUE(fresh->map().LookupOne(4 * kMiB).has_value());
  EXPECT_EQ(fresh->map().mapped_bytes(), 2 * kLine);
}

// A slot whose fill write fails must never become visible in the map —
// before the fix the map entry was installed at Insert time and the failed
// completion was ignored, so reads kept routing to a slot whose data never
// landed.
TEST_F(ReadCacheTest, FailedFillInstallsNoMapping) {
  host_.ssd()->FailNextWrites(1);
  rc_->Insert(kMiB, TestPattern(kLine, 7));
  sim_.Run();
  EXPECT_FALSE(rc_->map().LookupOne(kMiB).has_value());
  EXPECT_EQ(rc_->map().mapped_bytes(), 0u);
  EXPECT_EQ(rc_->stats().fill_failures, 1u);
  // The cache keeps working: a later fill of the same range lands normally.
  Buffer data = TestPattern(kLine, 8);
  rc_->Insert(kMiB, data);
  sim_.Run();
  auto r = ReadVlba(kMiB, kLine);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

// The map entry appears only once the fill write is acknowledged; a read
// racing the fill misses (and re-fetches) instead of hitting unwritten SSD.
TEST_F(ReadCacheTest, MappingVisibleOnlyAfterFillCompletes) {
  rc_->Insert(0, TestPattern(kLine, 9));
  EXPECT_FALSE(rc_->map().LookupOne(0).has_value());
  sim_.Run();
  EXPECT_TRUE(rc_->map().LookupOne(0).has_value());
}

// An invalidation that overlaps an in-flight fill must win: the fill's
// completion may not install a mapping to the now-stale data.
TEST_F(ReadCacheTest, InvalidateBeatsInflightFill) {
  rc_->Insert(0, TestPattern(2 * kLine, 10));
  rc_->Invalidate(kLine, 4096);  // overlaps the second in-flight line
  sim_.Run();
  EXPECT_TRUE(rc_->map().LookupOne(0).has_value());
  EXPECT_FALSE(rc_->map().LookupOne(kLine).has_value());
}

// Fills in flight race a client write and a FIFO wrap at once. Each fill
// is identified by its generation alone: a recycled slot's fill installs
// nothing, an invalidated fill installs nothing, a failed fill counts a
// failure, and every other fill maps its line.
TEST_F(ReadCacheTest, InflightFillsRaceAnInvalidationAndAFifoWrap) {
  ASSERT_EQ(rc_->num_lines(), 112u);
  // Window A takes slots 0-3; a write lands over its second line.
  rc_->Insert(0, TestPattern(4 * kLine, 13));
  rc_->Invalidate(kLine, 4096);
  // Window B, slot 4: its fill write fails.
  host_.ssd()->FailNextWrites(1);
  rc_->Insert(kMiB, TestPattern(kLine, 14));
  // Window C takes slots 5-111 and wraps into slot 0 while A's first fill
  // is still in flight.
  const Buffer c = TestPattern(108 * kLine, 15);
  rc_->Insert(2 * kMiB, c);
  sim_.Run();

  const ReadCacheStats stats = rc_->stats();
  EXPECT_EQ(stats.insertions, 4u + 1u + 108u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.fill_failures, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(rc_->map().LookupOne(0).has_value());      // recycled
  EXPECT_FALSE(rc_->map().LookupOne(kLine).has_value());  // invalidated
  EXPECT_FALSE(rc_->map().LookupOne(kMiB).has_value());   // failed
  EXPECT_EQ(rc_->map().mapped_bytes(), 2 * kLine + 108 * kLine);
  auto a = ReadVlba(2 * kLine, 2 * kLine);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, TestPattern(4 * kLine, 13).Slice(2 * kLine, 2 * kLine));
  // C's last line sits in slot 0, where A's first line was headed.
  auto last = ReadVlba(2 * kMiB + 107 * kLine, kLine);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, c.Slice(107 * kLine, kLine));
}

// The mapped_bytes gauge must report the map's bytes, not the sum of slot
// lengths — invalidations and overwrites remove map extents without
// clearing slots, so the old slot-sum over-reported.
TEST_F(ReadCacheTest, MappedBytesGaugeTracksMapNotSlots) {
  MetricsRegistry metrics;
  auto rc = std::make_unique<ReadCache>(
      &host_, *host_.AllocRegion(kRegionSize), kRegionSize, kLine, &metrics);
  rc->Insert(0, TestPattern(2 * kLine, 11));
  sim_.Run();
  EXPECT_EQ(metrics.Snapshot().Find("lsvd.read_cache.mapped_bytes")->value,
            static_cast<double>(rc->map().mapped_bytes()));

  // Invalidate one line: the slot keeps its length but the map shrinks; the
  // gauge must follow the map.
  rc->Invalidate(kLine, kLine);
  EXPECT_EQ(rc->map().mapped_bytes(), kLine);
  EXPECT_EQ(metrics.Snapshot().Find("lsvd.read_cache.mapped_bytes")->value,
            static_cast<double>(kLine));

  // Re-inserting vlba 0 moves the mapping to a new slot; the old slot still
  // holds a length, but mapped bytes must not double-count.
  rc->Insert(0, TestPattern(kLine, 12));
  sim_.Run();
  EXPECT_EQ(metrics.Snapshot().Find("lsvd.read_cache.mapped_bytes")->value,
            static_cast<double>(kLine));
}

TEST_F(ReadCacheTest, LoadMapOnBlankDeviceFailsGracefully) {
  auto fresh_base = *host_.AllocRegion(kRegionSize);
  auto fresh = std::make_unique<ReadCache>(&host_, fresh_base, kRegionSize,
                                           kLine);
  std::optional<Status> s;
  fresh->LoadMap([&](Status st) { s = st; });
  sim_.Run();
  ASSERT_TRUE(s.has_value());
  EXPECT_FALSE(s->ok());
  EXPECT_TRUE(fresh->map().empty());
}

}  // namespace
}  // namespace lsvd
