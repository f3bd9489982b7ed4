// Unit tests for the log-structured write-back cache: append/map/read,
// batching of concurrent writes, wrap-around, eviction gating, checkpointing
// and log replay after crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/lsvd/write_cache.h"
#include "src/util/crc32c.h"
#include "tests/lsvd_test_util.h"

namespace lsvd {
namespace {

class WriteCacheTest : public ::testing::Test {
 protected:
  WriteCacheTest()
      : host_(&sim_, HostConfig()),
        base_(*host_.AllocRegion(kRegionSize)),
        wc_(std::make_unique<WriteCache>(&host_, base_, kRegionSize,
                                         ZeroCosts())) {
    std::optional<Status> s;
    wc_->Format([&](Status st) { s = st; });
    sim_.Run();
    EXPECT_TRUE(s.has_value() && s->ok());
  }

  static ClientHostConfig HostConfig() {
    ClientHostConfig hc;
    hc.ssd_capacity = 2 * kGiB;
    hc.ssd = SsdParams::Instant();
    return hc;
  }
  static StageCosts ZeroCosts() { return StageCosts{0, 0, 0, 0, 0, 0, 0, 0, 0}; }

  Status Append(uint64_t vlba, Buffer data, uint64_t batch = 1) {
    std::optional<Status> s;
    wc_->Append(vlba, std::move(data), batch, [&](Status st) { s = st; });
    sim_.Run();
    return s.value_or(Status::Unavailable("append stalled"));
  }

  Result<Buffer> ReadVlba(uint64_t vlba, uint64_t len) {
    auto t = wc_->map().LookupOne(vlba);
    if (!t.has_value()) {
      return Status::NotFound("vlba not in cache map");
    }
    std::optional<Result<Buffer>> r;
    wc_->ReadData(t->plba, len, [&](Result<Buffer> rr) { r = std::move(rr); });
    sim_.Run();
    return std::move(*r);
  }

  // Rebuilds a WriteCache over the same region, as after a restart.
  std::unique_ptr<WriteCache> Reopen() {
    wc_->Kill();
    auto fresh = std::make_unique<WriteCache>(&host_, base_, kRegionSize,
                                              ZeroCosts());
    std::optional<Status> s;
    fresh->Recover([&](Status st) { s = st; });
    sim_.Run();
    EXPECT_TRUE(s.has_value()) << "recovery did not complete";
    EXPECT_TRUE(s->ok()) << s->ToString();
    return fresh;
  }

  static constexpr uint64_t kRegionSize = 64 * kMiB;

  Simulator sim_;
  ClientHost host_;
  uint64_t base_;
  std::unique_ptr<WriteCache> wc_;
};

TEST_F(WriteCacheTest, AppendUpdatesMapAndDataReadable) {
  Buffer data = TestPattern(8192, 1);
  ASSERT_TRUE(Append(kMiB, data).ok());
  EXPECT_EQ(wc_->stats().records, 1u);
  EXPECT_EQ(wc_->map().mapped_bytes(), 8192u);
  auto r = ReadVlba(kMiB, 8192);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(WriteCacheTest, ConcurrentAppendsBatchIntoFewerRecords) {
  // Under realistic device timing the pipeline window fills and subsequent
  // appends coalesce into shared records.
  ClientHostConfig hc;
  hc.ssd_capacity = 2 * kGiB;
  hc.ssd = SsdParams::P3700();
  ClientHost host(&sim_, hc);
  const uint64_t base = *host.AllocRegion(kRegionSize);
  WriteCache wc(&host, base, kRegionSize, ZeroCosts());
  std::optional<Status> fmt;
  wc.Format([&](Status s) { fmt = s; });
  sim_.Run();
  ASSERT_TRUE(fmt->ok());

  int done = 0;
  constexpr int kWrites = 64;
  for (int i = 0; i < kWrites; i++) {
    wc.Append(static_cast<uint64_t>(i) * 4096, TestPattern(4096, 10 + i), 1,
              [&](Status s) {
                ASSERT_TRUE(s.ok());
                done++;
              });
  }
  sim_.Run();
  EXPECT_EQ(done, kWrites);
  EXPECT_LT(wc.stats().records, static_cast<uint64_t>(kWrites));
  EXPECT_EQ(wc.map().mapped_bytes(), static_cast<uint64_t>(kWrites) * 4096);
}

// --- adaptive batching (DESIGN.md §12) ---

TEST_F(WriteCacheTest, PlugDeadlineForceStartsLoneSmallWrite) {
  // Under realistic device timing: two large records in flight (deeper than
  // the fast path skips) plus one small pending write is exactly the plug
  // scenario. With a 5 us deadline (far below the ~40 us record write) the
  // timer, not the pipeline drain, starts the lone write's record.
  ClientHostConfig hc;
  hc.ssd_capacity = 2 * kGiB;
  hc.ssd = SsdParams::P3700();
  ClientHost host(&sim_, hc);
  const uint64_t base = *host.AllocRegion(kRegionSize);
  WriteCache wc(&host, base, kRegionSize, ZeroCosts());
  wc.SetAdaptiveBatching(/*plug_deadline=*/5 * kMicrosecond);
  std::optional<Status> fmt;
  wc.Format([&](Status s) { fmt = s; });
  sim_.Run();
  ASSERT_TRUE(fmt->ok());

  std::optional<Status> s1, s2, s3;
  wc.Append(0, TestPattern(64 * kKiB, 1), 1, [&](Status s) { s1 = s; });
  wc.Append(kMiB, TestPattern(64 * kKiB, 2), 1, [&](Status s) { s2 = s; });
  wc.Append(2 * kMiB, TestPattern(4096, 3), 1, [&](Status s) { s3 = s; });
  sim_.Run();
  ASSERT_TRUE(s1.has_value() && s1->ok());
  ASSERT_TRUE(s2.has_value() && s2->ok());
  ASSERT_TRUE(s3.has_value() && s3->ok());
  EXPECT_EQ(wc.stats().records, 3u);
  EXPECT_EQ(wc.metrics()->Snapshot().CounterValue(
                "lsvd.write_cache.deadline_seals"),
            1u);
}

TEST_F(WriteCacheTest, FastPathSkipsPlugWaitAtShallowDepth) {
  // Same two-write sequence with and without a plug deadline, which turns
  // on the small-write fast path; the second (small) write must acknowledge
  // strictly earlier with it, because it no longer waits for the first
  // record to drain. The deadline is far beyond the run, so only the fast
  // path can start the record early.
  auto ack_time = [this](bool fast_path) {
    Simulator sim;
    ClientHostConfig hc;
    hc.ssd_capacity = 2 * kGiB;
    hc.ssd = SsdParams::P3700();
    ClientHost host(&sim, hc);
    const uint64_t base = *host.AllocRegion(kRegionSize);
    WriteCache wc(&host, base, kRegionSize, ZeroCosts());
    if (fast_path) {
      wc.SetAdaptiveBatching(/*plug_deadline=*/kSecond);
    }
    std::optional<Status> fmt;
    wc.Format([&](Status s) { fmt = s; });
    sim.Run();
    EXPECT_TRUE(fmt->ok());
    std::optional<Status> s1;
    std::optional<Nanos> acked_at;
    wc.Append(0, TestPattern(64 * kKiB, 1), 1, [&](Status s) { s1 = s; });
    wc.Append(kMiB, TestPattern(4096, 2), 1, [&](Status s) {
      EXPECT_TRUE(s.ok());
      acked_at = sim.now();
    });
    sim.Run();
    EXPECT_TRUE(s1.has_value() && s1->ok());
    EXPECT_TRUE(acked_at.has_value());
    return *acked_at;
  };
  EXPECT_LT(ack_time(true), ack_time(false));
}

TEST_F(WriteCacheTest, CoalescedBarriersShareFlushes) {
  wc_->SetAdaptiveBatching(/*plug_deadline=*/kSecond);
  ASSERT_TRUE(Append(0, TestPattern(4096, 1)).ok());
  int done = 0;
  for (int i = 0; i < 4; i++) {
    wc_->Barrier([&](Status s) {
      ASSERT_TRUE(s.ok());
      done++;
    });
  }
  sim_.Run();
  EXPECT_EQ(done, 4);
  // Barrier #1 started a flush; #2-4 arrived while it was in flight and
  // shared the follow-up flush: 3 of the 4 barriers were coalesced.
  EXPECT_EQ(wc_->metrics()->Snapshot().CounterValue(
                "lsvd.write_cache.journal.coalesced_flushes"),
            3u);
  // Sequential barriers (no overlap) never coalesce.
  std::optional<Status> s;
  wc_->Barrier([&](Status st) { s = st; });
  sim_.Run();
  ASSERT_TRUE(s->ok());
  EXPECT_EQ(wc_->metrics()->Snapshot().CounterValue(
                "lsvd.write_cache.journal.coalesced_flushes"),
            3u);
}

TEST_F(WriteCacheTest, OverwriteShadowsOldData) {
  ASSERT_TRUE(Append(0, TestPattern(4096, 1)).ok());
  Buffer newer = TestPattern(4096, 2);
  ASSERT_TRUE(Append(0, newer).ok());
  auto r = ReadVlba(0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, newer);
}

TEST_F(WriteCacheTest, BarrierMakesRecordsDurable) {
  Buffer data = TestPattern(4096, 3);
  ASSERT_TRUE(Append(0, data).ok());
  std::optional<Status> s;
  wc_->Barrier([&](Status st) { s = st; });
  sim_.Run();
  ASSERT_TRUE(s->ok());
  host_.ssd()->PowerFail();
  auto fresh = Reopen();
  EXPECT_EQ(fresh->map().mapped_bytes(), 4096u);
}

TEST_F(WriteCacheTest, PowerFailLosesUnflushedTail) {
  ASSERT_TRUE(Append(0, TestPattern(4096, 1)).ok());
  std::optional<Status> s;
  wc_->Barrier([&](Status st) { s = st; });
  sim_.Run();
  ASSERT_TRUE(s->ok());
  ASSERT_TRUE(Append(4096, TestPattern(4096, 2)).ok());  // never flushed

  host_.ssd()->PowerFail();
  auto fresh = Reopen();
  // Only the flushed record survives; replay stops at the lost one.
  EXPECT_EQ(fresh->map().mapped_bytes(), 4096u);
  EXPECT_TRUE(fresh->map().LookupOne(0).has_value());
  EXPECT_FALSE(fresh->map().LookupOne(4096).has_value());
}

TEST_F(WriteCacheTest, RecoveryReplaysLogAfterCheckpoint) {
  ASSERT_TRUE(Append(0, TestPattern(4096, 1), 1).ok());
  std::optional<Status> cs;
  wc_->WriteCheckpoint([&](Status s) { cs = s; });
  sim_.Run();
  ASSERT_TRUE(cs->ok());
  // More appends after the checkpoint.
  ASSERT_TRUE(Append(4096, TestPattern(4096, 2), 2).ok());
  ASSERT_TRUE(Append(8192, TestPattern(4096, 3), 3).ok());
  std::optional<Status> fs;
  wc_->Barrier([&](Status s) { fs = s; });
  sim_.Run();
  ASSERT_TRUE(fs->ok());

  host_.ssd()->PowerFail();
  auto fresh = Reopen();
  EXPECT_EQ(fresh->map().mapped_bytes(), 3u * 4096);
  EXPECT_TRUE(fresh->map().LookupOne(8192).has_value());
  // Replay also restores record metadata for backend rewind.
  auto tail = fresh->RecordsAfterBatch(1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].max_batch_seq, 2u);
}

TEST_F(WriteCacheTest, ReleaseIsLazyEvictionIsOnDemand) {
  ASSERT_TRUE(Append(0, TestPattern(4096, 1), /*batch=*/1).ok());
  ASSERT_TRUE(Append(4096, TestPattern(4096, 2), /*batch=*/2).ok());
  const uint64_t used_before = wc_->used_bytes();
  ASSERT_GT(used_before, 0u);

  // Marking batch 1 synced keeps the data cached and readable (§3.1: FIFO
  // eviction happens only under space pressure).
  wc_->ReleaseThrough(1);
  EXPECT_EQ(wc_->used_bytes(), used_before);
  EXPECT_TRUE(wc_->map().LookupOne(0).has_value());
  EXPECT_FALSE(wc_->fully_synced());
  wc_->ReleaseThrough(2);
  EXPECT_TRUE(wc_->fully_synced());

  // Explicit eviction drops mappings and frees space.
  ASSERT_TRUE(EvictReleasableSync(&sim_, wc_.get()).ok());
  EXPECT_LT(wc_->used_bytes(), used_before);
  EXPECT_FALSE(wc_->map().LookupOne(0).has_value());
  EXPECT_FALSE(wc_->map().LookupOne(4096).has_value());
  EXPECT_EQ(wc_->stats().evicted_records, 2u);
}

TEST_F(WriteCacheTest, EvictionKeepsNewerOverwrites) {
  // Record 1 (batch 1) writes LBA 0; record 2 (batch 2) overwrites it.
  ASSERT_TRUE(Append(0, TestPattern(4096, 1), 1).ok());
  Buffer newer = TestPattern(4096, 2);
  ASSERT_TRUE(Append(0, newer, 2).ok());
  // Evicting record 1 must not remove the newer mapping.
  wc_->ReleaseThrough(1);
  ASSERT_TRUE(EvictReleasableSync(&sim_, wc_.get()).ok());
  EXPECT_EQ(wc_->stats().evicted_records, 1u);
  auto r = ReadVlba(0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, newer);
}

TEST_F(WriteCacheTest, AppendsStallWhenFullAndResumeAfterRelease) {
  // Fill the log with large appends that are never released.
  const uint64_t chunk = 2 * kMiB;
  uint64_t written = 0;
  int acked = 0;
  int submitted = 0;
  while (wc_->free_bytes() > 4 * chunk) {
    wc_->Append(written, Buffer::Zeros(chunk), 1, [&](Status s) {
      ASSERT_TRUE(s.ok());
      acked++;
    });
    submitted++;
    written += chunk;
    sim_.Run();
  }
  // The next append cannot fit and must stall.
  bool stalled_acked = false;
  wc_->Append(written, Buffer::Zeros(4 * chunk), 2,
              [&](Status s) {
                ASSERT_TRUE(s.ok());
                stalled_acked = true;
              });
  sim_.Run();
  EXPECT_FALSE(stalled_acked);
  EXPECT_GT(wc_->stats().stalled_appends, 0u);

  // Releasing batch 1 frees everything and the stalled write completes.
  wc_->ReleaseThrough(1);
  sim_.Run();
  EXPECT_TRUE(stalled_acked);
}

TEST_F(WriteCacheTest, LogWrapsAroundAndRecovers) {
  // Write, release, and rewrite enough to lap the log a few times.
  const uint64_t chunk = kMiB;
  const uint64_t laps = 3 * (kRegionSize / chunk);
  for (uint64_t i = 0; i < laps; i++) {
    ASSERT_TRUE(Append((i % 16) * chunk, Buffer::Zeros(chunk), i + 1).ok());
    wc_->ReleaseThrough(i);  // keep only the most recent record
  }
  ASSERT_TRUE(Append(kMiB, TestPattern(4096, 9), laps + 1).ok());
  std::optional<Status> fs;
  wc_->Barrier([&](Status s) { fs = s; });
  sim_.Run();
  ASSERT_TRUE(fs->ok());

  // Checkpoint so recovery has a recent anchor, then crash and replay.
  std::optional<Status> cs;
  wc_->WriteCheckpoint([&](Status s) { cs = s; });
  sim_.Run();
  ASSERT_TRUE(cs->ok());
  host_.ssd()->PowerFail();
  auto fresh = Reopen();
  EXPECT_TRUE(fresh->map().LookupOne(kMiB).has_value());
}

// --- the log wrapping past what the newest checkpoint lists ---

TEST_F(WriteCacheTest, ReplayRetiresCheckpointedRecordItOverwrote) {
  // Record A, then 1 MiB records filling half the log, all listed in one
  // checkpoint.
  ASSERT_TRUE(Append(0, TestPattern(4096, 1), 1).ok());
  const uint64_t a_offset = wc_->RecordsAfterBatch(0).front().offset;
  uint64_t batch = 2;
  while (wc_->used_bytes() < wc_->free_bytes()) {
    ASSERT_TRUE(Append(batch % 16 * kMiB + kMiB, Buffer::Zeros(kMiB), batch)
                    .ok());
    batch++;
  }
  std::optional<Status> cs;
  wc_->WriteCheckpoint([&](Status s) { cs = s; });
  sim_.Run();
  ASSERT_TRUE(cs.has_value() && cs->ok());
  const uint64_t checkpoints = wc_->stats().checkpoints;
  // Release everything and append until the log wraps over A's record.
  for (int i = 0;; i++) {
    ASSERT_LT(i, 2 * static_cast<int>(kRegionSize / kMiB)) << "never wrapped";
    wc_->ReleaseThrough(batch - 1);
    ASSERT_TRUE(Append(batch % 16 * kMiB + kMiB, Buffer::Zeros(kMiB), batch)
                    .ok());
    if (wc_->RecordsAfterBatch(batch - 1).front().offset == a_offset) {
      break;
    }
    batch++;
  }
  // Recovery starts from the checkpoint that lists A, so replay must retire
  // it.
  ASSERT_EQ(wc_->stats().checkpoints, checkpoints);
  std::optional<Status> fs;
  wc_->Barrier([&](Status s) { fs = s; });
  sim_.Run();
  ASSERT_TRUE(fs.has_value() && fs->ok());

  host_.ssd()->PowerFail();
  auto fresh = Reopen();
  EXPECT_FALSE(fresh->map().LookupOne(0).has_value());
  EXPECT_LE(fresh->used_bytes(), wc_->used_bytes() + wc_->free_bytes());
}

TEST_F(WriteCacheTest, LogLappingItsReplayStartKeepsNewestRecord) {
  std::optional<Status> cs;
  wc_->WriteCheckpoint([&](Status s) { cs = s; });
  sim_.Run();
  ASSERT_TRUE(cs.has_value() && cs->ok());
  // More than one lap of 1 MiB records, keeping only the newest.
  const uint64_t records = kRegionSize / kMiB + 8;
  for (uint64_t i = 1; i <= records; i++) {
    wc_->ReleaseThrough(i - 1);
    ASSERT_TRUE(Append(i % 16 * kMiB, Buffer::Zeros(kMiB), i).ok());
  }
  wc_->ReleaseThrough(records);
  const Buffer newest = TestPattern(4096, 7);
  ASSERT_TRUE(Append(20 * kMiB, newest, records + 1).ok());
  std::optional<Status> fs;
  wc_->Barrier([&](Status s) { fs = s; });
  sim_.Run();
  ASSERT_TRUE(fs.has_value() && fs->ok());

  host_.ssd()->PowerFail();
  wc_ = Reopen();
  auto r = ReadVlba(20 * kMiB, 4096);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, newest);
}

TEST_F(WriteCacheTest, RecordEndingAtRegionEndWrapsTheNext) {
  // 59 records of 1 MiB + header and 98 of 4 KiB + header fill the
  // 60 MiB - 4 KiB log of a 64 MiB region exactly to its end.
  const uint64_t log_base = wc_->checkpoint_slot_offset(1) +
                            (wc_->checkpoint_slot_offset(1) -
                             wc_->checkpoint_slot_offset(0));
  uint64_t batch = 1;
  for (int i = 0; i < 59 + 98; i++) {
    wc_->ReleaseThrough(batch - 1);
    const uint64_t len = i < 59 ? kMiB : 4096;
    ASSERT_TRUE(Append(0, Buffer::Zeros(len), batch++).ok());
  }
  const WriteCache::RecordMeta last = wc_->RecordsAfterBatch(batch - 2)[0];
  ASSERT_EQ(last.offset + last.size(), base_ + kRegionSize);

  wc_->ReleaseThrough(batch - 1);
  const Buffer data = TestPattern(4096, 3);
  ASSERT_TRUE(Append(4096, data, batch).ok());
  EXPECT_EQ(wc_->RecordsAfterBatch(batch - 1)[0].offset, log_base);
  std::optional<Status> fs;
  wc_->Barrier([&](Status s) { fs = s; });
  sim_.Run();
  ASSERT_TRUE(fs.has_value() && fs->ok());
  host_.ssd()->PowerFail();
  wc_ = Reopen();
  auto r = ReadVlba(4096, 4096);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, data);
}

TEST_F(WriteCacheTest, TrimStormLapsTheLog) {
  // Bursts of 512 trims over a 16 MiB cache, released as they go: after
  // the first 12 fill the record window, the rest pack into records of
  // many extents. Such records must not make a checkpoint of the full log
  // outgrow its 1 MiB slot: the log could then never lap its replay start.
  constexpr uint64_t kRegion = 16 * kMiB;
  const uint64_t base = *host_.AllocRegion(kRegion);
  WriteCache wc(&host_, base, kRegion, ZeroCosts());
  std::optional<Status> fmt;
  wc.Format([&](Status s) { fmt = s; });
  sim_.Run();
  ASSERT_TRUE(fmt.has_value() && fmt->ok());
  constexpr uint64_t kBursts = 600;
  constexpr uint64_t kTrims = 512;
  uint64_t acked = 0;
  for (uint64_t b = 1; b <= kBursts; b++) {
    wc.ReleaseThrough(b - 1);
    for (uint64_t i = 0; i < kTrims; i++) {
      wc.AppendTrim(2 * i * kBlockSize, kBlockSize, b, [&](Status s) {
        EXPECT_TRUE(s.ok());
        acked++;
      });
    }
    sim_.Run();
    ASSERT_EQ(acked, b * kTrims) << "appends stalled in burst " << b;
  }
  EXPECT_GT(wc.stats().evicted_records, 0u);
}

TEST_F(WriteCacheTest, CheckpointListsOnlyAppliedRecords) {
  // A journal worker wakeup of 1 ms holds the record's write back while a
  // checkpoint is written and flushed.
  StageCosts costs = ZeroCosts();
  costs.record_context_switch = kMillisecond;
  wc_->Kill();
  wc_ = std::make_unique<WriteCache>(&host_, base_, kRegionSize, costs);
  std::optional<Status> fmt;
  wc_->Format([&](Status s) { fmt = s; });
  sim_.Run();
  ASSERT_TRUE(fmt.has_value() && fmt->ok());

  bool acked = false;
  wc_->Append(0, TestPattern(4096, 1), 1, [&](Status) { acked = true; });
  std::optional<Status> cs;
  wc_->WriteCheckpoint([&](Status s) {
    cs = s;
    // The checkpoint is durable; the record never reaches the SSD.
    host_.ssd()->PowerFail();
    wc_->Kill();
  });
  sim_.Run();
  ASSERT_TRUE(cs.has_value() && cs->ok());
  EXPECT_FALSE(acked);

  auto fresh = Reopen();
  EXPECT_TRUE(fresh->RecordsAfterBatch(0).empty());
  EXPECT_EQ(fresh->map().mapped_bytes(), 0u);
}

TEST_F(WriteCacheTest, RecoverWithoutFormatFails) {
  host_.ssd()->DiscardAll();
  wc_->Kill();
  auto fresh = std::make_unique<WriteCache>(&host_, base_, kRegionSize,
                                            ZeroCosts());
  std::optional<Status> s;
  fresh->Recover([&](Status st) { s = st; });
  sim_.Run();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->code(), StatusCode::kCorruption);
}

TEST_F(WriteCacheTest, ReadRecordPayloadReturnsOriginalBytes) {
  Buffer first = TestPattern(4096, 1);
  ASSERT_TRUE(Append(0, first, 5).ok());
  // Overwrite LBA 0 in a later record; the original record's payload must
  // still be readable from its own log position.
  ASSERT_TRUE(Append(0, TestPattern(4096, 2), 6).ok());
  auto records = wc_->RecordsAfterBatch(4);
  ASSERT_GE(records.size(), 2u);
  std::optional<Result<Buffer>> r;
  wc_->ReadRecordPayload(records[0],
                         [&](Result<Buffer> rr) { r = std::move(rr); });
  sim_.Run();
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(r->value(), first);
}

TEST_F(WriteCacheTest, CheckpointSurvivesAlternatingSlots) {
  for (int round = 0; round < 5; round++) {
    ASSERT_TRUE(Append(static_cast<uint64_t>(round) * 4096,
                       TestPattern(4096, 20 + round), round + 1)
                    .ok());
    std::optional<Status> cs;
    wc_->WriteCheckpoint([&](Status s) { cs = s; });
    sim_.Run();
    ASSERT_TRUE(cs->ok());
  }
  host_.ssd()->PowerFail();
  auto fresh = Reopen();
  EXPECT_EQ(fresh->map().mapped_bytes(), 5u * 4096);
}

// --- checkpoint slots (one blob layout; Recover reads only what it loads) ---

// Blob layout: magic, version, blob length (u64 at byte 8), generation,
// next seq, head, the record count at byte 40 and the CRC at byte 44 over
// the first `blob length` bytes; the first record's extent-count word
// follows its four u64 fields at byte 80.
constexpr size_t kBlobVersionPos = 4;
constexpr size_t kBlobLenPos = 8;
constexpr size_t kBlobRecordCountPos = 40;
constexpr size_t kBlobCrcPos = 44;
constexpr size_t kBlobFirstExtentCountPos = 80;

class WriteCacheSlotTest : public WriteCacheTest {
 protected:
  // Two checkpoints over distinct writes (the cache adds one of its own
  // after the first write). Returns the newest blob's length.
  uint64_t WriteTwoCheckpoints() {
    for (int round = 0; round < 2; round++) {
      for (int i = 0; i < 8; i++) {
        EXPECT_TRUE(Append(static_cast<uint64_t>(round * 8 + i) * 4096,
                           TestPattern(4096, 40 + round * 8 + i))
                        .ok());
      }
      std::optional<Status> cs;
      const uint64_t before = host_.ssd()->stats().write_bytes;
      wc_->WriteCheckpoint([&](Status s) { cs = s; });
      sim_.Run();
      EXPECT_TRUE(cs.has_value() && cs->ok());
      last_blob_len_ = host_.ssd()->stats().write_bytes - before;
    }
    return last_blob_len_;
  }

  // Format wrote generation 1; generation g lands in slot g % 2.
  int NewestSlot() const {
    return static_cast<int>(wc_->stats().checkpoints % 2);
  }

  std::vector<uint8_t> ReadSsd(uint64_t offset, uint64_t len) {
    std::optional<Result<Buffer>> r;
    host_.ssd()->Read(offset, len, [&](Result<Buffer> rr) { r = std::move(rr); });
    sim_.Run();
    return r->value().ToBytes();
  }

  void WriteSsd(uint64_t offset, const std::vector<uint8_t>& bytes) {
    std::optional<Status> s;
    host_.ssd()->Write(offset, Buffer::FromBytes(bytes),
                       [&](Status st) { s = st; });
    sim_.Run();
    ASSERT_TRUE(s.has_value() && s->ok());
  }

  // Overwrites a u32 field of the blob in `slot` and recomputes its CRC.
  void PatchSlot(int slot, size_t pos, uint32_t value) {
    const uint64_t offset = wc_->checkpoint_slot_offset(slot);
    std::vector<uint8_t> head = ReadSsd(offset, kBlockSize);
    uint64_t len = 0;
    for (size_t i = 0; i < 8; i++) {
      len |= static_cast<uint64_t>(head[kBlobLenPos + i]) << (8 * i);
    }
    std::vector<uint8_t> blob = ReadSsd(offset, len);
    const auto put = [&blob](size_t at, uint32_t v) {
      for (size_t i = 0; i < 4; i++) {
        blob[at + i] = static_cast<uint8_t>(v >> (8 * i));
      }
    };
    put(pos, value);
    put(kBlobCrcPos, 0);
    put(kBlobCrcPos, Crc32c(blob.data(), blob.size()));
    WriteSsd(offset, blob);
  }

  Status RecoverStatus() {
    wc_->Kill();
    WriteCache fresh(&host_, base_, kRegionSize, ZeroCosts());
    std::optional<Status> s;
    fresh.Recover([&](Status st) { s = st; });
    sim_.Run();
    return s.value_or(Status::Unavailable("recovery never finished"));
  }

  uint64_t last_blob_len_ = 0;
};

TEST_F(WriteCacheSlotTest, CorruptNewestSlotFallsBackToOlderSlot) {
  WriteTwoCheckpoints();
  // Flip one byte inside the newest blob, past its fixed fields.
  const uint64_t newest = wc_->checkpoint_slot_offset(NewestSlot());
  std::vector<uint8_t> head = ReadSsd(newest, kBlockSize);
  head[kBlobCrcPos + 100] ^= 0x40;
  WriteSsd(newest, head);
  // The older checkpoint plus a replay of the eight later records restores
  // all 16.
  auto fresh = Reopen();
  EXPECT_EQ(fresh->map().mapped_bytes(), 16u * 4096);
  for (int i = 0; i < 16; i++) {
    auto t = fresh->map().LookupOne(static_cast<uint64_t>(i) * 4096);
    ASSERT_TRUE(t.has_value()) << i;
    std::optional<Result<Buffer>> r;
    fresh->ReadData(t->plba, 4096, [&](Result<Buffer> rr) { r = std::move(rr); });
    sim_.Run();
    ASSERT_TRUE(r->ok());
    EXPECT_EQ(r->value(), TestPattern(4096, 40 + i)) << i;
  }
}

TEST_F(WriteCacheSlotTest, RecoverReadsSlotHeadsAndOneBlob) {
  const uint64_t blob_len = WriteTwoCheckpoints();
  ASSERT_GE(blob_len, kBlockSize);
  const uint64_t before = host_.ssd()->stats().read_bytes;
  auto fresh = Reopen();
  const uint64_t read = host_.ssd()->stats().read_bytes - before;
  // Superblock, the two slot heads, the newest blob, and the replay's probe
  // of the (empty) log head and its wrap position: nowhere near the two
  // whole slots of 2 MiB each that a 64 MiB cache reserves.
  EXPECT_LE(read, 5 * kBlockSize + blob_len);
  EXPECT_EQ(fresh->map().mapped_bytes(), 16u * 4096);
}

TEST_F(WriteCacheSlotTest, OnlyTheCurrentBlobVersionIsAccepted) {
  WriteTwoCheckpoints();
  const uint32_t current = ReadSsd(wc_->checkpoint_slot_offset(NewestSlot()),
                                   kBlockSize)[kBlobVersionPos];
  for (uint32_t v = 0; v <= 4; v++) {
    if (v == current) {
      continue;
    }
    PatchSlot(0, kBlobVersionPos, v);
    PatchSlot(1, kBlobVersionPos, v);
    EXPECT_EQ(RecoverStatus().code(), StatusCode::kCorruption) << v;
  }
}

TEST_F(WriteCacheSlotTest, InflatedCountsWithValidCrcAreRejected) {
  // Both slots list one one-extent record; everything after it is zero
  // padding, so an unchecked count would loop over ~2^32 zero entries.
  ASSERT_TRUE(Append(0, TestPattern(4096, 1)).ok());
  std::optional<Status> cs;
  wc_->WriteCheckpoint([&](Status s) { cs = s; });
  sim_.Run();
  ASSERT_TRUE(cs.has_value() && cs->ok());
  const uint64_t begin = wc_->checkpoint_slot_offset(0);
  const std::vector<uint8_t> slots =
      ReadSsd(begin, wc_->checkpoint_slot_offset(1) + kBlockSize - begin);
  for (const size_t pos : {kBlobRecordCountPos, kBlobFirstExtentCountPos}) {
    for (int slot = 0; slot < 2; slot++) {
      PatchSlot(slot, pos, 0x7FFFFFF0u);
    }
    EXPECT_EQ(RecoverStatus().code(), StatusCode::kCorruption) << pos;
    WriteSsd(begin, slots);
  }
}

// --- checkpoint blob bytes against a reference encoding ---

// The v4 blob, field by field, from the cache state its public API shows.
std::vector<uint8_t> ReferenceBlob(
    uint64_t gen, uint64_t next_seq, uint64_t head,
    const std::vector<WriteCache::RecordMeta>& records) {
  std::vector<uint8_t> out;
  const auto put = [&out](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; i++) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put(0x4C535643, 4);  // "LSVC"
  put(4, 4);           // blob version
  put(0, 8);           // blob length, filled in below
  put(gen, 8);
  put(next_seq, 8);
  put(head, 8);
  put(records.size(), 4);
  put(0, 4);  // CRC, filled in below
  for (const auto& rec : records) {
    put(rec.seq, 8);
    put(rec.offset, 8);
    put(rec.footprint, 8);
    put(rec.max_batch_seq, 8);
    put(rec.extents.size() | (rec.is_trim ? 1u << 31 : 0u), 4);
    for (const auto& e : rec.extents) {
      put(e.vlba, 8);
      put(e.len, 8);
    }
  }
  out.resize((out.size() + kBlockSize - 1) / kBlockSize * kBlockSize);
  for (size_t i = 0; i < 8; i++) {
    out[kBlobLenPos + i] = static_cast<uint8_t>(out.size() >> (8 * i));
  }
  const uint32_t crc = Crc32c(out.data(), out.size());
  for (size_t i = 0; i < 4; i++) {
    out[kBlobCrcPos + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return out;
}

std::vector<MapExtent<SsdTarget>> MapExtents(const WriteCache& wc) {
  std::vector<MapExtent<SsdTarget>> out;
  wc.map().ForEachFrom(0, [&out](const MapExtent<SsdTarget>& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

bool SameRecords(const std::vector<WriteCache::RecordMeta>& a,
                 const std::vector<WriteCache::RecordMeta>& b) {
  const auto key = [](const WriteCache::RecordMeta& r) {
    std::vector<uint64_t> k = {r.seq, r.offset, r.size(), r.footprint,
                               r.max_batch_seq, r.is_trim ? 1u : 0u};
    for (const auto& e : r.extents) {
      k.push_back(e.vlba);
      k.push_back(e.len);
    }
    return k;
  };
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    if (key(a[i]) != key(b[i])) {
      return false;
    }
  }
  return true;
}

enum class CacheState { kEmpty, kTrims, kMultiExtentRecords, kManyLeaves };

class CheckpointEncodingTest
    : public WriteCacheSlotTest,
      public ::testing::WithParamInterface<std::tuple<CacheState, int>> {
 protected:
  // Builds the parameter's cache state from its seed. Every write and trim
  // carries a batch seq >= 1, so RecordsAfterBatch(0) lists every record.
  void Build(CacheState state, Rng* rng) {
    int issued = 0;
    int acked = 0;
    const auto append = [&](uint64_t vlba, uint64_t blocks) {
      issued++;
      wc_->Append(vlba, TestPattern(blocks * kBlockSize, rng->Next()),
                  1 + rng->Uniform(5), [&acked](Status s) {
                    EXPECT_TRUE(s.ok());
                    acked++;
                  });
    };
    switch (state) {
      case CacheState::kEmpty:
        return;
      case CacheState::kTrims:
        for (int i = 0; i < 20; i++) {
          const uint64_t vlba = rng->Uniform(256) * kBlockSize;
          if (rng->Uniform(3) == 0) {
            issued++;
            wc_->AppendTrim(vlba, (1 + rng->Uniform(8)) * kBlockSize,
                            1 + rng->Uniform(5), [&acked](Status s) {
                              EXPECT_TRUE(s.ok());
                              acked++;
                            });
          } else {
            append(vlba, 1 + rng->Uniform(4));
          }
          sim_.Run();
        }
        break;
      case CacheState::kMultiExtentRecords:
        // Issued together, so appends queue behind the record window and
        // share records.
        for (int i = 0; i < 300; i++) {
          append(rng->Uniform(4096) * kBlockSize, 1 + rng->Uniform(3));
        }
        sim_.Run();
        break;
      case CacheState::kManyLeaves:
        // Every other block: no two map extents merge.
        for (uint64_t i = 0; i < 3000; i++) {
          append((2 * i + rng->Uniform(2) * 8192) * kBlockSize, 1);
        }
        sim_.Run();
        break;
    }
    EXPECT_EQ(acked, issued);
  }
};

TEST_P(CheckpointEncodingTest, BlobMatchesReferenceAndRecovers) {
  const auto [state, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  Build(state, &rng);

  const std::vector<WriteCache::RecordMeta> records = wc_->RecordsAfterBatch(0);
  const std::vector<MapExtent<SsdTarget>> map = MapExtents(*wc_);
  switch (state) {
    case CacheState::kEmpty:
      EXPECT_TRUE(records.empty() && map.empty());
      break;
    case CacheState::kTrims:
      EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                              [](const auto& r) { return r.is_trim; }));
      break;
    case CacheState::kMultiExtentRecords:
      EXPECT_TRUE(std::any_of(records.begin(), records.end(), [](const auto& r) {
        return r.extents.size() > 1;
      }));
      break;
    case CacheState::kManyLeaves:
      EXPECT_GE(map.size(), 3000u);
      break;
  }

  // Format wrote generation 1; generation g lands in slot g % 2. With
  // nothing evicted, the log head follows the newest record.
  const uint64_t gen = wc_->stats().checkpoints + 1;
  const uint64_t slot0 = wc_->checkpoint_slot_offset(0);
  const uint64_t slot1 = wc_->checkpoint_slot_offset(1);
  const uint64_t log_base = slot1 + (slot1 - slot0);
  const uint64_t next_seq = records.empty() ? 1 : records.back().seq + 1;
  const uint64_t head =
      records.empty() ? log_base
                      : records.back().offset + records.back().size();
  const std::vector<uint8_t> want =
      ReferenceBlob(gen, next_seq, head, records);

  std::optional<Status> cs;
  wc_->WriteCheckpoint([&](Status s) { cs = s; });
  sim_.Run();
  ASSERT_TRUE(cs.has_value() && cs->ok());
  const std::vector<uint8_t> got = ReadSsd(
      wc_->checkpoint_slot_offset(static_cast<int>(gen % 2)), want.size());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want) << "checkpoint blob differs from the reference";

  host_.ssd()->PowerFail();
  auto fresh = Reopen();
  EXPECT_TRUE(SameRecords(fresh->RecordsAfterBatch(0), records));
  const std::vector<MapExtent<SsdTarget>> recovered = MapExtents(*fresh);
  ASSERT_EQ(recovered.size(), map.size());
  for (size_t i = 0; i < map.size(); i++) {
    EXPECT_EQ(recovered[i].start, map[i].start) << i;
    EXPECT_EQ(recovered[i].len, map[i].len) << i;
    EXPECT_EQ(recovered[i].target.plba, map[i].target.plba) << i;
  }
  EXPECT_EQ(fresh->used_bytes(), wc_->used_bytes());
}

std::string StateName(
    const ::testing::TestParamInfo<std::tuple<CacheState, int>>& info) {
  static const char* const kNames[] = {"Empty", "Trims", "MultiExtentRecords",
                                       "ManyLeaves"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "Seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    States, CheckpointEncodingTest,
    ::testing::Combine(::testing::Values(CacheState::kEmpty,
                                         CacheState::kTrims,
                                         CacheState::kMultiExtentRecords,
                                         CacheState::kManyLeaves),
                       ::testing::Values(1, 2)),
    StateName);

// The cache encodes each applied record's checkpoint entry once and copies
// it into every later blob. Each blob must still be a fresh encode of the
// live records, whatever happened between checkpoints: records applied,
// evicted as the log laps, trimmed, or reloaded by a recovery.
TEST_F(WriteCacheSlotTest, BlobStaysAFreshEncodeAcrossAppliesEvictionsTrims) {
  // The newest generation either slot holds: Recover picks up from there.
  const auto newest_gen = [this] {
    uint64_t gen = 0;
    for (int slot = 0; slot < 2; slot++) {
      const std::vector<uint8_t> head =
          ReadSsd(wc_->checkpoint_slot_offset(slot), kBlockSize);
      uint64_t g = 0;
      for (size_t i = 0; i < 8; i++) {
        g |= uint64_t{head[16 + i]} << (8 * i);
      }
      gen = std::max(gen, g);
    }
    return gen;
  };
  Rng rng(7);
  uint64_t batch = 0;
  int issued = 0;
  int acked = 0;
  const auto ack = [&acked](Status s) {
    EXPECT_TRUE(s.ok());
    acked++;
  };
  for (int step = 0; step < 24; step++) {
    // Issued together, so records carry several extents; zero payloads of
    // up to 192 KiB lap the 64 MiB region every ten steps or so.
    for (int i = 0; i < 100; i++) {
      batch++;
      issued++;
      const uint64_t vlba = rng.Uniform(4096) * kBlockSize;
      if (rng.Uniform(4) == 0) {
        wc_->AppendTrim(vlba, (1 + rng.Uniform(8)) * kBlockSize, batch, ack);
      } else {
        wc_->Append(vlba, Buffer::Zeros((1 + rng.Uniform(48)) * kBlockSize),
                    batch, ack);
      }
    }
    sim_.Run();
    ASSERT_EQ(acked, issued) << "step " << step;
    // All but the newest batches may be evicted once the log needs room.
    wc_->ReleaseThrough(batch - 20);

    const std::vector<WriteCache::RecordMeta> records =
        wc_->RecordsAfterBatch(0);
    ASSERT_FALSE(records.empty());
    const uint64_t gen = newest_gen() + 1;
    const std::vector<uint8_t> want =
        ReferenceBlob(gen, records.back().seq + 1,
                      records.back().offset + records.back().size(), records);
    std::optional<Status> cs;
    wc_->WriteCheckpoint([&](Status s) { cs = s; });
    sim_.Run();
    ASSERT_TRUE(cs.has_value() && cs->ok());
    EXPECT_TRUE(ReadSsd(wc_->checkpoint_slot_offset(static_cast<int>(gen % 2)),
                        want.size()) == want)
        << "step " << step << ": checkpoint blob differs from a fresh encode";

    if (step == 11) {
      // Reload the blob and replay the log into a fresh cache.
      EXPECT_GT(wc_->stats().evicted_records, 0u);
      wc_ = Reopen();
      wc_->ReleaseThrough(batch - 20);
    }
  }
  EXPECT_GT(wc_->stats().evicted_records, 0u);
  EXPECT_GE(wc_->stats().checkpoints, 12u);
}

}  // namespace
}  // namespace lsvd
