#include "src/lsvd/write_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/util/codec.h"
#include "src/util/crc32c.h"

namespace lsvd {
namespace {

constexpr uint32_t kSuperMagic = 0x4C535653;    // "LSVS"
constexpr uint32_t kWcCkptMagic = 0x4C535643;   // "LSVC"
constexpr uint32_t kSuperVersion = 1;
// The one checkpoint-blob layout the decoder accepts; the number is past
// those of the superseded layouts.
constexpr uint32_t kCkptVersion = 4;
// A checkpointed record's extent-count word carries the trim-record flag in
// its top bit (a record holds at most kMaxJournalExtents extents).
constexpr uint32_t kRecordTrimBit = 1u << 31;
// Checkpoint blob layout: magic, version, blob length, generation, next
// seq, head, record count, CRC; then per record its seq, offset, footprint
// and max batch seq (u64 each), the extent-count word and 16 bytes per
// extent. The blob is padded to a block.
constexpr uint64_t kCkptFixedBytes = 4 + 4 + 8 + 8 + 8 + 8 + 4 + 4;
constexpr uint64_t kCkptRecordBytes = 4 * 8 + 4;
constexpr uint64_t kCkptRecordExtentBytes = 16;
// Extents per trim record. A record's checkpoint entry must stay within
// 1/32 of its log footprint, as a data record's always does (it spans a
// block per extent): a checkpoint of a full log then fits its slot, so the
// log can always lap its replay start.
constexpr size_t kMaxTrimRecordExtents = 5;
static_assert(kCkptRecordBytes +
                  kMaxTrimRecordExtents * kCkptRecordExtentBytes <=
              kBlockSize / 32);
// Checkpoint cadence, in applied journal records.
constexpr uint64_t kCheckpointRecords = 4096;
// Bound on the data carried by one journal record, to keep record latency
// bounded and recovery reads reasonable.
constexpr uint64_t kMaxRecordData = 4 * kMiB;

// Record plugging (MaybeStartRecord): a lone small write (< kPlugBytes)
// waits for company while other records are in flight. With adaptive
// batching on, a pipeline no deeper than kFastPathDepth skips the wait —
// there is no queue to amortize against, so plugging would only add idle
// latency.
constexpr uint64_t kPlugBytes = 16 * kKiB;
constexpr size_t kFastPathDepth = 1;

uint64_t RoundUpBlock(uint64_t v) {
  return (v + kBlockSize - 1) / kBlockSize * kBlockSize;
}

}  // namespace

WriteCache::WriteCache(ClientHost* host, uint64_t base, uint64_t size,
                       const StageCosts& costs, MetricsRegistry* metrics,
                       const std::string& prefix, uint64_t volume_limit)
    : host_(host),
      ssd_(host->ssd()),
      costs_(costs),
      record_cpu_(host->sim(), 2),
      base_(base),
      size_(size),
      volume_limit_(volume_limit) {
  assert(size_ >= 16 * kMiB && "write cache region too small");
  slot_size_ = RoundUpBlock(std::max<uint64_t>(kMiB, size_ / 32));
  log_base_ = base_ + kBlockSize + 2 * slot_size_;
  log_size_ = base_ + size_ - log_base_;
  head_ = log_base_;
  apply_head_ = log_base_;
  readback_head_ = log_base_;

  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_appends_ = metrics_->GetCounter(prefix + ".appends");
  c_appended_bytes_ = metrics_->GetCounter(prefix + ".appended_bytes");
  c_records_ = metrics_->GetCounter(prefix + ".records");
  c_record_bytes_ = metrics_->GetCounter(prefix + ".record_bytes");
  c_stalled_appends_ = metrics_->GetCounter(prefix + ".stalled_appends");
  c_checkpoints_ = metrics_->GetCounter(prefix + ".checkpoints");
  c_evicted_records_ = metrics_->GetCounter(prefix + ".evicted_records");
  c_deadline_seals_ = metrics_->GetCounter(prefix + ".deadline_seals");
  c_coalesced_flushes_ =
      metrics_->GetCounter(prefix + ".journal.coalesced_flushes");
  c_trim_records_ = metrics_->GetCounter(prefix + ".trim_records");
  h_append_to_free_us_ = metrics_->GetHistogram(prefix + ".append_to_free_us");
  callback_guard_.Register(metrics_, prefix + ".used_bytes",
                           [this] { return static_cast<double>(used_); });
  callback_guard_.Register(metrics_, prefix + ".free_bytes", [this] {
    return static_cast<double>(free_bytes());
  });
  callback_guard_.Register(metrics_, prefix + ".live_records", [this] {
    return static_cast<double>(records_.size());
  });
}

WriteCacheStats WriteCache::stats() const {
  WriteCacheStats s;
  s.appends = c_appends_->value();
  s.appended_bytes = c_appended_bytes_->value();
  s.records = c_records_->value();
  s.record_bytes = c_record_bytes_->value();
  s.stalled_appends = c_stalled_appends_->value();
  s.checkpoints = c_checkpoints_->value();
  s.evicted_records = c_evicted_records_->value();
  return s;
}

void WriteCache::Format(std::function<void(Status)> done) {
  Encoder enc;
  enc.PutU32(kSuperMagic);
  enc.PutU32(kSuperVersion);
  enc.PutU64(base_);
  enc.PutU64(size_);
  enc.PutU64(slot_size_);
  enc.PutU64(log_base_);
  const size_t crc_pos = enc.size();
  enc.PutU32(0);
  enc.PadTo(kBlockSize);
  enc.PatchU32(crc_pos, Crc32c(enc.bytes().data(), enc.size()));

  auto alive = alive_;
  ssd_->Write(base_, Buffer::FromBytes(enc.bytes()),
              [this, alive, done = std::move(done)](Status s) {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    // Initial empty checkpoint, generation 1.
    WriteCheckpoint(std::move(done));
  });
}

void WriteCache::Append(uint64_t vlba, Buffer data, uint64_t batch_seq,
                        std::function<void(Status)> done) {
  assert(vlba % kBlockSize == 0 && data.size() % kBlockSize == 0);
  if (data.size() + kBlockSize > log_size_ / 2) {
    done(Status::InvalidArgument("write larger than half the cache log"));
    return;
  }
  c_appends_->Inc();
  c_appended_bytes_->Inc(data.size());
  writes_.push_back(Pending{vlba, std::move(data), batch_seq,
                            std::move(done)});
  MaybeStartRecord();
}

void WriteCache::AppendTrim(uint64_t vlba, uint64_t len, uint64_t batch_seq,
                            std::function<void(Status)> done) {
  assert(vlba % kBlockSize == 0 && len % kBlockSize == 0 && len > 0);
  Pending p;
  p.vlba = vlba;
  p.batch_seq = batch_seq;
  p.done = std::move(done);
  p.is_trim = true;
  p.trim_len = len;
  writes_.push_back(std::move(p));
  MaybeStartRecord();
}

void WriteCache::MaybeStartRecord() {
  // Pipeline up to a small window of concurrent record writes. While other
  // records are already in flight, a lone small write waits briefly for
  // company ("plugging"): the per-record wakeup cost then amortizes over
  // more writes without adding idle latency.
  while (in_flight() < kRecordWindow && waiting() > 0) {
    if (in_flight() > 0 && waiting() < 2 && !writes_[started_].is_trim &&
        writes_[started_].data.size() < kPlugBytes &&
        !(plug_deadline_ > 0 && in_flight() <= kFastPathDepth)) {
      if (plug_deadline_ > 0 && !plug_timer_armed_) {
        ArmPlugTimer();
      }
      return;  // wait for the next append or for the pipeline to drain
    }
    if (!StartOneRecord()) {
      return;
    }
  }
}

void WriteCache::ArmPlugTimer() {
  plug_timer_armed_ = true;
  auto alive = alive_;
  host_->sim()->After(plug_deadline_, [this, alive] {
    if (!*alive) {
      return;
    }
    PlugTimerFire();
  });
}

void WriteCache::PlugTimerFire() {
  plug_timer_armed_ = false;
  if (waiting() == 0 || in_flight() >= kRecordWindow) {
    return;  // already started, or the full window will pump it on drain
  }
  // Force-start only if the plug heuristic is still what holds the write
  // back; a space stall resumes through ReleaseThrough instead. A write that
  // replaced the one the timer was armed for just seals a little early —
  // the deadline is an upper bound on plug wait, not an exact hold time.
  if (in_flight() > 0 && waiting() < 2 && !writes_[started_].is_trim &&
      writes_[started_].data.size() < kPlugBytes) {
    if (StartOneRecord()) {
      c_deadline_seals_->Inc();
      MaybeStartRecord();
    }
  }
}

bool WriteCache::StartOneRecord() {
  // Pack waiting writes into one record, bounded by the extent table, the
  // record data cap, and available log space. Records are type-homogeneous:
  // trims pack only with trims (the record carries no payload), writes only
  // with writes.
  const bool is_trim = writes_[started_].is_trim;
  const size_t max_extents =
      is_trim ? kMaxTrimRecordExtents : kMaxJournalExtents;
  size_t count = 0;
  uint64_t data_len = 0;
  uint64_t max_batch = 0;
  while (started_ + count < writes_.size() && count < max_extents &&
         data_len < kMaxRecordData) {
    const Pending& p = writes_[started_ + count];
    if (p.is_trim != is_trim) {
      break;
    }
    // Space feasibility including a potential wrap gap; evict releasable
    // records (FIFO) on demand.
    const uint64_t need =
        Place(head_, kBlockSize + data_len + p.data.size()).footprint +
        kBlockSize;
    if (used_ + need > log_size_) {
      EvictForSpace(need);
    }
    if (used_ + need > log_size_) {
      if (count == 0) {
        c_stalled_appends_->Inc();
        return false;  // no room for even one write; resume on ReleaseThrough
      }
      break;
    }
    data_len += p.data.size();
    max_batch = std::max(max_batch, p.batch_seq);
    count++;
  }
  if (count == 0) {
    return false;
  }

  // The writes stay in writes_ until their record is applied; the record
  // takes their extents and payload.
  JournalRecord record;
  record.seq = next_seq_;
  record.batch_seq = max_batch;
  record.is_trim = is_trim;
  record.extents.reserve(count);
  for (size_t i = started_; i < started_ + count; i++) {
    const Pending& p = writes_[i];
    record.extents.push_back(
        JournalExtent{p.vlba, is_trim ? p.trim_len : p.data.size()});
    record.data.Append(p.data);
  }
  started_ += count;

  const uint64_t record_size = kBlockSize + data_len;
  const Placement at = Place(head_, record_size);
  const uint64_t seq = record.seq;
  next_seq_++;
  head_ = at.offset + record_size;
  c_records_->Inc();
  c_record_bytes_->Inc(record_size);
  if (is_trim) {
    c_trim_records_->Inc();
  }
  InFlightRecord& slot = in_flight_[seq % kRecordWindow];
  slot = InFlightRecord{count, false, Status::Ok(),
                        EncodeJournalRecord(record)};

  LiveRecord meta;
  meta.seq = seq;
  meta.offset = at.offset;
  meta.footprint = at.footprint;
  meta.size = record_size;
  meta.max_batch_seq = max_batch;
  meta.is_trim = is_trim;
  meta.appended_at = host_->sim()->now();
  used_ += meta.footprint;
  PushRecord(meta, record.extents);  // in sequence order; applied later

  auto alive = alive_;
  // The record write is preceded by the journal worker wakeup (Table 6).
  record_cpu_.Submit(costs_.record_context_switch,
                     [this, alive, seq, target = at.offset] {
    if (!*alive) {
      return;
    }
    ssd_->Write(target, std::move(in_flight_[seq % kRecordWindow].encoded),
                [this, alive, seq](Status s) {
      if (!*alive) {
        return;
      }
      InFlightRecord& done = in_flight_[seq % kRecordWindow];
      done.write_done = true;
      done.status = s;
      ApplyCompletedRecords();
    });
  });
  return true;
}

void WriteCache::ApplyCompletedRecords() {
  // Map updates and acknowledgements in sequence order (§3.2), so that when
  // two pipelined records touch the same vLBA, the later record's mapping
  // survives.
  while (in_flight() > 0) {
    InFlightRecord& rec = in_flight_[next_apply_seq_ % kRecordWindow];
    if (!rec.write_done) {
      break;
    }
    // In-flight records are never evicted, and records_ holds consecutive
    // seqs, so this record's metadata is at a known index.
    const LiveRecord& meta = records_[next_apply_seq_ - records_.front().seq];
    const Status status = rec.status;
    if (status.ok()) {
      ApplyRecord(meta);
    }
    apply_head_ = meta.offset + meta.size;
    // The record's writes are the oldest in writes_. Each leaves the queue
    // before its callback runs, which may append (and start) new writes.
    for (size_t i = rec.writes; i > 0; i--) {
      std::function<void(Status)> done = std::move(writes_.front().done);
      writes_.pop_front();
      started_--;
      done(status);
    }
    next_apply_seq_++;
  }
  MaybeCheckpoint();
  // Stalled appends may proceed now: applied records are no longer pinned
  // in flight, so lazy eviction can reclaim them if they are releasable.
  MaybeStartRecord();
}

void WriteCache::PushRecord(LiveRecord rec,
                            std::span<const JournalExtent> extents) {
  rec.first_extent = extents_base_ + record_extents_.size();
  rec.extent_count = static_cast<uint32_t>(extents.size());
  record_extents_.insert(record_extents_.end(), extents.begin(),
                         extents.end());
  records_.push_back(rec);
}

void WriteCache::ApplyRecord(const LiveRecord& rec) {
  uint64_t data_plba = rec.offset + kBlockSize;
  for (const auto& e : ExtentsOf(rec)) {
    if (rec.is_trim) {
      // Punch the cache map and remember the tombstone until the backend
      // batch that carries the object-map punch commits (ReleaseThrough).
      map_.Remove(e.vlba, e.len, nullptr);
      trim_map_.Update(e.vlba, e.len, ObjTarget{rec.max_batch_seq, e.vlba},
                       nullptr);
      continue;
    }
    map_.Update(e.vlba, e.len, SsdTarget{data_plba}, nullptr);
    if (!trim_map_.empty()) {
      // A later write over a trimmed range supersedes the tombstone.
      trim_map_.Remove(e.vlba, e.len, nullptr);
    }
    data_plba += e.len;
  }
}

void WriteCache::EvictFront() {
  const LiveRecord& rec = records_.front();
  // Remove map entries that still point into this record's data area;
  // ranges overwritten by newer records are left alone. Trim records carry
  // no data, so no map entry can point into them.
  if (!rec.is_trim) {
    uint64_t extent_plba = rec.offset + kBlockSize;
    ExtentMap<SsdTarget>::SegmentVec segs;
    for (const auto& e : ExtentsOf(rec)) {
      map_.Lookup(e.vlba, e.len, &segs);
      for (const auto& seg : segs) {
        if (seg.target.has_value() &&
            seg.target->plba == extent_plba + (seg.start - e.vlba)) {
          map_.Remove(seg.start, seg.len, nullptr);
        }
      }
      extent_plba += e.len;
    }
  }
  if (ckpt_encoded_ > 0) {
    // Its checkpoint entry leaves the front; the bytes move down once the
    // dropped front outweighs the entries kept.
    ckpt_encoded_--;
    ckpt_entries_front_ +=
        kCkptRecordBytes + rec.extent_count * kCkptRecordExtentBytes;
    if (2 * ckpt_entries_front_ >= ckpt_entries_.size()) {
      ckpt_entries_.DropFront(ckpt_entries_front_);
      ckpt_entries_front_ = 0;
    }
  }
  used_ -= rec.footprint;
  c_evicted_records_->Inc();
  record_extents_.erase(record_extents_.begin(),
                        record_extents_.begin() + rec.extent_count);
  extents_base_ += rec.extent_count;
  records_.pop_front();
  if (release_timed_count_ > 0) {
    release_timed_count_--;
  }
}

WriteCache::Placement WriteCache::Place(uint64_t head, uint64_t size) const {
  const uint64_t tail = base_ + size_ - head;
  if (size <= tail) {
    return {head, size};
  }
  return {log_base_, tail + size};
}

void WriteCache::Barrier(std::function<void(Status)> done) {
  if (plug_deadline_ == 0) {
    auto alive = alive_;
    ssd_->Flush([alive, done = std::move(done)](Status s) {
      if (!*alive) {
        return;
      }
      done(s);
    });
    return;
  }
  // Group commit: barriers arriving while a flush is in flight all ride the
  // next flush together (it starts after the current one completes, so it
  // covers everything written before they were queued). N concurrent
  // barriers cost at most two flushes instead of N.
  pending_barriers_.push_back(std::move(done));
  if (flush_in_flight_) {
    c_coalesced_flushes_->Inc();
    return;
  }
  StartBarrierFlush();
}

void WriteCache::StartBarrierFlush() {
  flush_in_flight_ = true;
  auto waiters = std::make_shared<std::vector<std::function<void(Status)>>>(
      std::move(pending_barriers_));
  pending_barriers_.clear();
  auto alive = alive_;
  ssd_->Flush([this, alive, waiters](Status s) {
    if (!*alive) {
      return;
    }
    flush_in_flight_ = false;
    for (auto& d : *waiters) {
      d(s);
    }
    // A waiter's callback may itself call Barrier() and restart the pump;
    // only start the next group if nothing else already has.
    if (!flush_in_flight_ && !pending_barriers_.empty()) {
      StartBarrierFlush();
    }
  });
}

void WriteCache::ReadData(uint64_t plba, uint64_t len,
                          BlockDevice::ReadCallback done) {
  ssd_->Read(plba, len, std::move(done));
}

void WriteCache::ReleaseThrough(uint64_t synced_batch_seq) {
  if (synced_batch_seq > release_watermark_) {
    release_watermark_ = synced_batch_seq;
    // Releasability is FIFO in sequence order, so newly releasable records
    // extend the timed prefix; record their append-to-free latency once.
    const Nanos now = host_->sim()->now();
    while (release_timed_count_ < records_.size()) {
      const LiveRecord& rec = records_[release_timed_count_];
      if (rec.max_batch_seq > release_watermark_) {
        break;
      }
      if (rec.appended_at >= 0) {
        RecordLatencyUs(h_append_to_free_us_, now - rec.appended_at);
      }
      release_timed_count_++;
    }
    if (!trim_map_.empty()) {
      // Tombstones whose punching batch has committed are covered by the
      // backend map (the range is unmapped there) and can be dropped.
      for (const auto& e : trim_map_.Extents()) {
        if (e.target.seq <= release_watermark_) {
          trim_map_.Remove(e.start, e.len, nullptr);
        }
      }
    }
    // Newly releasable space may unblock stalled appends.
    MaybeStartRecord();
  }
}

void WriteCache::EvictReleasable(std::function<void(Status)> done) {
  // The checkpoint lists every applied record, so the guard in
  // EvictForSpace holds none of them back.
  WriteCheckpoint([this, done = std::move(done)](Status s) {
    if (s.ok()) {
      EvictForSpace(log_size_);
    }
    done(s);
  });
}

void WriteCache::EvictForSpace(uint64_t needed) {
  // A record also waits until the durable checkpoint lists it: replay starts
  // at the first record that checkpoint does not list.
  while (free_bytes() < needed && !records_.empty() &&
         records_.front().max_batch_seq <= release_watermark_ &&
         records_.front().seq < ckpt_next_seq_) {
    EvictFront();
  }
  MaybeCheckpoint();
}

void WriteCache::MaybeCheckpoint() {
  if (ckpt_in_flight_) {
    return;
  }
  // The front record is applied but unlisted: only a newer checkpoint lets
  // the log lap it.
  const bool lap = !records_.empty() &&
                   records_.front().seq >= ckpt_next_seq_ &&
                   records_.front().seq < next_apply_seq_;
  if (lap || next_apply_seq_ - ckpt_next_seq_ >= kCheckpointRecords) {
    StartCheckpoint();
  }
}

void WriteCache::ChargeReadback(uint64_t bytes, std::function<void()> done) {
  if (bytes == 0) {
    host_->sim()->After(0, std::move(done));
    return;
  }
  // The reads share one completion: the last one to finish runs `done`.
  constexpr uint64_t kChunk = 256 * kKiB;
  struct Readback {
    uint64_t remaining;
    std::function<void()> done;
  };
  auto readback = std::make_shared<Readback>(
      Readback{(bytes + kChunk - 1) / kChunk, std::move(done)});
  auto alive = alive_;
  for (uint64_t left = bytes; left > 0; left -= std::min(left, kChunk)) {
    const uint64_t n = RoundUpBlock(std::min(left, kChunk));
    if (readback_head_ + n > base_ + size_) {
      readback_head_ = log_base_;
    }
    ssd_->Read(readback_head_, n, [alive, readback](Result<Buffer>) {
      if (--readback->remaining == 0 && *alive) {
        readback->done();
      }
    });
    readback_head_ += n;
  }
}

Buffer WriteCache::EncodeCheckpointBlob() {
  // Only applied records are listed (a record in flight may never reach the
  // SSD), with the head and next seq just past them. Records applied since
  // the last checkpoint add their entries; the rest are copied as they were
  // encoded.
  while (ckpt_encoded_ < records_.size() &&
         records_[ckpt_encoded_].seq < next_apply_seq_) {
    const LiveRecord& rec = records_[ckpt_encoded_++];
    ckpt_entries_.PutU64(rec.seq);
    ckpt_entries_.PutU64(rec.offset);
    ckpt_entries_.PutU64(rec.footprint);
    ckpt_entries_.PutU64(rec.max_batch_seq);
    const uint32_t n = rec.extent_count;
    assert(n < kRecordTrimBit);
    ckpt_entries_.PutU32(rec.is_trim ? n | kRecordTrimBit : n);
    for (const auto& e : ExtentsOf(rec)) {
      ckpt_entries_.PutU64(e.vlba);
      ckpt_entries_.PutU64(e.len);
    }
  }
  const std::span<const uint8_t> entries =
      ckpt_entries_.bytes().subspan(ckpt_entries_front_);
  const uint64_t len = RoundUpBlock(kCkptFixedBytes + entries.size());
  Encoder enc;
  enc.Reserve(len);
  enc.PutU32(kWcCkptMagic);
  enc.PutU32(kCkptVersion);
  enc.PutU64(len);
  enc.PutU64(ckpt_gen_ + 1);
  enc.PutU64(next_apply_seq_);
  enc.PutU64(apply_head_);
  enc.PutU32(static_cast<uint32_t>(ckpt_encoded_));
  const size_t crc_pos = enc.size();
  enc.PutU32(0);
  enc.PutBytes(entries);
  enc.PadTo(kBlockSize);
  assert(enc.size() == len);
  enc.PatchU32(crc_pos, Crc32c(enc.bytes().data(), len));
  // Hand the encoded vector over by reference; the SSD keeps it shared.
  Buffer blob;
  blob.AppendShared(std::make_shared<const std::vector<uint8_t>>(enc.Take()),
                    0, len);
  return blob;
}

Status WriteCache::LoadCheckpointBlob(const Buffer& blob,
                                      uint64_t* ckpt_gen) {
  std::vector<uint8_t> bytes = blob.ToBytes();
  Decoder dec(bytes);
  if (dec.GetU32() != kWcCkptMagic) {
    return Status::Corruption("bad write-cache checkpoint magic");
  }
  if (dec.GetU32() != kCkptVersion) {
    return Status::Corruption("bad write-cache checkpoint version");
  }
  const uint64_t blob_len = dec.GetU64();
  if (blob_len < kCkptFixedBytes || blob_len > bytes.size()) {
    return Status::Corruption("write-cache checkpoint length out of range");
  }
  bytes.resize(blob_len);  // CRC covers exactly the encoded blob
  dec = Decoder(bytes);
  dec.Skip(16);
  const uint64_t gen = dec.GetU64();
  const uint64_t next_seq = dec.GetU64();
  const uint64_t head = dec.GetU64();
  const uint32_t rec_count = dec.GetU32();
  const size_t crc_pos = dec.position();
  const uint32_t crc = dec.GetU32();
  std::vector<uint8_t> check = bytes;
  for (int i = 0; i < 4; i++) {
    check[crc_pos + static_cast<size_t>(i)] = 0;
  }
  if (Crc32c(check.data(), check.size()) != crc) {
    return Status::Corruption("write-cache checkpoint CRC mismatch");
  }

  // Every count is checked against the bytes left before its loop runs, so
  // a CRC-valid blob with an inflated count is rejected, not looped over.
  const auto fits = [&dec](uint64_t count, uint64_t entry_bytes) {
    return count * entry_bytes <= dec.remaining();
  };
  if (!fits(rec_count, kCkptRecordBytes) || rec_count >= next_seq) {
    return Status::Corruption("write-cache checkpoint record count too large");
  }
  std::deque<LiveRecord> records(rec_count);
  std::deque<JournalExtent> extents;
  uint64_t used = 0;
  for (uint32_t i = 0; i < rec_count; i++) {
    LiveRecord& rec = records[i];
    rec.seq = dec.GetU64();
    rec.offset = dec.GetU64();
    rec.footprint = dec.GetU64();
    rec.max_batch_seq = dec.GetU64();
    const uint32_t word = dec.GetU32();
    rec.is_trim = (word & kRecordTrimBit) != 0;
    const uint32_t n = word & ~kRecordTrimBit;
    if (!fits(n, kCkptRecordExtentBytes)) {
      return Status::Corruption("write-cache checkpoint extent count too large");
    }
    rec.first_extent = extents.size();
    rec.extent_count = n;
    uint64_t data = 0;
    for (uint32_t k = 0; k < n; k++) {
      const JournalExtent e{dec.GetU64(), dec.GetU64()};
      data += e.len;
      extents.push_back(e);
    }
    rec.size = kBlockSize + (rec.is_trim ? 0 : data);
    // The listed records are the consecutive seqs just below next_seq.
    if (rec.seq != next_seq - rec_count + i) {
      return Status::Corruption("write-cache checkpoint records out of order");
    }
    used += rec.footprint;
  }
  if (!dec.ok()) {
    return Status::Corruption("write-cache checkpoint truncated");
  }
  if (used > log_size_) {
    return Status::Corruption("write-cache checkpoint overfills the log");
  }

  *ckpt_gen = gen;
  next_seq_ = next_seq;
  next_apply_seq_ = next_seq;
  ckpt_next_seq_ = next_seq;
  head_ = head;
  apply_head_ = head;
  used_ = used;
  records_ = std::move(records);
  record_extents_ = std::move(extents);
  extents_base_ = 0;
  ckpt_entries_ = Encoder();
  ckpt_entries_front_ = 0;
  ckpt_encoded_ = 0;
  release_timed_count_ = 0;
  map_.Clear();
  trim_map_.Clear();
  for (const LiveRecord& rec : records_) {
    ApplyRecord(rec);
  }
  return Status::Ok();
}

void WriteCache::WriteCheckpoint(std::function<void(Status)> done) {
  ckpt_waiters_.push_back(std::move(done));
  if (!ckpt_in_flight_) {
    StartCheckpoint();
  }
}

void WriteCache::StartCheckpoint() {
  ckpt_in_flight_ = true;
  const uint64_t listed = next_apply_seq_;
  Buffer blob = EncodeCheckpointBlob();
  auto alive = alive_;
  auto finish = [this, alive, listed,
                 waiters = std::move(ckpt_waiters_)](Status s) {
    ckpt_in_flight_ = false;
    if (s.ok()) {
      ckpt_gen_++;
      ckpt_next_seq_ = listed;
      c_checkpoints_->Inc();
    }
    for (const auto& done : waiters) {
      done(s);
    }
    if (!*alive) {
      return;
    }
    if (!ckpt_waiters_.empty()) {
      StartCheckpoint();
    } else if (s.ok()) {
      // The records it lists may now be evicted for stalled appends.
      MaybeStartRecord();
    }
  };
  ckpt_waiters_.clear();
  if (blob.size() > slot_size_) {
    finish(Status::ResourceExhausted("write-cache checkpoint exceeds slot"));
    return;
  }
  const uint64_t slot_offset =
      checkpoint_slot_offset(static_cast<int>((ckpt_gen_ + 1) % 2));
  ssd_->Write(slot_offset, std::move(blob),
              [this, alive, finish = std::move(finish)](Status s) mutable {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      finish(s);
      return;
    }
    ssd_->Flush([alive, finish = std::move(finish)](Status s2) mutable {
      if (*alive) {
        finish(s2);
      }
    });
  });
}

void WriteCache::Recover(std::function<void(Status)> done) {
  auto alive = alive_;
  ssd_->Read(base_, kBlockSize,
             [this, alive, done = std::move(done)](Result<Buffer> r) mutable {
    if (!*alive) {
      return;
    }
    if (!r.ok()) {
      done(r.status());
      return;
    }
    std::vector<uint8_t> sb = r->ToBytes();
    Decoder dec(sb);
    if (dec.GetU32() != kSuperMagic || dec.GetU32() != kSuperVersion) {
      done(Status::Corruption("bad write-cache superblock"));
      return;
    }
    if (dec.GetU64() != base_ || dec.GetU64() != size_ ||
        dec.GetU64() != slot_size_ || dec.GetU64() != log_base_) {
      done(Status::Corruption("write-cache geometry mismatch"));
      return;
    }
    const size_t crc_pos = dec.position();
    const uint32_t crc = dec.GetU32();
    std::vector<uint8_t> check = sb;
    for (int i = 0; i < 4; i++) {
      check[crc_pos + static_cast<size_t>(i)] = 0;
    }
    if (Crc32c(check.data(), check.size()) != crc) {
      done(Status::Corruption("write-cache superblock CRC mismatch"));
      return;
    }

    // Each slot's first block holds its generation and blob length.
    ssd_->Read(checkpoint_slot_offset(0), kBlockSize,
               [this, alive, done = std::move(done)](Result<Buffer> h0) mutable {
      if (!*alive) {
        return;
      }
      ssd_->Read(checkpoint_slot_offset(1), kBlockSize,
                 [this, alive, h0 = std::move(h0),
                  done = std::move(done)](Result<Buffer> h1) mutable {
        if (!*alive) {
          return;
        }
        // (offset, blob length) of each plausible slot, newest first.
        std::vector<std::pair<uint64_t, uint64_t>> slots;
        uint64_t newest_gen = 0;
        for (int slot = 0; slot < 2; slot++) {
          const Result<Buffer>& head = slot == 0 ? h0 : h1;
          if (!head.ok()) {
            continue;
          }
          std::vector<uint8_t> b = head->ToBytes();
          Decoder dec(b);
          const bool ours = dec.GetU32() == kWcCkptMagic &&
                            dec.GetU32() == kCkptVersion;
          const uint64_t blob_len = dec.GetU64();
          const uint64_t gen = dec.GetU64();
          if (!ours || blob_len < kCkptFixedBytes || blob_len > slot_size_ ||
              blob_len % kBlockSize != 0) {
            continue;
          }
          const auto at = gen > newest_gen ? slots.begin() : slots.end();
          slots.insert(at, {checkpoint_slot_offset(slot), blob_len});
          newest_gen = std::max(newest_gen, gen);
        }
        RecoverFromSlot(std::move(slots), 0, std::move(done));
      });
    });
  });
}

void WriteCache::RecoverFromSlot(
    std::vector<std::pair<uint64_t, uint64_t>> slots, size_t i,
    std::function<void(Status)> done) {
  if (i >= slots.size()) {
    done(Status::Corruption("no valid write-cache checkpoint"));
    return;
  }
  const auto [offset, blob_len] = slots[i];
  auto alive = alive_;
  ssd_->Read(offset, blob_len,
             [this, alive, slots = std::move(slots), i,
              done = std::move(done)](Result<Buffer> blob) mutable {
    if (!*alive) {
      return;
    }
    uint64_t gen = 0;
    if (!blob.ok() || !LoadCheckpointBlob(*blob, &gen).ok()) {
      // A torn or corrupt newest slot: fall back to the older one.
      RecoverFromSlot(std::move(slots), i + 1, std::move(done));
      return;
    }
    ckpt_gen_ = gen;
    ReplayStep(head_, std::move(done));
  });
}

// Replay rules (§3.3): the next record must carry the next sequence number
// and sit where the writer's placement rule (Place) puts it after head_. A
// miss at the head probes the wrap position (log_base_) once; any other
// miss ends the log. Stale data from a previous lap fails the sequence
// check because sequence numbers are strictly increasing.
void WriteCache::ReplayMiss(uint64_t pos, std::function<void(Status)> done) {
  if (pos == head_ && head_ != log_base_) {
    ReplayStep(log_base_, std::move(done));
    return;
  }
  next_apply_seq_ = next_seq_;
  apply_head_ = head_;
  done(Status::Ok());
}

void WriteCache::ReplayStep(uint64_t pos, std::function<void(Status)> done) {
  const uint64_t region_end = base_ + size_;
  if (pos + kBlockSize > region_end) {
    ReplayMiss(pos, std::move(done));
    return;
  }
  auto alive = alive_;
  ssd_->Read(pos, kBlockSize,
             [this, alive, pos, region_end,
              done = std::move(done)](Result<Buffer> r) mutable {
    if (!*alive) {
      return;
    }
    if (!r.ok()) {
      done(r.status());
      return;
    }
    JournalRecord rec;
    uint64_t data_len = 0;
    if (!DecodeJournalHeader(*r, &rec, &data_len, volume_limit_).ok() ||
        rec.seq != next_seq_ || (data_len == 0 && !rec.is_trim)) {
      ReplayMiss(pos, std::move(done));
      return;
    }
    const Placement at = Place(head_, kBlockSize + data_len);
    if (at.offset != pos || pos + kBlockSize + data_len > region_end) {
      ReplayMiss(pos, std::move(done));
      return;
    }
    if (rec.is_trim) {
      // Trim records are a bare header; nothing to verify beyond its CRC.
      ReplayAccept(std::move(rec), at, std::move(done));
      return;
    }
    // Header valid; verify the payload before accepting the record.
    ssd_->Read(pos + kBlockSize, data_len,
               [this, alive, pos, rec = std::move(rec), at,
                done = std::move(done)](Result<Buffer> dr) mutable {
      if (!*alive) {
        return;
      }
      if (!dr.ok() || !VerifyJournalData(rec, *dr).ok()) {
        ReplayMiss(pos, std::move(done));
        return;
      }
      ReplayAccept(std::move(rec), at, std::move(done));
    });
  });
}

void WriteCache::ReplayAccept(JournalRecord rec, Placement at,
                              std::function<void(Status)> done) {
  LiveRecord meta;
  meta.seq = rec.seq;
  meta.offset = at.offset;
  meta.footprint = at.footprint;
  meta.size = JournalRecordSize(rec.is_trim, rec.extents);
  meta.max_batch_seq = rec.batch_seq;
  meta.is_trim = rec.is_trim;
  // Records sit back to back in log order, so this one overwrote the front
  // record exactly when the log cannot hold both: the writer evicted it
  // first, and so does replay.
  while (!records_.empty() && used_ + meta.footprint > log_size_) {
    EvictFront();
  }
  PushRecord(meta, rec.extents);
  ApplyRecord(records_.back());
  head_ = at.offset + meta.size;
  next_seq_ = meta.seq + 1;
  used_ += meta.footprint;
  ReplayStep(head_, std::move(done));
}

std::vector<WriteCache::RecordMeta> WriteCache::RecordsAfterBatch(
    uint64_t synced_seq) const {
  std::vector<RecordMeta> out;
  for (const LiveRecord& rec : records_) {
    if (rec.max_batch_seq > synced_seq) {
      RecordMeta& meta = out.emplace_back();
      meta.seq = rec.seq;
      meta.offset = rec.offset;
      meta.footprint = rec.footprint;
      meta.max_batch_seq = rec.max_batch_seq;
      meta.is_trim = rec.is_trim;
      for (const auto& e : ExtentsOf(rec)) {
        meta.extents.push_back(e);
      }
    }
  }
  return out;
}

void WriteCache::ReadRecordPayload(const RecordMeta& rec,
                                   BlockDevice::ReadCallback done) {
  ReadData(rec.offset + kBlockSize, rec.size() - kBlockSize, std::move(done));
}

}  // namespace lsvd
