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
constexpr uint32_t kCkptVersion = 3;
// A checkpointed record's extent-count word carries the trim-record flag in
// its top bit (a record holds at most kMaxJournalExtents extents).
constexpr uint32_t kRecordTrimBit = 1u << 31;
// Checkpoint blob layout: magic, version, blob length, generation, next
// seq, head, used, synced seq, record count, map extent count, CRC; then
// per record 5 u64 fields, the extent-count word and 16 bytes per extent;
// then 24 bytes per map extent. The blob is padded to a block.
constexpr uint64_t kCkptFixedBytes = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4;
constexpr uint64_t kCkptRecordBytes = 5 * 8 + 4;
constexpr uint64_t kCkptRecordExtentBytes = 16;
constexpr uint64_t kCkptMapExtentBytes = 24;
// Bound on the data carried by one journal record, to keep record latency
// bounded and recovery reads reasonable.
constexpr uint64_t kMaxRecordData = 4 * kMiB;

// Record pipelining and plugging (MaybeStartRecord): up to kRecordWindow
// concurrent record writes; a lone small write (< kPlugBytes) waits for
// company while others are in flight. With adaptive batching on, a
// pipeline no deeper than kFastPathDepth skips the wait — there is no queue
// to amortize against, so plugging would only add idle latency.
constexpr size_t kRecordWindow = 12;
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
    // Initial empty checkpoint in slot 0.
    WriteCheckpoint(0, std::move(done));
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
  pending_.push_back(Pending{vlba, std::move(data), batch_seq,
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
  pending_.push_back(std::move(p));
  MaybeStartRecord();
}

void WriteCache::MaybeStartRecord() {
  // Pipeline up to a small window of concurrent record writes. While other
  // records are already in flight, a lone small write waits briefly for
  // company ("plugging"): the per-record wakeup cost then amortizes over
  // more writes without adding idle latency.
  while (in_flight_.size() < kRecordWindow && !pending_.empty()) {
    if (!in_flight_.empty() && pending_.size() < 2 &&
        !pending_.front().is_trim &&
        pending_.front().data.size() < kPlugBytes &&
        !(plug_deadline_ > 0 && in_flight_.size() <= kFastPathDepth)) {
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
  if (pending_.empty() || in_flight_.size() >= kRecordWindow) {
    return;  // already started, or the full window will pump it on drain
  }
  // Force-start only if the plug heuristic is still what holds the write
  // back; a space stall resumes through ReleaseThrough instead. A write that
  // replaced the one the timer was armed for just seals a little early —
  // the deadline is an upper bound on plug wait, not an exact hold time.
  if (!in_flight_.empty() && pending_.size() < 2 &&
      !pending_.front().is_trim &&
      pending_.front().data.size() < kPlugBytes) {
    if (StartOneRecord()) {
      c_deadline_seals_->Inc();
      MaybeStartRecord();
    }
  }
}

bool WriteCache::StartOneRecord() {
  // Pack pending writes into one record, bounded by the extent table, the
  // record data cap, and available log space.
  JournalRecord record;
  record.seq = next_seq_;
  // Records are type-homogeneous: trims pack only with trims (the record
  // carries no payload), writes only with writes.
  record.is_trim = pending_.front().is_trim;
  std::vector<Pending> writes;
  uint64_t data_len = 0;
  uint64_t max_batch = 0;
  while (!pending_.empty() && record.extents.size() < kMaxJournalExtents &&
         data_len < kMaxRecordData) {
    Pending& p = pending_.front();
    if (p.is_trim != record.is_trim) {
      break;
    }
    const uint64_t record_size = kBlockSize + data_len + p.data.size();
    // Space feasibility including a potential wrap gap; evict releasable
    // records (FIFO) on demand.
    const uint64_t contiguous = base_ + size_ - head_;
    const uint64_t gap = record_size > contiguous ? contiguous : 0;
    const uint64_t need = gap + record_size + kBlockSize;
    if (used_ + need > log_size_) {
      EvictForSpace(need);
    }
    if (used_ + need > log_size_) {
      if (writes.empty()) {
        c_stalled_appends_->Inc();
        return false;  // no room for even one write; resume on ReleaseThrough
      }
      break;
    }
    record.extents.push_back(JournalExtent{
        p.vlba, record.is_trim ? p.trim_len : p.data.size()});
    record.data.Append(p.data);
    data_len += p.data.size();
    max_batch = std::max(max_batch, p.batch_seq);
    writes.push_back(std::move(p));
    pending_.pop_front();
  }
  if (writes.empty()) {
    return false;
  }
  record.batch_seq = max_batch;

  const uint64_t record_size = kBlockSize + data_len;
  const uint64_t contiguous = base_ + size_ - head_;
  const uint64_t gap = record_size > contiguous ? contiguous : 0;
  const uint64_t target = gap > 0 ? log_base_ : head_;

  RecordMeta meta;
  meta.seq = record.seq;
  meta.offset = target;
  meta.total_len = record_size;
  meta.footprint = gap + record_size;
  meta.max_batch_seq = max_batch;
  meta.is_trim = record.is_trim;
  meta.extents = record.extents;
  meta.appended_at = host_->sim()->now();

  const uint64_t seq = record.seq;
  next_seq_++;
  head_ = target + record_size;
  used_ += meta.footprint;
  c_records_->Inc();
  c_record_bytes_->Inc(record_size);
  if (record.is_trim) {
    c_trim_records_->Inc();
  }
  records_.push_back(meta);  // in sequence order; applied later
  in_flight_[seq] = InFlightRecord{std::move(writes), false, Status::Ok()};

  Buffer encoded = EncodeJournalRecord(record);
  auto alive = alive_;
  // The record write is preceded by the journal worker wakeup (Table 6).
  record_cpu_.Submit(costs_.record_context_switch,
                     [this, alive, seq, target,
                      encoded = std::move(encoded)]() mutable {
    if (!*alive) {
      return;
    }
    ssd_->Write(target, std::move(encoded), [this, alive, seq](Status s) {
      if (!*alive) {
        return;
      }
      auto it = in_flight_.find(seq);
      assert(it != in_flight_.end());
      it->second.write_done = true;
      it->second.status = s;
      ApplyCompletedRecords();
      MaybeStartRecord();
    });
  });
  return true;
}

void WriteCache::ApplyCompletedRecords() {
  // Map updates and acknowledgements in sequence order (§3.2), so that when
  // two pipelined records touch the same vLBA, the later record's mapping
  // survives.
  while (!in_flight_.empty()) {
    auto it = in_flight_.find(next_apply_seq_);
    if (it == in_flight_.end() || !it->second.write_done) {
      return;
    }
    // Find this record's metadata; it is among the most recently appended.
    const RecordMeta* meta = nullptr;
    for (auto rit = records_.rbegin(); rit != records_.rend(); ++rit) {
      if (rit->seq == next_apply_seq_) {
        meta = &*rit;
        break;
      }
      if (rit->seq < next_apply_seq_) {
        break;
      }
    }
    if (it->second.status.ok() && meta != nullptr) {
      if (meta->is_trim) {
        // Punch the cache map and remember the tombstone until the backend
        // batch that carries the object-map punch commits (ReleaseThrough).
        for (const auto& e : meta->extents) {
          map_.Remove(e.vlba, e.len, nullptr);
          trim_map_.Update(e.vlba, e.len,
                           ObjTarget{meta->max_batch_seq, e.vlba}, nullptr);
        }
      } else {
        uint64_t data_plba = meta->offset + kBlockSize;
        for (const auto& e : meta->extents) {
          map_.Update(e.vlba, e.len, SsdTarget{data_plba}, nullptr);
          if (!trim_map_.empty()) {
            // A later write over a trimmed range supersedes the tombstone.
            trim_map_.Remove(e.vlba, e.len, nullptr);
          }
          data_plba += e.len;
        }
      }
    }
    for (auto& w : it->second.writes) {
      w.done(it->second.status);
    }
    in_flight_.erase(it);
    next_apply_seq_++;
  }
  // Stalled appends may proceed now: applied records are no longer pinned
  // in flight, so lazy eviction can reclaim them if they are releasable.
  MaybeStartRecord();
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
                          std::function<void(Result<Buffer>)> done) {
  auto alive = alive_;
  ssd_->Read(plba, len, [alive, done = std::move(done)](Result<Buffer> r) {
    if (!*alive) {
      return;
    }
    done(std::move(r));
  });
}

void WriteCache::ReleaseThrough(uint64_t synced_batch_seq) {
  if (synced_batch_seq > release_watermark_) {
    release_watermark_ = synced_batch_seq;
    // Releasability is FIFO in sequence order, so newly releasable records
    // extend the timed prefix; record their append-to-free latency once.
    const Nanos now = host_->sim()->now();
    while (release_timed_count_ < records_.size()) {
      const RecordMeta& rec = records_[release_timed_count_];
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

void WriteCache::EvictReleasable() { EvictForSpace(log_size_); }

void WriteCache::EvictForSpace(uint64_t needed) {
  while (free_bytes() < needed && !records_.empty() &&
         records_.front().max_batch_seq <= release_watermark_ &&
         !in_flight_.contains(records_.front().seq)) {
    const RecordMeta& rec = records_.front();
    // Remove map entries that still point into this record's data area;
    // ranges overwritten by newer records are left alone. Trim records carry
    // no data, so no map entry can point into them.
    if (!rec.is_trim) {
      const uint64_t data_base = rec.offset + kBlockSize;
      uint64_t extent_plba = data_base;
      ExtentMap<SsdTarget>::SegmentVec segs;
      for (const auto& e : rec.extents) {
        map_.Lookup(e.vlba, e.len, &segs);
        for (const auto& seg : segs) {
          if (!seg.target.has_value()) {
            continue;
          }
          const uint64_t expected = extent_plba + (seg.start - e.vlba);
          if (seg.target->plba == expected) {
            map_.Remove(seg.start, seg.len, nullptr);
          }
        }
        extent_plba += e.len;
      }
    }
    used_ -= rec.footprint;
    c_evicted_records_->Inc();
    records_.pop_front();
    if (release_timed_count_ > 0) {
      release_timed_count_--;
    }
  }
}

void WriteCache::ChargeReadback(uint64_t bytes, std::function<void()> done) {
  if (bytes == 0) {
    host_->sim()->After(0, std::move(done));
    return;
  }
  auto remaining = std::make_shared<int>(0);
  auto issued = std::make_shared<bool>(false);
  auto alive = alive_;
  auto one = [alive, remaining, issued, done]() {
    (*remaining)--;
    if (*issued && *remaining == 0 && *alive) {
      done();
    }
  };
  constexpr uint64_t kChunk = 256 * kKiB;
  uint64_t left = bytes;
  while (left > 0) {
    const uint64_t n = RoundUpBlock(std::min(left, kChunk));
    if (readback_head_ + n > base_ + size_) {
      readback_head_ = log_base_;
    }
    (*remaining)++;
    ssd_->Read(readback_head_, n, [one](Result<Buffer>) { one(); });
    readback_head_ += n;
    left -= std::min(left, kChunk);
  }
  *issued = true;
}

Buffer WriteCache::EncodeCheckpointBlob(uint64_t backend_synced_seq) const {
  // Sized exactly up front, so every field is written in place in one pass.
  uint64_t len = kCkptFixedBytes + records_.size() * kCkptRecordBytes +
                 map_.extent_count() * kCkptMapExtentBytes;
  for (const auto& rec : records_) {
    len += rec.extents.size() * kCkptRecordExtentBytes;
  }
  len = RoundUpBlock(len);
  Encoder enc;
  enc.Reserve(len);
  enc.PutU32(kWcCkptMagic);
  enc.PutU32(kCkptVersion);
  enc.PutU64(len);
  enc.PutU64(ckpt_gen_ + 1);
  enc.PutU64(next_seq_);
  enc.PutU64(head_);
  enc.PutU64(used_);
  enc.PutU64(backend_synced_seq);
  enc.PutU32(static_cast<uint32_t>(records_.size()));
  enc.PutU32(static_cast<uint32_t>(map_.extent_count()));
  const size_t crc_pos = enc.size();
  enc.PutU32(0);
  for (const auto& rec : records_) {
    enc.PutU64(rec.seq);
    enc.PutU64(rec.offset);
    enc.PutU64(rec.total_len);
    enc.PutU64(rec.footprint);
    enc.PutU64(rec.max_batch_seq);
    const auto n = static_cast<uint32_t>(rec.extents.size());
    assert(n < kRecordTrimBit);
    enc.PutU32(rec.is_trim ? n | kRecordTrimBit : n);
    for (const auto& e : rec.extents) {
      enc.PutU64(e.vlba);
      enc.PutU64(e.len);
    }
  }
  map_.ForEachFrom(0, [&enc](const MapExtent<SsdTarget>& e) {
    enc.PutU64(e.start);
    enc.PutU64(e.len);
    enc.PutU64(e.target.plba);
    return true;
  });
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
  const uint64_t used = dec.GetU64();
  const uint64_t synced = dec.GetU64();
  const uint32_t rec_count = dec.GetU32();
  const uint32_t ext_count = dec.GetU32();
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
  if (!fits(rec_count, kCkptRecordBytes)) {
    return Status::Corruption("write-cache checkpoint record count too large");
  }
  std::deque<RecordMeta> records;
  for (uint32_t i = 0; i < rec_count; i++) {
    RecordMeta rec;
    rec.seq = dec.GetU64();
    rec.offset = dec.GetU64();
    rec.total_len = dec.GetU64();
    rec.footprint = dec.GetU64();
    rec.max_batch_seq = dec.GetU64();
    const uint32_t word = dec.GetU32();
    rec.is_trim = (word & kRecordTrimBit) != 0;
    const uint32_t n = word & ~kRecordTrimBit;
    if (!fits(n, kCkptRecordExtentBytes)) {
      return Status::Corruption("write-cache checkpoint extent count too large");
    }
    rec.extents.resize(n);
    for (JournalExtent& e : rec.extents) {
      e.vlba = dec.GetU64();
      e.len = dec.GetU64();
    }
    records.push_back(std::move(rec));
  }
  if (!fits(ext_count, kCkptMapExtentBytes)) {
    return Status::Corruption("write-cache checkpoint map count too large");
  }
  std::vector<MapExtent<SsdTarget>> map(ext_count);
  for (auto& e : map) {
    e.start = dec.GetU64();
    e.len = dec.GetU64();
    e.target.plba = dec.GetU64();
  }
  if (!dec.ok()) {
    return Status::Corruption("write-cache checkpoint truncated");
  }

  *ckpt_gen = gen;
  next_seq_ = next_seq;
  next_apply_seq_ = next_seq;
  head_ = head;
  used_ = used;
  recovered_synced_ = synced;
  records_ = std::move(records);
  release_timed_count_ = 0;
  map_.Clear();
  for (const auto& e : map) {
    map_.Update(e.start, e.len, e.target, nullptr);
  }
  // Rebuild the tombstone map from the live records in sequence order: a
  // trim raises a tombstone, a later write over the range clears it.
  trim_map_.Clear();
  for (const auto& rec : records_) {
    for (const auto& e : rec.extents) {
      if (rec.is_trim) {
        trim_map_.Update(e.vlba, e.len, ObjTarget{rec.max_batch_seq, e.vlba},
                         nullptr);
      } else if (!trim_map_.empty()) {
        trim_map_.Remove(e.vlba, e.len, nullptr);
      }
    }
  }
  return Status::Ok();
}

void WriteCache::WriteCheckpoint(uint64_t backend_synced_seq,
                                 std::function<void(Status)> done) {
  Buffer blob = EncodeCheckpointBlob(backend_synced_seq);
  if (blob.size() > slot_size_) {
    done(Status::ResourceExhausted("write-cache map exceeds checkpoint slot"));
    return;
  }
  const uint64_t slot_offset =
      base_ + kBlockSize + ((ckpt_gen_ + 1) % 2) * slot_size_;
  auto alive = alive_;
  ssd_->Write(slot_offset, std::move(blob),
              [this, alive, done = std::move(done)](Status s) mutable {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    ssd_->Flush([this, alive, done = std::move(done)](Status s2) {
      if (!*alive) {
        return;
      }
      if (s2.ok()) {
        ckpt_gen_++;
        c_checkpoints_->Inc();
      }
      done(s2);
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
    auto st = std::make_shared<ReplayState>();
    st->pos = head_;
    st->expected_seq = next_seq_;
    st->done = std::move(done);
    ReplayStep(st);
  });
}

// Replay rules (§3.3): records must appear at the expected position with the
// expected sequence number; any mismatch first probes the wrap position
// (log_base_) once — the writer wraps when a record does not fit contiguously
// — and otherwise ends the log. Stale data from a previous lap fails the
// sequence check because sequence numbers are strictly increasing.
void WriteCache::ReplayMiss(const std::shared_ptr<ReplayState>& st) {
  if (!st->wrapped && st->pos != log_base_) {
    st->wrapped = true;
    st->fail_pos = st->pos;
    st->pos = log_base_;
    ReplayStep(st);
    return;
  }
  // End of log. If we got here via a failed wrap probe, the writer never
  // wrapped and the true head is the pre-wrap position.
  head_ = st->wrapped ? st->fail_pos : st->pos;
  next_seq_ = st->expected_seq;
  next_apply_seq_ = st->expected_seq;
  st->done(Status::Ok());
}

void WriteCache::ReplayStep(std::shared_ptr<ReplayState> st) {
  const uint64_t region_end = base_ + size_;
  if (st->pos + 2 * kBlockSize > region_end) {
    ReplayMiss(st);
    return;
  }
  auto alive = alive_;
  ssd_->Read(st->pos, kBlockSize,
             [this, alive, st](Result<Buffer> r) {
    if (!*alive) {
      return;
    }
    if (!r.ok()) {
      st->done(r.status());
      return;
    }
    JournalRecord rec;
    uint64_t data_len = 0;
    if (!DecodeJournalHeader(*r, &rec, &data_len, volume_limit_).ok() ||
        rec.seq != st->expected_seq ||
        st->pos + kBlockSize + data_len > base_ + size_ ||
        (data_len == 0 && !rec.is_trim)) {
      ReplayMiss(st);
      return;
    }
    if (rec.is_trim) {
      // Trim records are a bare header; nothing to verify beyond its CRC.
      ReplayAccept(st, std::move(rec), 0);
      return;
    }
    // Header valid; verify the payload before accepting the record.
    ssd_->Read(st->pos + kBlockSize, data_len,
               [this, alive, st, rec = std::move(rec),
                data_len](Result<Buffer> dr) mutable {
      if (!*alive) {
        return;
      }
      if (!dr.ok() || !VerifyJournalData(rec, *dr).ok()) {
        ReplayMiss(st);
        return;
      }
      ReplayAccept(st, std::move(rec), data_len);
    });
  });
}

void WriteCache::ReplayAccept(const std::shared_ptr<ReplayState>& st,
                              JournalRecord rec, uint64_t data_len) {
  RecordMeta meta;
  meta.seq = rec.seq;
  meta.offset = st->pos;
  meta.total_len = kBlockSize + data_len;
  // A record found at the wrap position means the writer wrapped here; the
  // skipped tail of the region counts against the record's footprint.
  const uint64_t gap =
      st->wrapped ? (base_ + size_) - st->fail_pos : st->pending_gap;
  meta.footprint = gap + meta.total_len;
  meta.max_batch_seq = rec.batch_seq;
  meta.is_trim = rec.is_trim;
  meta.extents = rec.extents;

  if (rec.is_trim) {
    for (const auto& e : rec.extents) {
      map_.Remove(e.vlba, e.len, nullptr);
      trim_map_.Update(e.vlba, e.len, ObjTarget{rec.batch_seq, e.vlba},
                       nullptr);
    }
  } else {
    uint64_t data_plba = st->pos + kBlockSize;
    for (const auto& e : rec.extents) {
      map_.Update(e.vlba, e.len, SsdTarget{data_plba}, nullptr);
      if (!trim_map_.empty()) {
        trim_map_.Remove(e.vlba, e.len, nullptr);
      }
      data_plba += e.len;
    }
  }
  used_ += meta.footprint;
  const uint64_t next_pos = st->pos + meta.total_len;
  records_.push_back(std::move(meta));

  st->pos = next_pos;
  st->expected_seq++;
  st->wrapped = false;
  st->fail_pos = 0;
  st->pending_gap = 0;
  ReplayStep(st);
}

std::vector<WriteCache::RecordMeta> WriteCache::RecordsAfterBatch(
    uint64_t synced_seq) const {
  std::vector<RecordMeta> out;
  for (const auto& rec : records_) {
    if (rec.max_batch_seq > synced_seq) {
      out.push_back(rec);
    }
  }
  return out;
}

void WriteCache::ReadRecordPayload(const RecordMeta& rec,
                                   std::function<void(Result<Buffer>)> done) {
  ReadData(rec.offset + kBlockSize, rec.total_len - kBlockSize,
           std::move(done));
}

}  // namespace lsvd
