#include "src/lsvd/read_cache.h"

#include <algorithm>
#include <cassert>

#include "src/util/codec.h"
#include "src/util/crc32c.h"

namespace lsvd {
namespace {

constexpr uint32_t kRcMapMagic = 0x4C535652;  // "LSVR"

}  // namespace

ReadCache::ReadCache(ClientHost* host, uint64_t base, uint64_t size,
                     uint64_t line_size, MetricsRegistry* metrics,
                     const std::string& prefix)
    : host_(host),
      ssd_(host->ssd()),
      base_(base),
      size_(size),
      line_size_(line_size) {
  assert(line_size_ % kBlockSize == 0);
  map_area_ = std::max<uint64_t>(kMiB, size_ / 64);
  map_area_ = (map_area_ + kBlockSize - 1) / kBlockSize * kBlockSize;
  lines_base_ = base_ + map_area_;
  num_lines_ = (base_ + size_ - lines_base_) / line_size_;
  assert(num_lines_ >= 4 && "read cache region too small");
  slots_.assign(num_lines_, Slot{});

  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_insertions_ = metrics_->GetCounter(prefix + ".insertions");
  c_inserted_bytes_ = metrics_->GetCounter(prefix + ".inserted_bytes");
  c_evictions_ = metrics_->GetCounter(prefix + ".evictions");
  c_invalidations_ = metrics_->GetCounter(prefix + ".invalidations");
  c_fill_failures_ = metrics_->GetCounter(prefix + ".fill_failures");
  // Slot lengths over-report: invalidations and map overwrites remove map
  // extents without clearing the slot, so the map itself is the only
  // accurate byte count.
  callback_guard_.Register(metrics_, prefix + ".mapped_bytes", [this] {
    return static_cast<double>(map_.mapped_bytes());
  });
}

ReadCacheStats ReadCache::stats() const {
  ReadCacheStats s;
  s.insertions = c_insertions_->value();
  s.inserted_bytes = c_inserted_bytes_->value();
  s.evictions = c_evictions_->value();
  s.invalidations = c_invalidations_->value();
  s.fill_failures = c_fill_failures_->value();
  return s;
}

void ReadCache::ReadData(uint64_t plba, uint64_t len,
                         BlockDevice::ReadCallback done) {
  ssd_->Read(plba, len, std::move(done));
}

void ReadCache::EvictSlot(uint64_t slot) {
  Slot& s = slots_[slot];
  if (s.len == 0) {
    return;
  }
  // Remove only map segments that still point into this slot.
  const uint64_t slot_base = SlotOffset(slot);
  ExtentMap<SsdTarget>::SegmentVec segs;
  map_.Lookup(s.vlba, s.len, &segs);
  for (const auto& seg : segs) {
    if (!seg.target.has_value()) {
      continue;
    }
    const uint64_t expected = slot_base + (seg.start - s.vlba);
    if (seg.target->plba == expected) {
      map_.Remove(seg.start, seg.len, nullptr);
    }
  }
  s = Slot{};
  c_evictions_->Inc();
}

void ReadCache::Insert(uint64_t vlba, const Buffer& data) {
  assert(vlba % kBlockSize == 0 && data.size() % kBlockSize == 0);
  uint64_t off = 0;
  while (off < data.size()) {
    const uint64_t n = std::min(line_size_, data.size() - off);
    const uint64_t slot = next_slot_;
    next_slot_ = (next_slot_ + 1) % num_lines_;
    EvictSlot(slot);

    const uint64_t piece_vlba = vlba + off;
    Buffer piece = data.Slice(off, n);
    const uint64_t gen = ++fill_gen_;
    slots_[slot] = Slot{piece_vlba, n, gen};
    c_insertions_->Inc();
    c_inserted_bytes_->Inc(n);

    // The map entry is installed only once the fill is durable on the SSD;
    // until then reads for this range keep missing to the backend. A failed
    // fill just frees the slot — only a future re-fetch, never a map entry
    // routing reads to data that never landed.
    pending_fills_.push_back(PendingFill{piece_vlba, n, gen});
    auto alive = alive_;
    ssd_->Write(SlotOffset(slot), std::move(piece),
                [this, alive, slot, gen](Status s) {
      if (!*alive) {
        return;
      }
      const auto it = std::find_if(
          pending_fills_.begin(), pending_fills_.end(),
          [gen](const PendingFill& f) { return f.gen == gen; });
      const PendingFill fill = *it;
      pending_fills_.erase(it);
      if (slots_[slot].gen != gen) {
        return;  // slot was recycled while the fill was in flight
      }
      if (!s.ok()) {
        c_fill_failures_->Inc();
        slots_[slot] = Slot{};
        return;
      }
      if (fill.invalidated) {
        // A client write overlapped the fill range before it landed; the
        // line would shadow newer data, so drop it.
        slots_[slot] = Slot{};
        return;
      }
      map_.Update(fill.vlba, fill.len, SsdTarget{SlotOffset(slot)}, nullptr);
    });
    off += n;
  }
}

void ReadCache::Invalidate(uint64_t vlba, uint64_t len) {
  ExtentMap<SsdTarget>::ExtentVec removed;
  map_.Remove(vlba, len, &removed);
  c_invalidations_->Inc(removed.size());
  // In-flight fills have no map entry yet; mark overlaps so their completion
  // discards instead of installing stale data.
  for (PendingFill& fill : pending_fills_) {
    if (!fill.invalidated && fill.vlba < vlba + len &&
        vlba < fill.vlba + fill.len) {
      fill.invalidated = true;
      c_invalidations_->Inc();
    }
  }
}

void ReadCache::PersistMap(std::function<void(Status)> done) {
  Encoder enc;
  enc.PutU32(kRcMapMagic);
  enc.PutU64(next_slot_);
  const auto extents = map_.Extents();
  enc.PutU32(static_cast<uint32_t>(extents.size()));
  enc.PutU32(static_cast<uint32_t>(slots_.size()));
  const size_t crc_pos = enc.size();
  enc.PutU32(0);
  for (const auto& e : extents) {
    enc.PutU64(e.start);
    enc.PutU64(e.len);
    enc.PutU64(e.target.plba);
  }
  for (const auto& s : slots_) {
    enc.PutU64(s.vlba);
    enc.PutU64(s.len);
  }
  enc.PadTo(kBlockSize);
  if (enc.size() > map_area_) {
    done(Status::ResourceExhausted("read-cache map exceeds persist area"));
    return;
  }
  enc.PatchU32(crc_pos, Crc32c(enc.bytes().data(), enc.size()));
  auto alive = alive_;
  ssd_->Write(base_, Buffer::FromBytes(enc.bytes()),
              [alive, done = std::move(done)](Status s) {
    if (!*alive) {
      return;
    }
    done(s);
  });
}

void ReadCache::LoadMap(std::function<void(Status)> done) {
  auto alive = alive_;
  ssd_->Read(base_, map_area_,
             [this, alive, done = std::move(done)](Result<Buffer> r) {
    if (!*alive) {
      return;
    }
    if (!r.ok()) {
      done(r.status());
      return;
    }
    std::vector<uint8_t> bytes = r->ToBytes();
    Decoder dec(bytes);
    if (dec.GetU32() != kRcMapMagic) {
      done(Status::Corruption("no read-cache map"));
      return;
    }
    const uint64_t next_slot = dec.GetU64();
    const uint32_t ext_count = dec.GetU32();
    const uint32_t slot_count = dec.GetU32();
    const size_t crc_pos = dec.position();
    const uint32_t crc = dec.GetU32();
    // CRC covers the padded blob; recompute over the same length.
    const size_t blob_len =
        (crc_pos + 4 + static_cast<size_t>(ext_count) * 24 +
         static_cast<size_t>(slot_count) * 16 + kBlockSize - 1) /
        kBlockSize * kBlockSize;
    if (blob_len > bytes.size() || slot_count != slots_.size()) {
      done(Status::Corruption("read-cache map malformed"));
      return;
    }
    std::vector<uint8_t> check(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(blob_len));
    for (int i = 0; i < 4; i++) {
      check[crc_pos + static_cast<size_t>(i)] = 0;
    }
    if (Crc32c(check.data(), check.size()) != crc) {
      done(Status::Corruption("read-cache map CRC mismatch"));
      return;
    }
    map_.Clear();
    next_slot_ = next_slot;
    for (uint32_t i = 0; i < ext_count; i++) {
      const uint64_t start = dec.GetU64();
      const uint64_t len = dec.GetU64();
      const uint64_t plba = dec.GetU64();
      map_.Update(start, len, SsdTarget{plba}, nullptr);
    }
    for (uint32_t i = 0; i < slot_count; i++) {
      slots_[i].vlba = dec.GetU64();
      slots_[i].len = dec.GetU64();
    }
    done(dec.ok() ? Status::Ok()
                  : Status::Corruption("read-cache map truncated"));
  });
}

}  // namespace lsvd
