#include "src/lsvd/gc_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace lsvd {
namespace {

// Largest mapped hole the `defrag` ablation plugs (§4.6: 8 KiB).
constexpr uint64_t kDefragHoleMax = 8 * kKiB;

}  // namespace

void GcSimulator::Write(uint64_t vlba, uint64_t len) {
  assert(len > 0);
  result_.client_bytes += len;
  batch_raw_ += len;
  if (config_.merge) {
    ExtentMap<ObjTarget>::ExtentVec displaced;
    batch_.Update(vlba, len, ObjTarget{next_seq_, 0}, &displaced);
    for (const auto& d : displaced) {
      result_.merged_bytes += d.len;
    }
  } else {
    batch_list_.push_back({vlba, len});
  }
  if (batch_raw_ >= config_.batch_bytes) {
    SealBatch();
  }
}

void GcSimulator::Trim(uint64_t vlba, uint64_t len) {
  assert(len > 0);
  // Seal-first, like BackendStore::AddTrim: writes accepted before the trim
  // land in an earlier object, then the punch applies strictly after them.
  SealBatch();
  result_.trimmed_bytes += len;
  ExtentMap<ObjTarget>::ExtentVec displaced;
  map_.Remove(vlba, len, &displaced);
  Displace(displaced, /*self_seq=*/0);
  MaybeGc();
}

void GcSimulator::Displace(const ExtentMap<ObjTarget>::ExtentVec& displaced,
                           uint64_t self_seq) {
  for (const auto& d : displaced) {
    auto it = info_.find(d.target.seq);
    if (it != info_.end()) {
      const uint64_t dec = std::min(it->second.live_bytes, d.len);
      it->second.live_bytes -= dec;
      live_sum_ -= dec;
      uint64_t& sl = shard_live_[ShardOf(d.target.seq)];
      sl -= std::min(sl, dec);
      if (config_.zone_bytes > 0) {
        auto m = meta_.find(d.target.seq);
        if (m != meta_.end() && m->second.zone != 0) {
          auto z = zones_.find(m->second.zone);
          if (z != zones_.end()) {
            z->second.live -= std::min(z->second.live, dec);
          }
        }
      }
    } else if (d.target.seq == self_seq) {
      // Overwrite within the object being applied (no-merge mode): the
      // earlier extent's bytes die immediately.
      live_sum_ -= std::min(live_sum_, d.len);
      uint64_t& sl = shard_live_[ShardOf(self_seq)];
      sl -= std::min(sl, d.len);
      self_dead_ += d.len;
    }
  }
}

void GcSimulator::SealBatch() {
  if (batch_raw_ == 0) {
    return;
  }
  const uint64_t seq = next_seq_++;

  // Extents to write, in apply order, with contiguous object offsets
  // assigned in that order (so vlba-contiguous runs merge in the map).
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  uint64_t object_total = 0;
  if (config_.merge) {
    for (const auto& e : batch_.Extents()) {
      extents.push_back({e.start, e.len});
      object_total += e.len;
    }
    batch_.Clear();
  } else {
    extents = std::move(batch_list_);
    batch_list_.clear();
    for (const auto& [vlba, len] : extents) {
      object_total += len;
    }
  }
  batch_raw_ = 0;

  result_.backend_bytes += object_total;
  result_.objects_created++;
  total_sum_ += object_total;
  live_sum_ += object_total;
  shard_total_[ShardOf(seq)] += object_total;
  shard_live_[ShardOf(seq)] += object_total;
  self_dead_ = 0;

  uint64_t offset = 0;
  ExtentMap<ObjTarget>::ExtentVec displaced;
  std::vector<std::pair<uint64_t, uint64_t>>& created = creation_[seq];
  for (const auto& [vlba, len] : extents) {
    map_.Update(vlba, len, ObjTarget{seq, offset}, &displaced);
    Displace(displaced, seq);
    created.push_back({vlba, len});
    offset += len;
  }
  info_[seq] = ObjectInfo{object_total, object_total - self_dead_};
  meta_[seq] = ObjMeta{result_.client_bytes, 0, 0};
  if (config_.zone_bytes > 0) {
    AssignZone(seq, object_total, object_total - self_dead_, /*cold=*/false);
  }
  MaybeGc();
}

double GcSimulator::Utilization() const {
  if (total_sum_ == 0) {
    return 1.0;
  }
  return static_cast<double>(live_sum_) / static_cast<double>(total_sum_);
}

double GcSimulator::ShardUtilization(size_t shard) const {
  if (shard_total_[shard] == 0) {
    return 1.0;
  }
  return static_cast<double>(shard_live_[shard]) /
         static_cast<double>(shard_total_[shard]);
}

double GcSimulator::AgeOf(const ObjMeta& meta) const {
  // Logical clock: client batches written since the object sealed.
  const uint64_t elapsed = result_.client_bytes - meta.seal_clock;
  return static_cast<double>(elapsed) /
         static_cast<double>(config_.batch_bytes);
}

uint64_t GcSimulator::PickVictim(size_t shard, double ceiling) const {
  uint64_t victim = 0;
  double best = -std::numeric_limits<double>::infinity();
  for (const auto& [seq, inf] : info_) {
    if (inf.total_bytes == 0 || seq == cold_seq_) {
      continue;
    }
    if (shard != SIZE_MAX && ShardOf(seq) != shard) {
      continue;
    }
    GcCandidate c;
    c.seq = seq;
    c.total_bytes = inf.total_bytes;
    c.live_bytes = inf.live_bytes;
    if (c.utilization() >= ceiling) {
      continue;
    }
    auto m = meta_.find(seq);
    if (m != meta_.end()) {
      c.generation = m->second.generation;
    }
    // Every candidate ages on the object-sequence clock (objects created
    // since this one was sealed): coherent units across client data and GC
    // output, and for generation-tagged output the same crash-stable clock
    // the backend store uses (see GcCandidate::age).
    c.age = static_cast<double>(next_seq_ - seq);
    const double s = policy_->Score(c);
    if (s > best) {
      best = s;
      victim = seq;
    }
  }
  return victim;
}

void GcSimulator::MaybeGc() {
  if (config_.zone_bytes > 0) {
    // Zoned backend: free space only comes back a whole zone at a time, so
    // utilization is live bytes over zone capacity and the cleaner
    // relocates and resets entire zones.
    while (ZonedUtilization() < config_.gc_low_watermark) {
      const uint64_t zid = PickZoneVictim(config_.gc_high_watermark);
      if (zid == 0) {
        break;
      }
      CleanZone(zid);
      if (ZonedUtilization() >= config_.gc_high_watermark) {
        break;
      }
    }
    return;
  }
  if (config_.shards <= 1) {
    while (Utilization() < config_.gc_low_watermark) {
      const uint64_t victim = PickVictim(SIZE_MAX, config_.gc_high_watermark);
      if (victim == 0) {
        break;
      }
      CleanOne(victim);
      if (Utilization() >= config_.gc_high_watermark) {
        break;
      }
    }
    return;
  }
  // Sharded: each shard's occupancy is a separate pool (its own disks in the
  // real deployment), so each collects independently against the watermarks.
  for (size_t s = 0; s < static_cast<size_t>(config_.shards); s++) {
    while (ShardUtilization(s) < config_.gc_low_watermark) {
      const uint64_t victim = PickVictim(s, config_.gc_high_watermark);
      if (victim == 0) {
        break;
      }
      CleanOne(victim);
      if (ShardUtilization(s) >= config_.gc_high_watermark) {
        break;
      }
    }
  }
}

std::vector<GcSimulator::Piece> GcSimulator::CollectLivePieces(
    uint64_t victim) const {
  // Live pieces: creation extents whose map entry still points at victim.
  std::vector<Piece> pieces;
  ExtentMap<ObjTarget>::SegmentVec segs;
  auto cit = creation_.find(victim);
  if (cit != creation_.end()) {
    uint64_t offset = 0;
    for (const auto& [vlba, len] : cit->second) {
      map_.Lookup(vlba, len, &segs);
      for (const auto& seg : segs) {
        // The offset check distinguishes duplicate creation extents (no-merge
        // mode can write the same vLBA twice into one object): only the copy
        // the map actually references is live.
        if (seg.target.has_value() && seg.target->seq == victim &&
            seg.target->offset == offset + (seg.start - vlba)) {
          pieces.push_back({seg.start, seg.len, false});
        }
      }
      offset += len;
    }
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.vlba < b.vlba; });

  if (config_.defrag && !pieces.empty()) {
    // Plug mapped holes of <= kDefragHoleMax between consecutive pieces so
    // the copied run becomes one contiguous map extent.
    std::vector<Piece> plugged;
    plugged.push_back(pieces[0]);
    for (size_t i = 1; i < pieces.size(); i++) {
      const uint64_t prev_end = plugged.back().vlba + plugged.back().len;
      const uint64_t gap =
          pieces[i].vlba > prev_end ? pieces[i].vlba - prev_end : 0;
      if (gap > 0 && gap <= kDefragHoleMax) {
        // Only plug if the whole gap is currently mapped (reads exist).
        bool mapped = true;
        map_.Lookup(prev_end, gap, &segs);
        for (const auto& seg : segs) {
          if (!seg.target.has_value()) {
            mapped = false;
            break;
          }
        }
        if (mapped) {
          plugged.push_back({prev_end, gap, true});
        }
      }
      plugged.push_back(pieces[i]);
    }
    pieces = std::move(plugged);
  }
  return pieces;
}

void GcSimulator::AppendCold(const std::vector<Piece>& pieces,
                             uint32_t generation) {
  ExtentMap<ObjTarget>::ExtentVec displaced;
  for (const auto& p : pieces) {
    if (cold_seq_ == 0) {
      cold_seq_ = next_seq_++;
      cold_bytes_ = 0;
      cold_offset_ = 0;
      result_.objects_created++;
      info_[cold_seq_] = ObjectInfo{0, 0};
      meta_[cold_seq_] = ObjMeta{result_.client_bytes, generation, 0};
      if (config_.zone_bytes > 0) {
        AssignZone(cold_seq_, 0, 0, /*cold=*/true);
      }
    }
    ObjMeta& meta = meta_[cold_seq_];
    meta.generation = std::max(meta.generation, generation);
    meta.seal_clock = result_.client_bytes;
    map_.Update(p.vlba, p.len, ObjTarget{cold_seq_, cold_offset_}, &displaced);
    Displace(displaced, cold_seq_);
    creation_[cold_seq_].push_back({p.vlba, p.len});
    ObjectInfo& inf = info_[cold_seq_];
    inf.total_bytes += p.len;
    inf.live_bytes += p.len;
    result_.backend_bytes += p.len;
    result_.gc_copied_bytes += p.len;
    total_sum_ += p.len;
    live_sum_ += p.len;
    shard_total_[ShardOf(cold_seq_)] += p.len;
    shard_live_[ShardOf(cold_seq_)] += p.len;
    if (config_.zone_bytes > 0) {
      Zone& z = zones_[meta.zone];
      z.total += p.len;
      z.live += p.len;
      z.youngest_seal = result_.client_bytes;
    }
    cold_offset_ += p.len;
    cold_bytes_ += p.len;
    if (cold_bytes_ >= config_.batch_bytes) {
      // Seal the cold object; close its zone too if the zone is full.
      if (config_.zone_bytes > 0) {
        const uint64_t zid = meta.zone;
        if (zones_[zid].total >= config_.zone_bytes &&
            open_cold_zone_ == zid) {
          open_cold_zone_ = 0;
        }
      }
      cold_seq_ = 0;
    }
  }
}

void GcSimulator::EraseObject(uint64_t victim) {
  auto it = info_.find(victim);
  if (it != info_.end()) {
    total_sum_ -= it->second.total_bytes;
    live_sum_ -= std::min(live_sum_, it->second.live_bytes);
    uint64_t& st = shard_total_[ShardOf(victim)];
    uint64_t& sl = shard_live_[ShardOf(victim)];
    st -= std::min(st, it->second.total_bytes);
    sl -= std::min(sl, it->second.live_bytes);
    auto m = meta_.find(victim);
    if (m != meta_.end() && m->second.zone != 0) {
      auto z = zones_.find(m->second.zone);
      if (z != zones_.end()) {
        z->second.total -= std::min(z->second.total, it->second.total_bytes);
        z->second.live -= std::min(z->second.live, it->second.live_bytes);
      }
    }
    info_.erase(it);
  }
  creation_.erase(victim);
  meta_.erase(victim);
  result_.objects_deleted++;
}

void GcSimulator::CleanOne(uint64_t victim) {
  const std::vector<Piece> pieces = CollectLivePieces(victim);
  uint64_t copied = 0;
  for (const auto& p : pieces) {
    copied += p.len;
  }

  uint32_t generation = 1;
  auto m = meta_.find(victim);
  if (m != meta_.end()) {
    generation = m->second.generation + 1;
  }

  if (copied > 0) {
    if (config_.segregate_cold || config_.zone_bytes > 0) {
      AppendCold(pieces, generation);
    } else {
      const uint64_t seq = next_seq_++;
      result_.backend_bytes += copied;
      result_.gc_copied_bytes += copied;
      result_.objects_created++;
      total_sum_ += copied;
      live_sum_ += copied;
      shard_total_[ShardOf(seq)] += copied;
      shard_live_[ShardOf(seq)] += copied;
      uint64_t offset = 0;
      ExtentMap<ObjTarget>::ExtentVec displaced;
      std::vector<std::pair<uint64_t, uint64_t>>& created = creation_[seq];
      for (const auto& p : pieces) {
        map_.Update(p.vlba, p.len, ObjTarget{seq, offset}, &displaced);
        Displace(displaced, seq);
        created.push_back({p.vlba, p.len});
        offset += p.len;
      }
      info_[seq] = ObjectInfo{copied, copied};
      meta_[seq] = ObjMeta{result_.client_bytes, generation, 0};
    }
  }

  // Victim is gone.
  EraseObject(victim);
}

void GcSimulator::AssignZone(uint64_t seq, uint64_t total, uint64_t live,
                             bool cold) {
  uint64_t& open = cold ? open_cold_zone_ : open_hot_zone_;
  if (open == 0) {
    open = next_zone_++;
    zones_[open].cold = cold;
  }
  Zone& z = zones_[open];
  z.total += total;
  z.live += live;
  z.youngest_seal = result_.client_bytes;
  z.objects.push_back(seq);
  meta_[seq].zone = open;
  if (z.total >= config_.zone_bytes) {
    open = 0;  // zone full: closed, eligible for cleaning
  }
}

double GcSimulator::ZonedUtilization() const {
  if (zones_.empty()) {
    return 1.0;
  }
  const double capacity = static_cast<double>(zones_.size()) *
                          static_cast<double>(config_.zone_bytes);
  return static_cast<double>(live_sum_) / capacity;
}

uint64_t GcSimulator::PickZoneVictim(double ceiling) const {
  uint64_t victim = 0;
  double best = -std::numeric_limits<double>::infinity();
  for (const auto& [zid, zone] : zones_) {
    // Only closed zones can be reset.
    if (zid == open_hot_zone_ || zid == open_cold_zone_ || zone.total == 0) {
      continue;
    }
    GcCandidate c;
    c.seq = zid;
    c.total_bytes = zone.total;
    c.live_bytes = zone.live;
    if (c.utilization() >= ceiling) {
      continue;
    }
    c.age = AgeOf(ObjMeta{zone.youngest_seal, 0, 0});
    c.generation = zone.cold ? 1 : 0;
    const double s = policy_->Score(c);
    if (s > best) {
      best = s;
      victim = zid;
    }
  }
  return victim;
}

void GcSimulator::CleanZone(uint64_t zid) {
  // Relocating into the cold stream can open a new cold zone, but never this
  // one (it is closed); iterate over a copy of the member list.
  const std::vector<uint64_t> members = zones_[zid].objects;
  for (const uint64_t seq : members) {
    if (info_.find(seq) == info_.end()) {
      continue;
    }
    const std::vector<Piece> pieces = CollectLivePieces(seq);
    uint32_t generation = 1;
    auto m = meta_.find(seq);
    if (m != meta_.end()) {
      generation = m->second.generation + 1;
    }
    if (!pieces.empty()) {
      AppendCold(pieces, generation);
    }
    EraseObject(seq);
  }
  zones_.erase(zid);
  result_.zones_reset++;
}

GcSimResult GcSimulator::Finish() {
  SealBatch();
  result_.extent_count = map_.extent_count();
  return result_;
}

}  // namespace lsvd
