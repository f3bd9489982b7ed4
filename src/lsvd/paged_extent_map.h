// Compressed two-level extent map for huge thin volumes (DESIGN.md §13).
//
// The flat ExtentMap keeps every translation resident in B+tree leaves of
// 64 {start, len, target} entries (32 bytes each for an object target; with
// leaves half to fully occupied that is ~32-64 bytes per extent), which caps
// volume size × volume count per host. This implementation splits the address space into fixed-span *leaf pages* keyed
// by a small resident directory. Each page lives in one of two forms:
//
//  - packed: a run-length varint encoding (~6-14 bytes per extent) — the
//    same representation a checkpoint would hold, kept as the page's backing
//    store;
//  - live: an ordinary ExtentMap for the page's span, materialized lazily on
//    first access (a "page load", counted) and packed back down when the
//    resident budget is exceeded (LRU eviction).
//
// With `resident_budget = 0` every touched page stays live forever, so the
// map behaves exactly like the flat one plus a packed shadow. A non-zero
// budget bounds the live bytes; lookups that miss pay the unpack cost, which
// fig22_thin_maps reports rather than hides.
//
// Operations that span page boundaries are split per page; Lookup() and
// Extents() re-merge target-contiguous results across the splits so callers
// observe the same segments the flat map would produce.
#ifndef SRC_LSVD_PAGED_EXTENT_MAP_H_
#define SRC_LSVD_PAGED_EXTENT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/lsvd/extent_map.h"

namespace lsvd {

namespace paged_detail {

inline void PutVar(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline uint64_t GetVar(const uint8_t** p, const uint8_t* end) {
  uint64_t v = 0;
  int shift = 0;
  while (*p < end) {
    const uint8_t byte = *(*p)++;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
  assert(false && "truncated varint in packed map page");
  return v;
}

inline void PackTarget(std::vector<uint8_t>* out, const SsdTarget& t) {
  PutVar(out, t.plba);
}
inline void UnpackTarget(const uint8_t** p, const uint8_t* end, SsdTarget* t) {
  t->plba = GetVar(p, end);
}
inline void PackTarget(std::vector<uint8_t>* out, const ObjTarget& t) {
  PutVar(out, t.seq);
  PutVar(out, t.offset);
}
inline void UnpackTarget(const uint8_t** p, const uint8_t* end, ObjTarget* t) {
  t->seq = GetVar(p, end);
  t->offset = GetVar(p, end);
}

}  // namespace paged_detail

template <typename T>
class PagedExtentMap final : public ExtentMapIface<T> {
 public:
  using Extent = MapExtent<T>;
  using Segment = MapSegment<T>;
  using SegmentVec = typename ExtentMapIface<T>::SegmentVec;
  using ExtentVec = typename ExtentMapIface<T>::ExtentVec;
  using ExtentMapIface<T>::Lookup;  // keep the 2-arg convenience form visible

  static constexpr uint64_t kDefaultPageSpan = 256ull * 1024 * 1024;

  explicit PagedExtentMap(uint64_t resident_budget_bytes = 0,
                          uint64_t page_span = kDefaultPageSpan)
      : budget_(resident_budget_bytes), span_(page_span) {
    assert(span_ > 0);
  }

  void Update(uint64_t start, uint64_t len, T target,
              ExtentVec* displaced) override {
    if (displaced != nullptr) {
      displaced->clear();
    }
    ForEachPageRange(start, len, [&](uint64_t s, uint64_t l) {
      Page& pg = Resident(s / span_);
      ApplyDelta(pg, [&](ExtentMap<T>& m) {
        if (displaced != nullptr) {
          scratch_.clear();
          m.Update(s, l, target.Advanced(s - start), &scratch_);
          for (const auto& e : scratch_) {
            displaced->push_back(e);
          }
        } else {
          m.Update(s, l, target.Advanced(s - start), nullptr);
        }
      });
    });
    MaybeEvict();
  }

  void Remove(uint64_t start, uint64_t len, ExtentVec* removed) override {
    if (removed != nullptr) {
      removed->clear();
    }
    ForEachPageRange(start, len, [&](uint64_t s, uint64_t l) {
      auto it = pages_.find(s / span_);
      if (it == pages_.end()) {
        return;  // nothing mapped in this page
      }
      Page& pg = Resident(it);
      ApplyDelta(pg, [&](ExtentMap<T>& m) {
        if (removed != nullptr) {
          scratch_.clear();
          m.Remove(s, l, &scratch_);
          for (const auto& e : scratch_) {
            removed->push_back(e);
          }
        } else {
          m.Remove(s, l, nullptr);
        }
      });
    });
    MaybeEvict();
  }

  void Lookup(uint64_t start, uint64_t len, SegmentVec* out) const override {
    out->clear();
    ForEachPageRange(start, len, [&](uint64_t s, uint64_t l) {
      auto it = pages_.find(s / span_);
      if (it == pages_.end()) {
        EmitMerged(out, Segment{s, l, std::nullopt});
        return;
      }
      const Page& pg = Resident(it);
      page_scratch_.clear();
      pg.live->Lookup(s, l, &page_scratch_);
      for (const auto& seg : page_scratch_) {
        EmitMerged(out, seg);
      }
    });
    MaybeEvict();
  }

  std::optional<T> LookupOne(uint64_t addr) const override {
    auto it = pages_.find(addr / span_);
    if (it == pages_.end()) {
      return std::nullopt;
    }
    auto result = Resident(it).live->LookupOne(addr);
    MaybeEvict();
    return result;
  }

  void Clear() override {
    pages_.clear();
    mapped_ = 0;
    extents_ = 0;
    live_bytes_ = 0;
  }

  size_t extent_count() const override {
    return static_cast<size_t>(extents_);
  }
  uint64_t mapped_bytes() const override { return mapped_; }

  std::vector<Extent> Extents() const override {
    std::vector<Extent> out;
    out.reserve(extents_);
    for (const auto& [idx, pg] : pages_) {
      const auto emit = [&out](const Extent& e) {
        // Re-merge extents split at a page boundary so the snapshot is
        // byte-identical to what the flat map would produce.
        if (!out.empty()) {
          Extent& back = out.back();
          if (back.start + back.len == e.start &&
              back.target.Advanced(back.len) == e.target) {
            back.len += e.len;
            return;
          }
        }
        out.push_back(e);
      };
      if (pg.live != nullptr) {
        for (const auto& e : pg.live->Extents()) {
          emit(e);
        }
      } else {
        DecodePacked(idx, pg.packed, emit);
      }
    }
    return out;
  }

  // Total in-process bytes: packed backing store + live pages + directory.
  uint64_t MemoryBytes() const override {
    uint64_t packed = 0;
    for (const auto& [idx, pg] : pages_) {
      packed += pg.packed.capacity() + kPageOverhead;
    }
    return sizeof(*this) + packed + live_bytes_;
  }

  // Bytes held by live (unpacked) pages — what the resident budget bounds.
  uint64_t ResidentBytes() const { return live_bytes_; }
  // Bytes of the packed (checkpoint-form) representation alone.
  uint64_t PackedBytes() const {
    uint64_t packed = 0;
    for (const auto& [idx, pg] : pages_) {
      packed += pg.packed.size();
    }
    return packed;
  }
  uint64_t page_loads() const { return page_loads_; }
  uint64_t page_evictions() const { return page_evictions_; }
  size_t page_count() const { return pages_.size(); }
  uint64_t page_span() const { return span_; }

  void SetResidentBudget(uint64_t bytes) {
    budget_ = bytes;
    MaybeEvict();
  }

  // Packs every live page down to its compressed form (e.g. before taking a
  // memory measurement or a checkpoint).
  void PackAll() const {
    for (auto& [idx, pg] : pages_) {
      PackPage(idx, &pg);
    }
  }

 private:
  static constexpr uint64_t kPageOverhead = 64;  // directory node estimate

  struct Page {
    std::vector<uint8_t> packed;          // current iff live == nullptr or !dirty
    std::unique_ptr<ExtentMap<T>> live;   // unpacked form when resident
    uint64_t mapped = 0;
    uint64_t extents = 0;
    uint64_t last_use = 0;
    bool dirty = false;  // live has changes the packed form lacks
  };

  template <typename Fn>
  void ForEachPageRange(uint64_t start, uint64_t len, Fn&& fn) const {
    while (len > 0) {
      const uint64_t page_end = (start / span_ + 1) * span_;
      const uint64_t l = std::min(len, page_end - start);
      fn(start, l);
      start += l;
      len -= l;
    }
  }

  Page& Resident(uint64_t idx) const {
    auto it = pages_.find(idx);
    if (it == pages_.end()) {
      it = pages_.emplace(idx, Page{}).first;
      it->second.live = std::make_unique<ExtentMap<T>>();
      live_bytes_ += it->second.live->MemoryBytes();
    }
    return Resident(it);
  }

  Page& Resident(typename std::map<uint64_t, Page>::iterator it) const {
    Page& pg = it->second;
    pg.last_use = ++use_tick_;
    if (pg.live == nullptr) {
      pg.live = std::make_unique<ExtentMap<T>>();
      const uint8_t* p = pg.packed.data();
      const uint8_t* end = p + pg.packed.size();
      uint64_t pos = it->first * span_;
      const uint64_t count = p < end ? paged_detail::GetVar(&p, end) : 0;
      for (uint64_t i = 0; i < count; i++) {
        pos += paged_detail::GetVar(&p, end);
        const uint64_t elen = paged_detail::GetVar(&p, end);
        T target{};
        paged_detail::UnpackTarget(&p, end, &target);
        pg.live->Update(pos, elen, target, nullptr);
        pos += elen;
      }
      pg.dirty = false;
      page_loads_++;
      live_bytes_ += pg.live->MemoryBytes();
    }
    return pg;
  }

  // Runs a mutation against the page's live map, keeping the aggregate
  // counters in sync via before/after deltas.
  template <typename Fn>
  void ApplyDelta(Page& pg, Fn&& fn) const {
    const uint64_t mem_before = pg.live->MemoryBytes();
    fn(*pg.live);
    mapped_ += pg.live->mapped_bytes() - pg.mapped;
    extents_ += pg.live->extent_count() - pg.extents;
    live_bytes_ += pg.live->MemoryBytes() - mem_before;
    pg.mapped = pg.live->mapped_bytes();
    pg.extents = pg.live->extent_count();
    pg.dirty = true;
  }

  void PackPage(uint64_t idx, Page* pg) const {
    if (pg->live == nullptr) {
      return;
    }
    if (pg->dirty) {
      std::vector<uint8_t> packed;
      const auto extents = pg->live->Extents();
      paged_detail::PutVar(&packed, extents.size());
      uint64_t prev_end = idx * span_;
      for (const auto& e : extents) {
        paged_detail::PutVar(&packed, e.start - prev_end);
        paged_detail::PutVar(&packed, e.len);
        paged_detail::PackTarget(&packed, e.target);
        prev_end = e.start + e.len;
      }
      packed.shrink_to_fit();  // capacity counts toward MemoryBytes()
      pg->packed = std::move(packed);
      pg->dirty = false;
    }
    live_bytes_ -= pg->live->MemoryBytes();
    pg->live.reset();
  }

  template <typename Emit>
  void DecodePacked(uint64_t idx, const std::vector<uint8_t>& packed,
                    Emit&& emit) const {
    const uint8_t* p = packed.data();
    const uint8_t* end = p + packed.size();
    uint64_t pos = idx * span_;
    const uint64_t count = p < end ? paged_detail::GetVar(&p, end) : 0;
    for (uint64_t i = 0; i < count; i++) {
      pos += paged_detail::GetVar(&p, end);
      const uint64_t elen = paged_detail::GetVar(&p, end);
      T target{};
      paged_detail::UnpackTarget(&p, end, &target);
      emit(Extent{pos, elen, target});
      pos += elen;
    }
  }

  static void EmitMerged(SegmentVec* out, const Segment& seg) {
    if (!out->empty()) {
      Segment& back = (*out)[out->size() - 1];
      if (back.start + back.len == seg.start) {
        if (!back.target.has_value() && !seg.target.has_value()) {
          back.len += seg.len;
          return;
        }
        if (back.target.has_value() && seg.target.has_value() &&
            back.target->Advanced(back.len) == *seg.target) {
          back.len += seg.len;
          return;
        }
      }
    }
    out->push_back(seg);
  }

  void MaybeEvict() const {
    if (budget_ == 0) {
      return;
    }
    while (live_bytes_ > budget_) {
      auto victim = pages_.end();
      for (auto it = pages_.begin(); it != pages_.end(); ++it) {
        if (it->second.live == nullptr) {
          continue;
        }
        if (victim == pages_.end() ||
            it->second.last_use < victim->second.last_use) {
          victim = it;
        }
      }
      if (victim == pages_.end()) {
        break;
      }
      PackPage(victim->first, &victim->second);
      page_evictions_++;
      // Empty pages need no backing store at all once packed.
      if (victim->second.extents == 0) {
        pages_.erase(victim);
      }
    }
  }

  uint64_t budget_ = 0;
  const uint64_t span_;
  // The directory and counters are mutable because const lookups materialize
  // (and may evict) pages — semantically the map is unchanged.
  mutable std::map<uint64_t, Page> pages_;
  mutable uint64_t mapped_ = 0;
  mutable uint64_t extents_ = 0;
  mutable uint64_t live_bytes_ = 0;
  mutable uint64_t use_tick_ = 0;
  mutable uint64_t page_loads_ = 0;
  mutable uint64_t page_evictions_ = 0;
  mutable ExtentVec scratch_;
  mutable SegmentVec page_scratch_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_PAGED_EXTENT_MAP_H_
