// Extent map: ordered map of byte ranges [start, start+len) -> target.
//
// LSVD keeps all translation state in extent maps held purely in memory
// (paper §3.1, §6.1): the write-cache map (vLBA -> SSD pLBA), the read-cache
// map, and the object map (vLBA -> object seq/offset). Targets must describe
// how they advance when an extent is split, so a mapping for 64 KiB can be
// cut anywhere and both halves still point at the right bytes.
//
// Adjacent extents whose targets are contiguous are merged on insert; the
// resulting extent count is the memory-usage measure reported in Table 5.
//
// Layout: a B+tree with one level of leaves under a flat directory. Each
// leaf is a sorted, fixed-capacity array of {start, len, target} entries
// (kLeafCap = 64) in eight groups of eight, behind one cache line that
// holds the entry count and the leaf's fences: the start of every group's
// first entry (UINT64_MAX for a group at or past the count). The directory
// keeps every leaf's first start in one contiguous array. A descent is a
// branch-free search of that array, a count over the leaf's seven upper
// fences, a prefetch of the chosen group and a branch-free count within
// it: a cold seek waits on the fence line and one group instead of the
// five or six dependent probes of a binary search over the whole leaf.
// Every edit refreshes the fences from the first group it touched.
// Positions are (leaf, slot) pairs.
//
// An update that trims an extent's left or right edge, or overwrites it
// exactly, edits the entry in place; only a hole punched in the middle of an
// extent or a full leaf makes an insert shift entries or split a leaf.
// Leaves that fall below a quarter full merge with a neighbour, so memory
// stays proportional to the extent count after heavy punching.
//
// This header sits on the per-IO hot path of every component, so it offers
// allocation-free variants of the classic interfaces:
//  - Lookup/Update/Remove accept a caller-provided SmallVector (8 inline
//    entries — a single IO rarely spans more extents) instead of returning
//    a heap-allocated std::vector. The vector-returning forms remain for
//    cold paths and tests.
//  - A cached last-extent position short-circuits the descent for the two
//    dominant access patterns, repeated hits to the same extent (4K random)
//    and sequential advance to the next one. The hint is only ever an
//    accelerator: any in-range position is a valid hint, and results are
//    identical with or without it (tests/extent_map_hint_test.cc fuzzes the
//    equivalence).
//  - ForEachFrom() walks the extents in order without copying them
//    (checkpoint encoding, bcache writeback selection).
#ifndef SRC_LSVD_EXTENT_MAP_H_
#define SRC_LSVD_EXTENT_MAP_H_

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/util/small_vector.h"

namespace lsvd {

// Target of a cache-map extent: a byte offset on the local SSD.
struct SsdTarget {
  uint64_t plba = 0;

  SsdTarget Advanced(uint64_t delta) const { return SsdTarget{plba + delta}; }
  friend bool operator==(const SsdTarget&, const SsdTarget&) = default;
};

// Target of an object-map extent: position within a numbered backend object.
struct ObjTarget {
  uint64_t seq = 0;      // object sequence number
  uint64_t offset = 0;   // byte offset of the data within the object

  ObjTarget Advanced(uint64_t delta) const {
    return ObjTarget{seq, offset + delta};
  }
  friend bool operator==(const ObjTarget&, const ObjTarget&) = default;
};

// A mapped extent: [start, start+len) -> target.
template <typename T>
struct MapExtent {
  uint64_t start = 0;
  uint64_t len = 0;
  T target{};

  friend bool operator==(const MapExtent&, const MapExtent&) = default;
};

// A lookup segment: when `target` is empty the range is unmapped.
template <typename T>
struct MapSegment {
  uint64_t start = 0;
  uint64_t len = 0;
  std::optional<T> target;
};

template <typename T>
class ExtentMap {
 public:
  using Extent = MapExtent<T>;
  using Segment = MapSegment<T>;
  using SegmentVec = SmallVector<Segment, 8>;
  using ExtentVec = SmallVector<Extent, 8>;

  // Entries per leaf: 1.5-2 KiB of entries, so an in-leaf shift stays
  // within a few dozen cache lines, in eight groups of eight behind one
  // fence line.
  static constexpr uint32_t kLeafCap = 64;

  ExtentMap() = default;
  ExtentMap(const ExtentMap& other)
      : firsts_(other.firsts_),
        count_(other.count_),
        mapped_(other.mapped_),
        hint_(other.hint_) {
    leaves_.reserve(other.leaves_.size());
    for (const auto& leaf : other.leaves_) {
      leaves_.push_back(std::make_unique<Leaf>(*leaf));
    }
  }
  ExtentMap& operator=(const ExtentMap& other) {
    if (this != &other) {
      *this = ExtentMap(other);
    }
    return *this;
  }
  // A moved-from map is empty.
  ExtentMap(ExtentMap&& other) noexcept
      : firsts_(std::exchange(other.firsts_, {})),
        leaves_(std::exchange(other.leaves_, {})),
        count_(std::exchange(other.count_, 0)),
        mapped_(std::exchange(other.mapped_, 0)),
        hint_(other.hint_) {}
  ExtentMap& operator=(ExtentMap&& other) noexcept {
    if (this != &other) {
      firsts_ = std::exchange(other.firsts_, {});
      leaves_ = std::exchange(other.leaves_, {});
      count_ = std::exchange(other.count_, 0);
      mapped_ = std::exchange(other.mapped_, 0);
      hint_ = other.hint_;
    }
    return *this;
  }

  // Maps [start, start+len) to `target`, replacing any overlapped mappings.
  // The (portions of) previous extents that were displaced are appended to
  // `displaced` (cleared first; pass nullptr to discard) — the garbage
  // collector uses these to decrement per-object live counts.
  void Update(uint64_t start, uint64_t len, T target,
              ExtentVec* displaced) {
    if (displaced != nullptr) {
      displaced->clear();
      UpdateImpl(start, len, target,
                 [displaced](const Extent& e) { displaced->push_back(e); });
    } else {
      UpdateImpl(start, len, target, [](const Extent&) {});
    }
  }

  // Vector-returning form (cold paths, tests).
  std::vector<Extent> Update(uint64_t start, uint64_t len, T target) {
    std::vector<Extent> displaced;
    UpdateImpl(start, len, target,
               [&displaced](const Extent& e) { displaced.push_back(e); });
    return displaced;
  }

  // Removes mappings in [start, start+len); what was removed is appended to
  // `removed` (cleared first; pass nullptr to discard).
  void Remove(uint64_t start, uint64_t len, ExtentVec* removed) {
    if (removed != nullptr) {
      removed->clear();
      RemoveImpl(start, len,
                 [removed](const Extent& e) { removed->push_back(e); });
    } else {
      RemoveImpl(start, len, [](const Extent&) {});
    }
  }

  std::vector<Extent> Remove(uint64_t start, uint64_t len) {
    std::vector<Extent> removed;
    RemoveImpl(start, len,
               [&removed](const Extent& e) { removed.push_back(e); });
    return removed;
  }

  // Splits [start, start+len) into maximal segments that are each either
  // fully mapped by one extent or fully unmapped, appended to `out`
  // (cleared first).
  void Lookup(uint64_t start, uint64_t len, SegmentVec* out) const {
    out->clear();
    LookupImpl(start, len, [out](Segment s) { out->push_back(s); });
  }

  std::vector<Segment> Lookup(uint64_t start, uint64_t len) const {
    std::vector<Segment> out;
    LookupImpl(start, len,
               [&out](Segment s) { out.push_back(std::move(s)); });
    return out;
  }

  // Target covering the single byte at `addr`, if mapped.
  std::optional<T> LookupOne(uint64_t addr) const {
    const Pos p = SeekFirstEndingAfter(addr);
    if (IsEnd(p) || At(p).start > addr) {
      return std::nullopt;
    }
    hint_ = p;
    return At(p).target.Advanced(addr - At(p).start);
  }

  void Clear() {
    firsts_.clear();
    firsts_.shrink_to_fit();
    leaves_.clear();
    leaves_.shrink_to_fit();
    count_ = 0;
    mapped_ = 0;
  }

  size_t extent_count() const { return count_; }
  uint64_t mapped_bytes() const { return mapped_; }
  bool empty() const { return leaves_.empty(); }

  // Calls fn(extent) for each extent starting at or after `addr`, in
  // address order, until fn returns false. fn must not modify the map.
  template <typename Fn>
  void ForEachFrom(uint64_t addr, Fn&& fn) const {
    Pos p = SeekFirstEndingAfter(addr);
    if (!IsEnd(p) && At(p).start < addr) {
      p = Next(p);
    }
    for (; p.leaf < leaves_.size(); p = {p.leaf + 1, 0}) {
      const Leaf& leaf = *leaves_[p.leaf];
      for (uint32_t s = p.slot; s < leaf.n; s++) {
        if (!fn(leaf.e[s])) {
          return;
        }
      }
    }
  }

  // In-order snapshot of all extents (checkpointing, tests).
  std::vector<Extent> Extents() const {
    std::vector<Extent> out;
    out.reserve(count_);
    for (const auto& leaf : leaves_) {
      out.insert(out.end(), leaf->e, leaf->e + leaf->n);
    }
    return out;
  }

  // Resident bytes: every leaf at full capacity (its fence line included)
  // plus the directory arrays.
  uint64_t MemoryBytes() const {
    return sizeof(*this) + leaves_.size() * sizeof(Leaf) +
           firsts_.capacity() * sizeof(uint64_t) +
           leaves_.capacity() * sizeof(std::unique_ptr<Leaf>);
  }

  // Test hook: checks every structural invariant and returns a description
  // of the first one broken, or an empty string. Entries are sorted,
  // non-empty and non-overlapping across leaves; no leaf is empty; the
  // directory and every fence match the entries; the extent count and the
  // mapped byte count are exact.
  std::string CheckInvariants() const {
    if (firsts_.size() != leaves_.size()) {
      return "directory size differs from the leaf count";
    }
    const auto broken = [](size_t li, const char* what, uint32_t i) {
      return "leaf " + std::to_string(li) + ": " + what + " " +
             std::to_string(i);
    };
    size_t count = 0;
    uint64_t mapped = 0;
    uint64_t prev_end = 0;
    for (size_t li = 0; li < leaves_.size(); li++) {
      const Leaf& leaf = *leaves_[li];
      if (leaf.n == 0 || leaf.n > kLeafCap) {
        return broken(li, "holds a bad entry count", leaf.n);
      }
      if (firsts_[li] != leaf.e[0].start) {
        return broken(li, "differs from its directory entry at slot", 0);
      }
      for (uint32_t g = 1; g < kGroups; g++) {
        if (leaf.fence[g - 1] != FenceOf(leaf, g)) {
          return broken(li, "has a stale fence for group", g);
        }
      }
      for (uint32_t s = 0; s < leaf.n; s++) {
        const Extent& x = leaf.e[s];
        if (x.len == 0) {
          return broken(li, "holds an empty extent at slot", s);
        }
        if ((li > 0 || s > 0) && x.start < prev_end) {
          return broken(li, "overlaps or misorders the extent at slot", s);
        }
        prev_end = x.start + x.len;
        mapped += x.len;
      }
      count += leaf.n;
    }
    if (count != count_) {
      return "extent count is stale";
    }
    if (mapped != mapped_) {
      return "mapped byte count is stale";
    }
    return "";
  }

 private:
  // Entries per group: one fence each, searched by one branch-free count.
  static constexpr uint32_t kGroupSize = 8;
  static constexpr uint32_t kGroups = kLeafCap / kGroupSize;
  static_assert(kGroups * kGroupSize == kLeafCap);
  static constexpr uint64_t kNoFence = std::numeric_limits<uint64_t>::max();

  // The first cache line holds the count and the upper fences; the entries
  // start on the next line, so a group of 24- or 32-byte entries fills
  // whole lines.
  struct alignas(64) Leaf {
    // fence[g-1] is e[8g].start for the groups g in 1..7 below n, else
    // kNoFence; group 0's fence is the directory entry.
    uint64_t fence[kGroups - 1] = {kNoFence, kNoFence, kNoFence, kNoFence,
                                   kNoFence, kNoFence, kNoFence};
    uint32_t n = 0;
    alignas(64) Extent e[kLeafCap];
  };
  static_assert(offsetof(Leaf, e) == 64, "fences share one line with n");

  // (leaf, slot). The end position is {leaves_.size(), 0}; no leaf is ever
  // empty, so every other in-range position names an extent.
  struct Pos {
    size_t leaf = 0;
    uint32_t slot = 0;
  };

  bool IsEnd(Pos p) const { return p.leaf == leaves_.size(); }
  const Extent& At(Pos p) const { return leaves_[p.leaf]->e[p.slot]; }
  Extent& At(Pos p) { return leaves_[p.leaf]->e[p.slot]; }
  Pos Next(Pos p) const {
    return p.slot + 1 < leaves_[p.leaf]->n ? Pos{p.leaf, p.slot + 1}
                                            : Pos{p.leaf + 1, 0};
  }
  // Requires a position after the first extent (End is fine).
  Pos Prev(Pos p) const {
    return p.slot > 0 ? Pos{p.leaf, p.slot - 1}
                      : Pos{p.leaf - 1, leaves_[p.leaf - 1]->n - 1};
  }

  // First extent whose end is strictly after `addr` — the only extent that
  // can cover `addr`, and the first that can overlap [addr, ...). Checks
  // the cached hint (same-extent and next-extent cases) before paying for
  // a descent.
  Pos SeekFirstEndingAfter(uint64_t addr) const {
    if (hint_.leaf < leaves_.size() && hint_.slot < leaves_[hint_.leaf]->n) {
      const Extent& h = At(hint_);
      if (addr >= h.start) {
        if (addr < h.start + h.len) {
          return hint_;  // repeated hit on the same extent
        }
        // Sequential advance: everything at or before the hint ends at or
        // before the hint's end <= addr, so the next extent is the first
        // candidate — provided it actually ends after addr.
        const Pos next = Next(hint_);
        if (IsEnd(next) || addr < At(next).start + At(next).len) {
          return next;
        }
      }
    }
    // Last leaf whose first extent starts at or before addr: no earlier leaf
    // can hold an extent ending after addr, since extents do not overlap.
    // A branch-free upper bound over the directory.
    size_t len = firsts_.size();
    if (len == 0) {
      return Pos{0, 0};
    }
    const uint64_t* base = firsts_.data();
    while (len > 1) {
      const size_t half = len / 2;
      base = base[half] <= addr ? base + half : base;
      len -= half;
    }
    if (*base > addr) {
      return Pos{0, 0};
    }
    const auto li = static_cast<size_t>(base - firsts_.data());
    const Leaf& leaf = *leaves_[li];
    // The last group whose first entry starts at or before addr (group 0's
    // does: it is firsts_[li]). Clamped for addr == kNoFence.
    uint32_t g = 0;
    for (uint32_t k = 0; k < kGroups - 1; k++) {
      g += static_cast<uint32_t>(leaf.fence[k] <= addr);
    }
    g = std::min(g, (leaf.n - 1) / kGroupSize);
    const Extent* grp = leaf.e + g * kGroupSize;
    for (size_t off = 0; off < kGroupSize * sizeof(Extent); off += 64) {
      __builtin_prefetch(reinterpret_cast<const char*>(grp) + off);
    }
    // Upper bound within the group: entries past n are stale and masked.
    const uint32_t live = std::min(kGroupSize, leaf.n - g * kGroupSize);
    uint32_t c = 0;
    for (uint32_t k = 0; k < kGroupSize; k++) {
      c += static_cast<uint32_t>((k < live) & (grp[k].start <= addr));
    }
    uint32_t s = g * kGroupSize + c;
    // e[s-1] starts at or before addr (c >= 1: the group's first entry does).
    if (leaf.e[s - 1].start + leaf.e[s - 1].len > addr) {
      s--;
    }
    return s < leaf.n ? Pos{li, s} : Pos{li + 1, 0};
  }

  // What fence[g-1] must hold for a leaf's current entries.
  static uint64_t FenceOf(const Leaf& leaf, uint32_t g) {
    return g * kGroupSize < leaf.n ? leaf.e[g * kGroupSize].start : kNoFence;
  }
  // Refreshes the fence of every group whose first entry is at or after
  // `slot`, after the entries from `slot` on moved or the count changed.
  static void RefreshFences(Leaf& leaf, uint32_t slot) {
    for (uint32_t g = std::max(1u, (slot + kGroupSize - 1) / kGroupSize);
         g < kGroups; g++) {
      leaf.fence[g - 1] = FenceOf(leaf, g);
    }
  }
  // Moves the start of the extent at p, keeping the directory and fences.
  void SetStart(Pos p, uint64_t start) {
    Leaf& leaf = *leaves_[p.leaf];
    leaf.e[p.slot].start = start;
    if (p.slot == 0) {
      firsts_[p.leaf] = start;
    } else if (p.slot % kGroupSize == 0) {
      leaf.fence[p.slot / kGroupSize - 1] = start;
    }
  }

  bool MergesWithPrev(Pos p, uint64_t start, const T& target) const {
    if (p.leaf == 0 && p.slot == 0) {
      return false;
    }
    const Extent& prev = At(Prev(p));
    return prev.start + prev.len == start &&
           prev.target.Advanced(prev.len) == target;
  }
  bool MergesWithNext(Pos p, uint64_t end, const T& target_at_end) const {
    return !IsEnd(p) && At(p).start == end && At(p).target == target_at_end;
  }

  template <typename Emit>
  void UpdateImpl(uint64_t start, uint64_t len, T target, Emit&& emit) {
    if (len == 0) {
      return;
    }
    Pos p = SeekFirstEndingAfter(start);
    if (!IsEnd(p)) {
      // Exact overwrite: retarget the entry in place unless the new target
      // would merge it with a neighbour.
      Extent& e = At(p);
      if (e.start == start && e.len == len &&
          !MergesWithPrev(p, start, target) &&
          !MergesWithNext(Next(p), start + len, target.Advanced(len))) {
        emit(e);
        e.target = target;
        hint_ = p;
        return;
      }
    }
    p = RemoveFrom(p, start, start + len, emit);
    InsertAndMerge(p, start, len, target);
  }

  template <typename Emit>
  void RemoveImpl(uint64_t start, uint64_t len, Emit&& emit) {
    if (len == 0) {
      return;
    }
    hint_ = RemoveFrom(SeekFirstEndingAfter(start), start, start + len, emit);
  }

  // Removes [start, end) starting at p, the first extent ending after
  // `start`. Returns the position of the first extent starting at or after
  // `end` — where an extent for [start, end) belongs.
  template <typename Emit>
  Pos RemoveFrom(Pos p, uint64_t start, uint64_t end, Emit&& emit) {
    while (!IsEnd(p)) {
      Leaf& leaf = *leaves_[p.leaf];
      Extent& e = leaf.e[p.slot];
      if (e.start >= end) {
        break;
      }
      const uint64_t e_end = e.start + e.len;
      if (e.start < start) {  // left part survives: trim its right edge
        const uint64_t cut_end = std::min(e_end, end);
        emit(Extent{start, cut_end - start,
                    e.target.Advanced(start - e.start)});
        mapped_ -= cut_end - start;
        e.len = start - e.start;
        if (e_end > end) {  // hole punched in the middle of e
          return InsertAt(Pos{p.leaf, p.slot + 1},
                          Extent{end, e_end - end,
                                 e.target.Advanced(end - e.start)});
        }
        p = Next(p);
        continue;
      }
      if (e_end > end) {  // right part survives: trim its left edge
        emit(Extent{e.start, end - e.start, e.target});
        mapped_ -= end - e.start;
        e.target = e.target.Advanced(end - e.start);
        e.len = e_end - end;
        SetStart(p, end);
        return p;
      }
      // Fully covered: drop the whole covered run of this leaf at once.
      uint32_t last = p.slot;
      do {
        emit(leaf.e[last]);
        mapped_ -= leaf.e[last].len;
        last++;
      } while (last < leaf.n && leaf.e[last].start + leaf.e[last].len <= end);
      p = EraseRange(p.leaf, p.slot, last);
    }
    return p;
  }

  // [start, start+len) is unmapped and p is the first extent after it.
  void InsertAndMerge(Pos p, uint64_t start, uint64_t len, T target) {
    const bool merge_prev = MergesWithPrev(p, start, target);
    const bool merge_next =
        MergesWithNext(p, start + len, target.Advanced(len));
    mapped_ += len;
    if (merge_prev) {
      Pos q = Prev(p);
      At(q).len += len;
      if (merge_next) {
        At(q).len += At(p).len;
        q = Prev(EraseRange(p.leaf, p.slot, p.slot + 1));
      }
      hint_ = q;
    } else if (merge_next) {
      Extent& next = At(p);
      next.len += len;
      next.target = target;
      SetStart(p, start);
      hint_ = p;
    } else {
      hint_ = InsertAt(p, Extent{start, len, target});
    }
  }

  // Inserts x at p (slot may equal the leaf's count: append to that leaf),
  // splitting a full leaf. Returns x's position.
  Pos InsertAt(Pos p, const Extent& x) {
    if (leaves_.empty()) {
      leaves_.push_back(std::make_unique<Leaf>());
      firsts_.push_back(x.start);
      p = Pos{0, 0};
    } else if (IsEnd(p)) {
      p = Pos{leaves_.size() - 1, leaves_.back()->n};
    }
    Leaf* leaf = leaves_[p.leaf].get();
    if (leaf->n == kLeafCap) {
      // Split in half, except that an append at the very end of the map
      // starts an empty leaf, so sorted loads fill leaves completely.
      const bool at_end =
          p.slot == kLeafCap && p.leaf + 1 == leaves_.size();
      const uint32_t keep = at_end ? kLeafCap : kLeafCap / 2;
      auto right = std::make_unique<Leaf>();
      right->n = kLeafCap - keep;
      std::copy(leaf->e + keep, leaf->e + kLeafCap, right->e);
      leaf->n = keep;
      RefreshFences(*leaf, keep);
      RefreshFences(*right, 0);
      const uint64_t right_first = at_end ? x.start : right->e[0].start;
      leaves_.insert(leaves_.begin() + static_cast<ptrdiff_t>(p.leaf) + 1,
                     std::move(right));
      firsts_.insert(firsts_.begin() + static_cast<ptrdiff_t>(p.leaf) + 1,
                     right_first);
      if (at_end || p.slot > keep) {
        p = Pos{p.leaf + 1, p.slot - keep};
        leaf = leaves_[p.leaf].get();
      }
    }
    std::copy_backward(leaf->e + p.slot, leaf->e + leaf->n,
                       leaf->e + leaf->n + 1);
    leaf->e[p.slot] = x;
    leaf->n++;
    count_++;
    RefreshFences(*leaf, p.slot);
    if (p.slot == 0) {
      firsts_[p.leaf] = x.start;
    }
    return p;
  }

  // Erases slots [from, to) of leaf li; returns the position of the extent
  // that followed them, after dropping or merging an underfull leaf.
  Pos EraseRange(size_t li, uint32_t from, uint32_t to) {
    Leaf& leaf = *leaves_[li];
    std::copy(leaf.e + to, leaf.e + leaf.n, leaf.e + from);
    leaf.n -= to - from;
    count_ -= to - from;
    if (leaf.n == 0) {
      leaves_.erase(leaves_.begin() + static_cast<ptrdiff_t>(li));
      firsts_.erase(firsts_.begin() + static_cast<ptrdiff_t>(li));
      return Pos{li, 0};
    }
    RefreshFences(leaf, from);
    if (from == 0) {
      firsts_[li] = leaf.e[0].start;
    }
    const Pos next = from < leaf.n ? Pos{li, from} : Pos{li + 1, 0};
    if (leaf.n >= kLeafCap / 4) {
      return next;
    }
    if (li > 0 && leaves_[li - 1]->n + leaf.n <= kLeafCap) {
      return MergeLeaves(li - 1, next);
    }
    if (li + 1 < leaves_.size() && leaf.n + leaves_[li + 1]->n <= kLeafCap) {
      return MergeLeaves(li, next);
    }
    return next;
  }

  // Appends leaf li+1 to leaf li and drops it; returns p's new position.
  Pos MergeLeaves(size_t li, Pos p) {
    Leaf& dst = *leaves_[li];
    const Leaf& src = *leaves_[li + 1];
    const uint32_t base = dst.n;
    std::copy(src.e, src.e + src.n, dst.e + base);
    dst.n += src.n;
    RefreshFences(dst, base);
    leaves_.erase(leaves_.begin() + static_cast<ptrdiff_t>(li) + 1);
    firsts_.erase(firsts_.begin() + static_cast<ptrdiff_t>(li) + 1);
    if (p.leaf == li + 1) {
      return Pos{li, base + p.slot};
    }
    if (p.leaf > li + 1) {
      return Pos{p.leaf - 1, p.slot};
    }
    return p;
  }

  template <typename Emit>
  void LookupImpl(uint64_t start, uint64_t len, Emit&& emit) const {
    if (len == 0) {
      return;
    }
    const uint64_t end = start + len;
    uint64_t pos = start;

    Pos p = SeekFirstEndingAfter(start);
    bool hit = false;
    Pos last_hit;
    while (pos < end) {
      if (IsEnd(p) || At(p).start >= end) {
        emit(Segment{pos, end - pos, std::nullopt});
        break;
      }
      const Extent& e = At(p);
      if (e.start > pos) {
        emit(Segment{pos, e.start - pos, std::nullopt});
        pos = e.start;
      }
      const uint64_t seg_end = std::min(e.start + e.len, end);
      emit(Segment{pos, seg_end - pos, e.target.Advanced(pos - e.start)});
      pos = seg_end;
      last_hit = p;
      hit = true;
      p = Next(p);
    }
    if (hit) {
      // Remember the last extent touched: a sequential follow-up lookup
      // resumes from here in O(1).
      hint_ = last_hit;
    }
  }

  // Directory: firsts_[i] is the start of leaves_[i]'s first extent.
  std::vector<uint64_t> firsts_;
  std::vector<std::unique_ptr<Leaf>> leaves_;
  size_t count_ = 0;
  uint64_t mapped_ = 0;
  // Last-extent cache; used only while it is an in-range position.
  mutable Pos hint_;
};

}  // namespace lsvd

#endif  // SRC_LSVD_EXTENT_MAP_H_
