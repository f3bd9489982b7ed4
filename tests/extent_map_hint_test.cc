// The extent map's cached last-extent hint is a pure accelerator: results
// must be identical to a hint-free map for any interleaving of Update /
// Remove / Lookup / LookupOne. These tests fuzz that equivalence against a
// byte-granularity shadow model, emphasizing the access patterns the hint
// optimizes (sequential scans, repeated 4K hits) and the ones that
// invalidate it (erases under the hint, merges that replace the node). The
// fuzzer runs at map sizes from one leaf to ~50k extents (thousands of leaf
// splits, and merges while the map drains), and checks copies and moves
// taken mid-run against the same model. The map's structural invariants
// (sorted entries, directory, fences, counts) are checked after every op
// of the smaller sizes and every 64th op of the largest, where one check
// walks ~50k extents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/lsvd/extent_map.h"
#include "src/util/rng.h"
#include "src/util/small_vector.h"

namespace lsvd {
namespace {

constexpr uint64_t kGran = 16;  // op sizes and addresses are multiples

// Shadow model: the target of every kGran unit (seq 0 = unmapped; the
// fuzzer's targets start at seq 1). Every op is kGran-aligned, so a unit's
// bytes always share one extent and the unit's target fixes all of them.
class Shadow {
 public:
  explicit Shadow(uint64_t bytes) : units_(bytes / kGran) {}

  std::optional<ObjTarget> Get(uint64_t addr) const {
    const uint64_t u = addr / kGran;
    if (u >= units_.size() || units_[u].seq == 0) {
      return std::nullopt;
    }
    return units_[u].Advanced(addr % kGran);
  }
  void Update(uint64_t start, uint64_t len, ObjTarget target) {
    for (uint64_t i = 0; i < len; i += kGran) {
      ObjTarget& t = units_[(start + i) / kGran];
      mapped_ += t.seq == 0 ? kGran : 0;
      t = target.Advanced(i);
    }
  }
  void Remove(uint64_t start, uint64_t len) {
    for (uint64_t i = 0; i < len; i += kGran) {
      ObjTarget& t = units_[(start + i) / kGran];
      mapped_ -= t.seq != 0 ? kGran : 0;
      t = ObjTarget{};
    }
  }
  uint64_t size() const { return units_.size() * kGran; }
  uint64_t mapped() const { return mapped_; }

 private:
  std::vector<ObjTarget> units_;
  uint64_t mapped_ = 0;
};

// Checks map agrees with the shadow over [start, start+len) via Lookup.
// Segments must also be maximal: Update merges byte- and target-contiguous
// neighbours and Remove only opens holes, so no two adjacent extents ever
// continue each other, and the extent set is a function of the shadow.
void CheckRange(const ExtentMap<ObjTarget>& map, const Shadow& shadow,
                uint64_t start, uint64_t len) {
  ExtentMap<ObjTarget>::SegmentVec segs;
  map.Lookup(start, len, &segs);
  uint64_t pos = start;
  for (size_t k = 0; k < segs.size(); k++) {
    const auto& seg = segs[k];
    ASSERT_EQ(seg.start, pos);
    ASSERT_GT(seg.len, 0u);
    if (k > 0) {
      const auto& prev = segs[k - 1];
      const bool continues =
          prev.target.has_value()
              ? seg.target.has_value() &&
                    prev.target->Advanced(prev.len) == *seg.target
              : !seg.target.has_value();
      ASSERT_FALSE(continues) << "non-maximal segments at " << seg.start;
    }
    for (uint64_t i = 0; i < seg.len; i += kGran) {
      const auto want = shadow.Get(seg.start + i);
      if (seg.target.has_value()) {
        ASSERT_TRUE(want.has_value()) << "addr " << seg.start + i;
        ASSERT_EQ(*want, seg.target->Advanced(i));
      } else {
        ASSERT_FALSE(want.has_value()) << "addr " << seg.start + i;
      }
    }
    pos += seg.len;
  }
  ASSERT_EQ(pos, start + len);
}

// Full sweep plus the byte count.
void CheckAll(const ExtentMap<ObjTarget>& map, const Shadow& shadow) {
  ASSERT_EQ(map.mapped_bytes(), shadow.mapped());
  CheckRange(map, shadow, 0, shadow.size());
}

// Checks removed/displaced extents against the shadow's prior contents.
void CheckDisplaced(const ExtentMap<ObjTarget>::ExtentVec& out,
                    const Shadow& shadow) {
  for (const auto& e : out) {
    for (uint64_t i = 0; i < e.len; i += kGran) {
      const auto want = shadow.Get(e.start + i);
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(*want, e.target.Advanced(i));
    }
  }
}

// Map sizes for the fuzzer: `slots` addressable kGran units and ops of up to
// `max_len` units. A handful of extents stays in one leaf; thousands span
// dozens of leaves; ~50k force thousands of leaf splits and merges.
struct FuzzSize {
  const char* name;
  uint64_t slots;
  uint64_t max_len;
  int ops;
  uint64_t seeds;
  uint64_t min_peak;  // extents the run must reach at least once
  int check_every;    // ops between structural invariant checks
};

// Test listings print the size by name.
void PrintTo(const FuzzSize& size, std::ostream* os) { *os << size.name; }

class ExtentMapHintFuzz : public ::testing::TestWithParam<FuzzSize> {};

TEST_P(ExtentMapHintFuzz, FuzzAgainstShadowModel) {
  const FuzzSize& size = GetParam();
  const uint64_t space = size.slots * kGran;
  uint64_t peak_extents = 0;
  for (uint64_t seed = 1; seed <= size.seeds; seed++) {
    ExtentMap<ObjTarget> map;
    // Ops may run up to 2 * max_len units past `space` (sequential probes).
    Shadow shadow(space + 2 * size.max_len * kGran);
    Rng rng(seed);
    uint64_t next_target = 1;

    for (int op = 0; op < size.ops; op++) {
      if (op == size.ops / 3) {
        // Copy-construct, then empty the original: the copy is independent.
        ExtentMap<ObjTarget> copy(map);
        map.Remove(0, shadow.size(), nullptr);
        ASSERT_EQ(map.extent_count(), 0u);
        ASSERT_EQ(map.CheckInvariants(), "");
        ASSERT_EQ(copy.CheckInvariants(), "");
        CheckAll(copy, shadow);
        // Copy-assign back over the emptied map (stale hint included).
        map = copy;
        CheckAll(map, shadow);
      } else if (op == 2 * size.ops / 3) {
        ExtentMap<ObjTarget> moved(std::move(map));
        ASSERT_EQ(map.extent_count(), 0u);  // NOLINT(bugprone-use-after-move)
        ASSERT_EQ(map.mapped_bytes(), 0u);
        ASSERT_EQ(map.CheckInvariants(), "");
        ASSERT_EQ(moved.CheckInvariants(), "");
        CheckAll(moved, shadow);
        map = std::move(moved);
        CheckAll(map, shadow);
      }
      const uint64_t start = rng.Uniform(size.slots) * kGran;
      const uint64_t len = (1 + rng.Uniform(size.max_len)) * kGran;
      // The last third drains the map: wide punches replace half the
      // updates, so leaves underfill and merge.
      const bool draining = op >= 2 * size.ops / 3;
      const uint64_t kind = rng.Uniform(20);
      if (kind == 0 || (draining && kind >= 16)) {  // Wide punch
        const uint64_t wide = len * 16;
        map.Remove(start, wide, nullptr);
        shadow.Remove(start, std::min(wide, shadow.size() - start));
      } else if (kind < 4) {  // Remove
        ExtentMap<ObjTarget>::ExtentVec removed;
        map.Remove(start, len, &removed);
        CheckDisplaced(removed, shadow);
        shadow.Remove(start, len);
      } else if (kind < 10) {
        // Lookup, then its sequential continuation (the hint's fast path).
        CheckRange(map, shadow, start, len);
        CheckRange(map, shadow, start + len, len);
      } else if (kind < 12) {
        ASSERT_EQ(map.LookupOne(start), shadow.Get(start));
      } else {  // Update
        ObjTarget target{next_target++, rng.Uniform(1 << 20)};
        // A quarter of the updates continue a neighbour's target, so the
        // merge paths (with the left, the right, or both) run too.
        const auto left = start > 0 ? shadow.Get(start - 1) : std::nullopt;
        const auto right = shadow.Get(start + len);
        const uint64_t pick = rng.Uniform(8);
        if (pick == 0 && left.has_value()) {
          target = left->Advanced(1);
        } else if (pick == 1 && right.has_value() && right->offset >= len) {
          target = ObjTarget{right->seq, right->offset - len};
        }
        ExtentMap<ObjTarget>::ExtentVec displaced;
        map.Update(start, len, target, &displaced);
        CheckDisplaced(displaced, shadow);
        shadow.Update(start, len, target);
      }
      ASSERT_EQ(map.mapped_bytes(), shadow.mapped());
      if (op % size.check_every == 0) {
        ASSERT_EQ(map.CheckInvariants(), "") << "seed " << seed << " op "
                                             << op;
      }
      peak_extents = std::max<uint64_t>(peak_extents, map.extent_count());
    }
    CheckAll(map, shadow);
    ASSERT_EQ(map.CheckInvariants(), "");
    ASSERT_EQ(map.Extents().size(), map.extent_count());
  }
  EXPECT_GE(peak_extents, size.min_peak);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExtentMapHintFuzz,
    ::testing::Values(FuzzSize{"Handful", 16, 4, 2000, 6, 8, 1},
                      FuzzSize{"Thousands", 32768, 4, 20000, 3, 3000, 1},
                      FuzzSize{"FiftyK", 1 << 18, 2, 400000, 1, 45000, 64}),
    [](const ::testing::TestParamInfo<FuzzSize>& info) {
      return std::string(info.param.name);
    });

TEST(ExtentMapHint, SequentialLookupAfterEraseUnderHint) {
  ExtentMap<ObjTarget> map;
  // Three adjacent extents with non-contiguous targets (no merging).
  map.Update(0, 100, ObjTarget{1, 0});
  map.Update(100, 100, ObjTarget{2, 0});
  map.Update(200, 100, ObjTarget{3, 0});
  ASSERT_EQ(map.extent_count(), 3u);

  // Prime the hint onto the middle extent, then erase it.
  EXPECT_TRUE(map.LookupOne(150).has_value());
  map.Remove(100, 100);

  // The hint must not dangle: lookups on both sides still work.
  auto left = map.LookupOne(50);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->seq, 1u);
  auto gone = map.LookupOne(150);
  EXPECT_FALSE(gone.has_value());
  auto right = map.LookupOne(250);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->seq, 3u);
}

// Regression for the TRIM path: punching the extent the hint points at must
// not leave a dangling node reference. Prime the hint, Remove (trim) the
// hinted extent, then read *through* the punched range with ranged Lookups —
// under ASan this walks the freed node if the hint dangles.
TEST(ExtentMapHint, TrimHintedExtentThenReadThrough) {
  ExtentMap<ObjTarget> map;
  map.Update(0, 4096, ObjTarget{1, 0});
  map.Update(4096, 4096, ObjTarget{2, 0});
  map.Update(8192, 4096, ObjTarget{3, 0});

  // Hint onto the middle extent, then trim it away entirely.
  EXPECT_TRUE(map.LookupOne(6000).has_value());
  ExtentMap<ObjTarget>::ExtentVec removed;
  map.Remove(4096, 4096, &removed);
  ASSERT_EQ(removed.size(), 1u);

  // Ranged lookup spanning the punched hole — must report a gap, with both
  // neighbors intact.
  ExtentMap<ObjTarget>::SegmentVec segs;
  map.Lookup(0, 12288, &segs);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_TRUE(segs[0].target.has_value());
  EXPECT_FALSE(segs[1].target.has_value());
  EXPECT_EQ(segs[1].start, 4096u);
  EXPECT_EQ(segs[1].len, 4096u);
  EXPECT_TRUE(segs[2].target.has_value());
  EXPECT_EQ(segs[2].target->seq, 3u);

  // Partial punch that splits the hinted extent: hint pointed at the node
  // that gets erased and replaced by two halves.
  ExtentMap<ObjTarget> map2;
  map2.Update(0, 12288, ObjTarget{7, 0});
  EXPECT_TRUE(map2.LookupOne(6000).has_value());  // hint -> [0,12288)
  map2.Remove(4096, 4096, nullptr);
  EXPECT_EQ(map2.extent_count(), 2u);
  auto left = map2.LookupOne(100);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->offset, 100u);
  EXPECT_FALSE(map2.LookupOne(6000).has_value());
  auto right = map2.LookupOne(9000);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->offset, 9000u);

  // Trim everything while the hint points at the last extent, then read.
  map2.Remove(0, 12288, nullptr);
  EXPECT_TRUE(map2.empty());
  map2.Lookup(0, 12288, &segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_FALSE(segs[0].target.has_value());
}

TEST(ExtentMapHint, HintSurvivesMergeReplacingNode) {
  ExtentMap<ObjTarget> map;
  map.Update(0, 64, ObjTarget{9, 0});
  EXPECT_TRUE(map.LookupOne(32).has_value());  // hint -> [0,64)
  // Contiguous update merges into one extent [0,128), erasing the old node.
  map.Update(64, 64, ObjTarget{9, 64});
  ASSERT_EQ(map.extent_count(), 1u);
  auto got = map.LookupOne(100);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 9u);
  EXPECT_EQ(got->offset, 100u);
}

TEST(ExtentMapHint, OutParamMatchesVectorApi) {
  ExtentMap<ObjTarget> map;
  Rng rng(42);
  for (int i = 0; i < 500; i++) {
    map.Update(rng.Uniform(4096) * 16, (1 + rng.Uniform(16)) * 16,
               ObjTarget{static_cast<uint64_t>(i), 0});
  }
  for (int i = 0; i < 500; i++) {
    const uint64_t start = rng.Uniform(4096) * 16;
    const uint64_t len = (1 + rng.Uniform(32)) * 16;
    const auto via_vec = map.Lookup(start, len);
    ExtentMap<ObjTarget>::SegmentVec via_out;
    map.Lookup(start, len, &via_out);
    ASSERT_EQ(via_vec.size(), via_out.size());
    for (size_t k = 0; k < via_vec.size(); k++) {
      ASSERT_EQ(via_vec[k].start, via_out[k].start);
      ASSERT_EQ(via_vec[k].len, via_out[k].len);
      ASSERT_EQ(via_vec[k].target, via_out[k].target);
    }
  }
}

TEST(ExtentMapHint, UpdateNullDisplacedIsAllowed) {
  ExtentMap<ObjTarget> map;
  map.Update(0, 100, ObjTarget{1, 0}, nullptr);
  map.Update(50, 100, ObjTarget{2, 0}, nullptr);
  map.Remove(0, 25, nullptr);
  EXPECT_EQ(map.mapped_bytes(), 125u);
}

}  // namespace
}  // namespace lsvd
