// Unit and property tests for the extent map, LSVD's central translation
// structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "src/lsvd/extent_map.h"
#include "src/util/codec.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace lsvd {
namespace {

using Map = ExtentMap<SsdTarget>;

TEST(ExtentMap, EmptyLookups) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.LookupOne(100), std::nullopt);
  auto segs = m.Lookup(0, 100);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_FALSE(segs[0].target.has_value());
  EXPECT_EQ(segs[0].len, 100u);
}

TEST(ExtentMap, SimpleInsertAndLookup) {
  Map m;
  m.Update(100, 50, SsdTarget{1000});
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.mapped_bytes(), 50u);
  EXPECT_EQ(m.LookupOne(100)->plba, 1000u);
  EXPECT_EQ(m.LookupOne(149)->plba, 1049u);
  EXPECT_EQ(m.LookupOne(150), std::nullopt);
  EXPECT_EQ(m.LookupOne(99), std::nullopt);
}

TEST(ExtentMap, OverwriteMiddleSplits) {
  Map m;
  m.Update(0, 100, SsdTarget{1000});
  auto displaced = m.Update(40, 20, SsdTarget{5000});
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0].start, 40u);
  EXPECT_EQ(displaced[0].len, 20u);
  EXPECT_EQ(displaced[0].target.plba, 1040u);

  EXPECT_EQ(m.extent_count(), 3u);
  EXPECT_EQ(m.mapped_bytes(), 100u);
  EXPECT_EQ(m.LookupOne(39)->plba, 1039u);
  EXPECT_EQ(m.LookupOne(40)->plba, 5000u);
  EXPECT_EQ(m.LookupOne(59)->plba, 5019u);
  EXPECT_EQ(m.LookupOne(60)->plba, 1060u);
}

TEST(ExtentMap, OverwriteSpanningMultipleExtents) {
  Map m;
  m.Update(0, 10, SsdTarget{100});
  m.Update(10, 10, SsdTarget{500});
  m.Update(20, 10, SsdTarget{900});
  auto displaced = m.Update(5, 20, SsdTarget{7000});
  ASSERT_EQ(displaced.size(), 3u);
  EXPECT_EQ(displaced[0].start, 5u);
  EXPECT_EQ(displaced[0].len, 5u);
  EXPECT_EQ(displaced[0].target.plba, 105u);
  EXPECT_EQ(displaced[1].start, 10u);
  EXPECT_EQ(displaced[1].len, 10u);
  EXPECT_EQ(displaced[2].start, 20u);
  EXPECT_EQ(displaced[2].len, 5u);
  EXPECT_EQ(m.mapped_bytes(), 30u);
}

TEST(ExtentMap, AdjacentContiguousExtentsMerge) {
  Map m;
  m.Update(0, 10, SsdTarget{100});
  m.Update(10, 10, SsdTarget{110});  // target continues: should merge
  EXPECT_EQ(m.extent_count(), 1u);
  m.Update(20, 10, SsdTarget{999});  // not contiguous target: no merge
  EXPECT_EQ(m.extent_count(), 2u);
  // Fill a hole whose both sides line up: all three merge.
  Map m2;
  m2.Update(0, 10, SsdTarget{100});
  m2.Update(20, 10, SsdTarget{120});
  EXPECT_EQ(m2.extent_count(), 2u);
  m2.Update(10, 10, SsdTarget{110});
  EXPECT_EQ(m2.extent_count(), 1u);
  EXPECT_EQ(m2.mapped_bytes(), 30u);
}

TEST(ExtentMap, RemoveReturnsRemoved) {
  Map m;
  m.Update(0, 100, SsdTarget{0});
  auto removed = m.Remove(25, 50);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].start, 25u);
  EXPECT_EQ(removed[0].len, 50u);
  EXPECT_EQ(m.mapped_bytes(), 50u);
  EXPECT_EQ(m.extent_count(), 2u);
  EXPECT_EQ(m.LookupOne(25), std::nullopt);
  EXPECT_EQ(m.LookupOne(74), std::nullopt);
  EXPECT_EQ(m.LookupOne(75)->plba, 75u);
}

TEST(ExtentMap, LookupSegmentsCoverGapsAndMappings) {
  Map m;
  m.Update(10, 10, SsdTarget{100});
  m.Update(30, 10, SsdTarget{300});
  auto segs = m.Lookup(0, 50);
  ASSERT_EQ(segs.size(), 5u);
  EXPECT_FALSE(segs[0].target.has_value());  // [0,10)
  EXPECT_EQ(segs[1].target->plba, 100u);     // [10,20)
  EXPECT_FALSE(segs[2].target.has_value());  // [20,30)
  EXPECT_EQ(segs[3].target->plba, 300u);     // [30,40)
  EXPECT_FALSE(segs[4].target.has_value());  // [40,50)
  uint64_t covered = 0;
  for (const auto& s : segs) {
    covered += s.len;
  }
  EXPECT_EQ(covered, 50u);
}

TEST(ExtentMap, LookupPartialExtentAdvancesTarget) {
  Map m;
  m.Update(0, 100, SsdTarget{1000});
  auto segs = m.Lookup(30, 10);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].target->plba, 1030u);
}

TEST(ExtentMap, ObjTargetAdvance) {
  ExtentMap<ObjTarget> m;
  m.Update(0, 4096, ObjTarget{7, 512});
  auto t = m.LookupOne(1000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->seq, 7u);
  EXPECT_EQ(t->offset, 512u + 1000u);
  // Same object, discontinuous offsets: no merge.
  m.Update(4096, 4096, ObjTarget{7, 9000});
  EXPECT_EQ(m.extent_count(), 2u);
  // Contiguous continuation merges.
  ExtentMap<ObjTarget> m2;
  m2.Update(0, 4096, ObjTarget{7, 512});
  m2.Update(4096, 4096, ObjTarget{7, 512 + 4096});
  EXPECT_EQ(m2.extent_count(), 1u);
}

TEST(ExtentMap, ClearResets) {
  Map m;
  m.Update(0, 100, SsdTarget{5});
  m.Clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.mapped_bytes(), 0u);
}

// Directed accounting checks for the partial-overlap Update/Remove paths:
// every trim/shrink combination must leave mapped_bytes() equal to the sum of
// the surviving extent lengths.
TEST(ExtentMap, PartialOverlapAccounting) {
  // Remove clipping head, tail, middle, and spanning several extents.
  Map m;
  m.Update(0, 100, SsdTarget{1000});
  m.Remove(0, 10);  // head clip
  EXPECT_EQ(m.mapped_bytes(), 90u);
  m.Remove(90, 20);  // tail clip (extends past the end)
  EXPECT_EQ(m.mapped_bytes(), 80u);
  m.Remove(40, 10);  // middle punch splits
  EXPECT_EQ(m.mapped_bytes(), 70u);
  EXPECT_EQ(m.extent_count(), 2u);
  m.Update(200, 50, SsdTarget{5000});
  m.Remove(30, 250);  // spans the split pair and the far extent
  EXPECT_EQ(m.mapped_bytes(), 20u);
  uint64_t sum = 0;
  for (const auto& e : m.Extents()) {
    sum += e.len;
  }
  EXPECT_EQ(m.mapped_bytes(), sum);

  // Update overlapping both neighbors partially: net mapped size is the
  // union, not old + new.
  Map m2;
  m2.Update(0, 50, SsdTarget{100});
  m2.Update(60, 50, SsdTarget{900});
  m2.Update(40, 40, SsdTarget{5000});  // clips 10 off each neighbor
  EXPECT_EQ(m2.mapped_bytes(), 110u);
  sum = 0;
  for (const auto& e : m2.Extents()) {
    sum += e.len;
  }
  EXPECT_EQ(m2.mapped_bytes(), sum);

  // Zero-net-change overwrite of an exact extent.
  m2.Update(40, 40, SsdTarget{7000});
  EXPECT_EQ(m2.mapped_bytes(), 110u);
}

// ForEachFrom walks the map in place: from any address it visits exactly
// the Extents() suffix that starts there, stops when told to, and a
// checkpoint-style stream (count, then every extent) is byte-identical to
// one encoded from the Extents() copy.
TEST(ExtentMap, ForEachFromMatchesExtentsCopy) {
  Map m;
  Rng rng(11);
  for (uint64_t i = 0; i < 5000; i++) {
    m.Update(rng.Uniform(20000) * 4096, (1 + rng.Uniform(3)) * 4096,
             SsdTarget{i * kMiB});
  }
  const auto all = m.Extents();
  ASSERT_GT(all.size(), 10 * Map::kLeafCap);
  for (int i = 0; i < 300; i++) {
    const uint64_t addr = rng.Uniform(20000 * 4096 + 8192);
    const size_t limit = i % 2 == 0 ? all.size() : rng.Uniform(200);
    std::vector<MapExtent<SsdTarget>> got;
    m.ForEachFrom(addr, [&](const MapExtent<SsdTarget>& e) {
      if (got.size() == limit) {
        return false;
      }
      got.push_back(e);
      return true;
    });
    size_t first = 0;
    while (first < all.size() && all[first].start < addr) {
      first++;
    }
    const size_t n = std::min(limit, all.size() - first);
    const std::vector<MapExtent<SsdTarget>> want(
        all.begin() + static_cast<ptrdiff_t>(first),
        all.begin() + static_cast<ptrdiff_t>(first + n));
    ASSERT_EQ(got, want) << "addr " << addr;
  }

  Encoder streamed;
  streamed.PutU32(static_cast<uint32_t>(m.extent_count()));
  m.ForEachFrom(0, [&streamed](const MapExtent<SsdTarget>& e) {
    streamed.PutU64(e.start);
    streamed.PutU64(e.len);
    streamed.PutU64(e.target.plba);
    return true;
  });
  Encoder copied;
  copied.PutU32(static_cast<uint32_t>(all.size()));
  for (const auto& e : all) {
    copied.PutU64(e.start);
    copied.PutU64(e.len);
    copied.PutU64(e.target.plba);
  }
  EXPECT_EQ(streamed.Take(), copied.Take());
}

// Punching most of a fragmented map away merges its underfilled leaves, so
// the reported footprint falls with the extent count.
TEST(ExtentMap, MemoryShrinksWithExtentCountAfterPunching) {
  Map m;
  constexpr uint64_t kExtents = 50000;
  for (uint64_t i = 0; i < kExtents; i++) {
    m.Update(i * 8192, 4096, SsdTarget{i * 16384});  // gaps: no merging
  }
  ASSERT_EQ(m.extent_count(), kExtents);
  const uint64_t full_bytes = m.MemoryBytes();
  // Keep the first extent of every ten.
  for (uint64_t i = 0; i < kExtents; i += 10) {
    m.Remove(i * 8192 + 8192, 9 * 8192);
  }
  ASSERT_EQ(m.extent_count(), kExtents / 10);
  EXPECT_LT(m.MemoryBytes(), full_bytes / 4);
  // Punch everything: every leaf is freed; only the directory arrays'
  // capacity (16 bytes per peak leaf) remains.
  m.Remove(0, kExtents * 8192);
  EXPECT_TRUE(m.empty());
  EXPECT_LT(m.MemoryBytes(), full_bytes / 50);
}

// Fence maintenance. A leaf keeps the start of every 8th entry in a fence
// line, so every edit that moves an entry, changes a group's first start or
// changes a leaf's count must refresh it. These cases drive each such edit
// at the group boundaries (slot 0, whose fence is the directory entry, and
// slot 8, the first upper fence) and check the structure and every block.

constexpr uint64_t kB = 4 * kKiB;

// The SSD address of every 4 KiB block, or none.
class BlockModel {
 public:
  explicit BlockModel(uint64_t blocks) : plba_(blocks) {}

  void Update(Map* m, uint64_t block, uint64_t n, uint64_t plba) {
    m->Update(block * kB, n * kB, SsdTarget{plba});
    for (uint64_t i = 0; i < n; i++) {
      plba_[block + i] = plba + i * kB;
    }
  }
  void Remove(Map* m, uint64_t block, uint64_t n) {
    m->Remove(block * kB, n * kB);
    for (uint64_t i = 0; i < n; i++) {
      plba_[block + i].reset();
    }
  }
  std::optional<uint64_t> At(uint64_t block) const { return plba_[block]; }

  // Checks the structure, then every block in a strided order, so most
  // lookups miss the hint and descend.
  void Check(const Map& m) const {
    ASSERT_EQ(m.CheckInvariants(), "");
    const uint64_t n = plba_.size();
    uint64_t mapped = 0;
    for (uint64_t i = 0; i < n; i++) {
      const uint64_t block = i * 37 % n;
      const auto got = m.LookupOne(block * kB + 17);
      if (plba_[block].has_value()) {
        ASSERT_TRUE(got.has_value()) << "block " << block;
        ASSERT_EQ(got->plba, *plba_[block] + 17) << "block " << block;
        mapped += kB;
      } else {
        ASSERT_EQ(got, std::nullopt) << "block " << block;
      }
    }
    ASSERT_EQ(m.mapped_bytes(), mapped);
  }

 private:
  std::vector<std::optional<uint64_t>> plba_;
};

// `extents` extents of four blocks, the i-th at blocks [5i+1, 5i+5), with
// targets that never continue each other; sorted, so they fill leaves
// completely and extent i sits at slot i % 64 of leaf i / 64.
void FillGapped(Map* m, BlockModel* model, uint64_t extents) {
  for (uint64_t i = 0; i < extents; i++) {
    model->Update(m, 5 * i + 1, 4, (1 + 8 * i) * kB);
  }
  ASSERT_EQ(m->extent_count(), extents);
}

TEST(ExtentMapFences, SplitsAtTheEndAndInTheMiddle) {
  Map m;
  BlockModel model(4 * 5 * Map::kLeafCap);
  for (uint64_t i = 0; i < 2 * Map::kLeafCap + 9; i++) {
    model.Update(&m, 5 * i + 1, 4, (1 + 8 * i) * kB);
    ASSERT_EQ(m.CheckInvariants(), "") << "append " << i;
  }
  // Sorted appends filled two leaves and started a third.
  model.Check(m);
  // An insert into a full leaf splits it in half; it lands in the left
  // half, then (in the next full leaf) in the right one, so the left
  // half's emptied groups keep no stale fence.
  model.Update(&m, 5 * 20, 1, 7 * kB);
  model.Check(m);
  model.Update(&m, 5 * 120, 1, 7 * kB + kGiB);
  model.Check(m);
}

TEST(ExtentMapFences, PunchAndTrimAtGroupBoundaries) {
  for (const uint64_t slot : {0, 8, 16}) {
    const uint64_t b = 5 * slot + 1;  // first block of the extent at `slot`
    // Punch a hole in the middle: the right part is inserted after it.
    {
      Map m;
      BlockModel model(5 * 24 + 5);
      FillGapped(&m, &model, 24);
      model.Remove(&m, b + 1, 2);
      model.Check(m);
      ASSERT_EQ(m.extent_count(), 25u);
    }
    // Trim the left edge: the entry's start moves.
    {
      Map m;
      BlockModel model(5 * 24 + 5);
      FillGapped(&m, &model, 24);
      model.Remove(&m, b, 1);
      model.Check(m);
    }
    // Trim the right edge: the start stays.
    {
      Map m;
      BlockModel model(5 * 24 + 5);
      FillGapped(&m, &model, 24);
      model.Remove(&m, b + 3, 1);
      model.Check(m);
    }
    // Overwrite the gap and the first block: a left trim, then an insert
    // at the same slot.
    {
      Map m;
      BlockModel model(5 * 24 + 5);
      FillGapped(&m, &model, 24);
      model.Update(&m, b - 1, 2, 3 * kGiB);
      model.Check(m);
      ASSERT_EQ(m.extent_count(), 25u);
    }
    // Fill the gap with a target that continues the extent: it merges
    // with its next neighbour, whose start moves down.
    {
      Map m;
      BlockModel model(5 * 24 + 5);
      FillGapped(&m, &model, 24);
      model.Update(&m, b - 1, 1, *model.At(b) - kB);
      model.Check(m);
      ASSERT_EQ(m.extent_count(), 24u);
    }
    // Remove the entry whole.
    {
      Map m;
      BlockModel model(5 * 24 + 5);
      FillGapped(&m, &model, 24);
      model.Remove(&m, b, 4);
      model.Check(m);
      ASSERT_EQ(m.extent_count(), 23u);
    }
  }
}

TEST(ExtentMapFences, EraseWholeGroups) {
  Map m;
  BlockModel model(5 * Map::kLeafCap + 5);
  FillGapped(&m, &model, Map::kLeafCap);
  // Groups 1 and 2 (slots 8..23) in one range, then group 0, then the
  // last group: the count drops and later groups' fences move down.
  model.Remove(&m, 5 * 8, 5 * 16);
  model.Check(m);
  ASSERT_EQ(m.extent_count(), Map::kLeafCap - 16);
  model.Remove(&m, 0, 5 * 8);
  model.Check(m);
  model.Remove(&m, 5 * (Map::kLeafCap - 8), 5 * 8 + 5);
  model.Check(m);
  ASSERT_EQ(m.extent_count(), Map::kLeafCap - 32);
  // Everything but one extent, then everything.
  model.Remove(&m, 0, 5 * (Map::kLeafCap - 9));
  model.Check(m);
  ASSERT_EQ(m.extent_count(), 1u);
  model.Remove(&m, 0, 5 * Map::kLeafCap + 5);
  model.Check(m);
  EXPECT_TRUE(m.empty());
}

TEST(ExtentMapFences, LeafMergesKeepFences) {
  constexpr uint64_t kCap = Map::kLeafCap;
  // Merge into the left neighbour: thin leaf 0, then leaf 1 below a
  // quarter, so leaf 1 is appended to leaf 0.
  {
    Map m;
    BlockModel model(5 * 4 * kCap + 5);
    FillGapped(&m, &model, 4 * kCap);
    model.Remove(&m, 5 * 3, 5 * (kCap - 23));  // leaf 0 keeps 23
    model.Check(m);
    model.Remove(&m, 5 * (kCap + 2), 5 * (kCap - 11));  // leaf 1 keeps 11
    model.Check(m);
    ASSERT_EQ(m.extent_count(), 2 * kCap + 34);
  }
  // Merge with the right neighbour: leaf 0 stays full, so a thinned leaf 1
  // takes leaf 2 (thinned first) into its tail.
  {
    Map m;
    BlockModel model(5 * 4 * kCap + 5);
    FillGapped(&m, &model, 4 * kCap);
    model.Remove(&m, 5 * (2 * kCap + 5), 5 * (kCap - 30));  // leaf 2: 30
    model.Check(m);
    model.Remove(&m, 5 * (kCap + 1), 5 * (kCap - 13));  // leaf 1: 13
    model.Check(m);
    ASSERT_EQ(m.extent_count(), 2 * kCap + 43);
  }
}

TEST(ExtentMapFences, CopyAndMoveMidRunAreIndependent) {
  Map m;
  BlockModel model(5 * 3 * Map::kLeafCap);
  FillGapped(&m, &model, 2 * Map::kLeafCap + 7);
  Rng rng(5);
  for (int i = 0; i < 200; i++) {
    model.Update(&m, rng.Uniform(5 * 2 * Map::kLeafCap), 1 + rng.Uniform(3),
                 (1 + rng.Uniform(1 << 20)) * 2 * kGiB);
  }
  model.Check(m);
  Map copy(m);
  BlockModel copy_model = model;
  copy_model.Check(copy);
  // Edits to one leave the other as it was.
  model.Remove(&m, 5 * 8, 5 * 70);
  copy_model.Update(&copy, 5 * 8, 9, 5 * kGiB);
  model.Check(m);
  copy_model.Check(copy);

  Map moved(std::move(m));
  EXPECT_EQ(m.CheckInvariants(), "");  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(m.empty());
  model.Check(moved);
  m = std::move(copy);
  copy_model.Check(m);
  moved = m;
  copy_model.Check(moved);
}

// Property test: random updates/removes against a per-byte reference model.
class ExtentMapProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtentMapProperty, MatchesByteLevelReferenceModel) {
  Rng rng(GetParam());
  Map m;
  std::map<uint64_t, uint64_t> ref;  // byte addr -> target byte
  constexpr uint64_t kSpace = 2000;

  for (int step = 0; step < 500; step++) {
    const uint64_t start = rng.Uniform(kSpace);
    const uint64_t len = 1 + rng.Uniform(64);
    if (rng.Bernoulli(0.8)) {
      const uint64_t target = rng.Uniform(1u << 20);
      m.Update(start, len, SsdTarget{target});
      for (uint64_t i = 0; i < len; i++) {
        ref[start + i] = target + i;
      }
    } else {
      m.Remove(start, len);
      for (uint64_t i = 0; i < len; i++) {
        ref.erase(start + i);
      }
    }

    // Invariant: mapped_bytes matches the reference, and the leaves, the
    // directory and the fences are consistent.
    ASSERT_EQ(m.mapped_bytes(), ref.size());
    ASSERT_EQ(m.CheckInvariants(), "") << "step " << step;

    // Invariant: the mapped_bytes accumulator never drifts from the ground
    // truth, the sum of extent lengths (guards the partial-overlap
    // Update/Remove accounting paths).
    uint64_t extent_len_sum = 0;
    for (const auto& e : m.Extents()) {
      extent_len_sum += e.len;
    }
    ASSERT_EQ(m.mapped_bytes(), extent_len_sum) << "step " << step;

    // Spot-check random addresses.
    for (int probe = 0; probe < 20; probe++) {
      const uint64_t addr = rng.Uniform(kSpace + 100);
      auto got = m.LookupOne(addr);
      auto it = ref.find(addr);
      if (it == ref.end()) {
        ASSERT_EQ(got, std::nullopt) << "addr " << addr << " step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "addr " << addr << " step " << step;
        ASSERT_EQ(got->plba, it->second) << "addr " << addr;
      }
    }
  }

  // Full-range Lookup covers every byte exactly once with correct targets.
  auto segs = m.Lookup(0, kSpace + 100);
  uint64_t pos = 0;
  for (const auto& s : segs) {
    ASSERT_EQ(s.start, pos);
    for (uint64_t i = 0; i < s.len; i++) {
      auto it = ref.find(s.start + i);
      if (s.target.has_value()) {
        ASSERT_TRUE(it != ref.end());
        ASSERT_EQ(s.target->plba + i, it->second);
      } else {
        ASSERT_TRUE(it == ref.end());
      }
    }
    pos += s.len;
  }
  EXPECT_EQ(pos, kSpace + 100);

  // Extents() reports non-overlapping, sorted, merged extents.
  auto extents = m.Extents();
  for (size_t i = 1; i < extents.size(); i++) {
    ASSERT_GE(extents[i].start, extents[i - 1].start + extents[i - 1].len);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

}  // namespace
}  // namespace lsvd
