// GC victim-selection policies (docs/GC.md; DESIGN.md §11): score ordering
// on hand-built candidates, the ascending-seq tie-break convention, and the
// policies' end-to-end effect in the trace-driven GC simulator (including
// cold segregation and the zoned/SMR reclaim mode).
#include <gtest/gtest.h>

#include <vector>

#include "src/lsvd/gc_policy.h"
#include "src/lsvd/gc_sim.h"
#include "src/util/units.h"
#include "src/workload/trace_gen.h"

namespace lsvd {
namespace {

GcCandidate Cand(uint64_t seq, uint64_t total, uint64_t live, double age) {
  GcCandidate c;
  c.seq = seq;
  c.total_bytes = total;
  c.live_bytes = live;
  c.age = age;
  return c;
}

TEST(GcPolicyKindTest, ParseAndNameRoundTrip) {
  for (GcPolicyKind kind :
       {GcPolicyKind::kGreedy, GcPolicyKind::kCostBenefit,
        GcPolicyKind::kAgeBucketed}) {
    auto parsed = ParseGcPolicyKind(GcPolicyKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(ParseGcPolicyKind("cost_benefit"), GcPolicyKind::kCostBenefit);
  EXPECT_EQ(ParseGcPolicyKind("age_bucketed"), GcPolicyKind::kAgeBucketed);
  EXPECT_FALSE(ParseGcPolicyKind("lru").has_value());
  EXPECT_FALSE(ParseGcPolicyKind("").has_value());
}

TEST(GcPolicyKindTest, CreateReturnsMatchingKind) {
  for (GcPolicyKind kind :
       {GcPolicyKind::kGreedy, GcPolicyKind::kCostBenefit,
        GcPolicyKind::kAgeBucketed}) {
    auto policy = GcPolicy::Create(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_STREQ(policy->name(), GcPolicyKindName(kind));
  }
}

TEST(GreedyPolicyTest, PrefersLeastUtilized) {
  auto greedy = GcPolicy::Create(GcPolicyKind::kGreedy);
  const double quarter = greedy->Score(Cand(1, 100, 25, 0.0));
  const double half = greedy->Score(Cand(2, 100, 50, 0.0));
  const double full = greedy->Score(Cand(3, 100, 100, 0.0));
  EXPECT_GT(quarter, half);
  EXPECT_GT(half, full);
}

TEST(GreedyPolicyTest, IgnoresAge) {
  auto greedy = GcPolicy::Create(GcPolicyKind::kGreedy);
  EXPECT_EQ(greedy->Score(Cand(1, 100, 50, 0.0)),
            greedy->Score(Cand(2, 100, 50, 1000.0)));
}

TEST(CostBenefitPolicyTest, PrefersOlderAtEqualUtilization) {
  auto cb = GcPolicy::Create(GcPolicyKind::kCostBenefit);
  EXPECT_GT(cb->Score(Cand(1, 100, 50, 10.0)),
            cb->Score(Cand(2, 100, 50, 1.0)));
}

TEST(CostBenefitPolicyTest, PrefersEmptierAtEqualAge) {
  auto cb = GcPolicy::Create(GcPolicyKind::kCostBenefit);
  EXPECT_GT(cb->Score(Cand(1, 100, 25, 5.0)),
            cb->Score(Cand(2, 100, 75, 5.0)));
}

TEST(CostBenefitPolicyTest, OldColdBeatsYoungHalfEmpty) {
  // The Sprite-LFS tradeoff: a 90%-full object idle for 100 batch-times
  // yields more benefit per copy cost than a 50%-full object written
  // moments ago — greedy would pick the opposite.
  auto cb = GcPolicy::Create(GcPolicyKind::kCostBenefit);
  auto greedy = GcPolicy::Create(GcPolicyKind::kGreedy);
  const GcCandidate old_cold = Cand(1, 100, 90, 100.0);
  const GcCandidate young_half = Cand(2, 100, 50, 0.0);
  EXPECT_GT(cb->Score(old_cold), cb->Score(young_half));
  EXPECT_GT(greedy->Score(young_half), greedy->Score(old_cold));
}

TEST(CostBenefitPolicyTest, FullObjectScoresZero) {
  auto cb = GcPolicy::Create(GcPolicyKind::kCostBenefit);
  EXPECT_EQ(cb->Score(Cand(1, 100, 100, 50.0)), 0.0);
  EXPECT_GT(cb->Score(Cand(2, 100, 99, 0.0)), 0.0);
}

TEST(AgeBucketedPolicyTest, BucketDominatesUtilization) {
  // An object one bucket older wins even against a completely empty
  // younger one: 2*b term strictly dominates the (1-u) tie-break.
  auto ab = GcPolicy::Create(GcPolicyKind::kAgeBucketed);
  EXPECT_GT(ab->Score(Cand(1, 100, 99, 3.5)),   // bucket floor(log2(4.5)) = 2
            ab->Score(Cand(2, 100, 0, 1.0)));   // bucket 1
}

TEST(AgeBucketedPolicyTest, UtilizationBreaksTiesWithinBucket) {
  auto ab = GcPolicy::Create(GcPolicyKind::kAgeBucketed);
  EXPECT_GT(ab->Score(Cand(1, 100, 25, 2.0)),
            ab->Score(Cand(2, 100, 75, 2.5)));  // same bucket (1)
}

TEST(AgeBucketedPolicyTest, BucketSaturates) {
  auto ab = GcPolicy::Create(GcPolicyKind::kAgeBucketed);
  // Both ages land in the saturated bucket (6); only utilization differs.
  EXPECT_GT(ab->Score(Cand(1, 100, 40, 200.0)),
            ab->Score(Cand(2, 100, 60, 20000.0)));
}

TEST(GcPolicyTest, AscendingScanTieBreaksToLowestSeq) {
  // Callers scan candidates in ascending seq and replace only on a strictly
  // greater score, so equal-scoring candidates resolve to the lowest seq —
  // the convention that keeps greedy bit-identical to the historical scan.
  for (GcPolicyKind kind :
       {GcPolicyKind::kGreedy, GcPolicyKind::kCostBenefit,
        GcPolicyKind::kAgeBucketed}) {
    auto policy = GcPolicy::Create(kind);
    const std::vector<GcCandidate> candidates = {
        Cand(3, 100, 50, 2.0), Cand(5, 100, 50, 2.0), Cand(9, 100, 50, 2.0)};
    uint64_t victim = 0;
    double best = -1e300;
    for (const auto& c : candidates) {
      const double s = policy->Score(c);
      if (s > best) {
        best = s;
        victim = c.seq;
      }
    }
    EXPECT_EQ(victim, 3u) << GcPolicyKindName(kind);
  }
}

// --- end-to-end: the policies driving the trace simulator ---

TraceProfile ProfileByName(const std::string& name) {
  for (const auto& profile : TraceProfile::Table5()) {
    if (profile.name == name) {
      return profile;
    }
  }
  ADD_FAILURE() << "no Table 5 profile named " << name;
  return TraceProfile{};
}

GcSimResult RunProfile(const TraceProfile& profile, uint64_t scale,
                       GcSimConfig config) {
  GcSimulator sim(config);
  auto stream = MakeTraceStream(profile, scale, 17);
  uint64_t vlba = 0;
  uint64_t len = 0;
  while (stream(&vlba, &len)) {
    sim.Write(vlba, len);
  }
  return sim.Finish();
}

GcSimConfig HighPressureConfig() {
  GcSimConfig config;
  config.batch_bytes = 32 * kMiB;
  config.gc_low_watermark = 0.85;
  config.gc_high_watermark = 0.89;
  return config;
}

TEST(GcSimPolicyTest, DeterministicPerPolicy) {
  const TraceProfile w04 = ProfileByName("w04");
  for (GcPolicyKind kind :
       {GcPolicyKind::kGreedy, GcPolicyKind::kCostBenefit,
        GcPolicyKind::kAgeBucketed}) {
    GcSimConfig config = HighPressureConfig();
    config.policy = kind;
    const GcSimResult a = RunProfile(w04, 512, config);
    const GcSimResult b = RunProfile(w04, 512, config);
    EXPECT_EQ(a.backend_bytes, b.backend_bytes) << GcPolicyKindName(kind);
    EXPECT_EQ(a.objects_created, b.objects_created) << GcPolicyKindName(kind);
    EXPECT_EQ(a.extent_count, b.extent_count) << GcPolicyKindName(kind);
    EXPECT_GE(a.waf(), 1.0) << GcPolicyKindName(kind);
  }
}

TEST(GcSimPolicyTest, CostBenefitNotWorseThanGreedyAtHighUtilization) {
  // The fig21 acceptance shape as a regression, at fig21's own smoke
  // point (w04, scale 256, 0.90 target): cost-benefit must not lose to
  // greedy on write amplification (it wins outright here — the simulator
  // is deterministic, so this is a stable comparison, not a flaky one).
  const TraceProfile w04 = ProfileByName("w04");
  GcSimConfig config = HighPressureConfig();
  config.gc_low_watermark = 0.90;
  config.gc_high_watermark = 0.94;
  config.segregate_cold = true;
  config.policy = GcPolicyKind::kGreedy;
  const GcSimResult greedy = RunProfile(w04, 256, config);
  config.policy = GcPolicyKind::kCostBenefit;
  const GcSimResult cb = RunProfile(w04, 256, config);
  EXPECT_GT(greedy.gc_copied_bytes, 0u);  // the run must actually collect
  EXPECT_LE(cb.waf(), greedy.waf() + 1e-9);
}

TEST(GcSimPolicyTest, SegregateColdPacksGcOutput) {
  // Shared cold output objects fill to batch_bytes across cleaning rounds,
  // so segregation creates fewer (larger) objects than the one-copy-object-
  // per-victim default while relocating comparable data.
  const TraceProfile w04 = ProfileByName("w04");
  GcSimConfig config = HighPressureConfig();
  config.segregate_cold = false;
  const GcSimResult plain = RunProfile(w04, 512, config);
  config.segregate_cold = true;
  const GcSimResult packed = RunProfile(w04, 512, config);
  EXPECT_GT(plain.gc_copied_bytes, 0u);
  EXPECT_GT(packed.gc_copied_bytes, 0u);
  EXPECT_LT(packed.objects_created, plain.objects_created);
  EXPECT_GE(packed.waf(), 1.0);
}

TEST(GcSimZonedTest, ReclaimsWholeZones) {
  const TraceProfile w04 = ProfileByName("w04");
  GcSimConfig config = HighPressureConfig();
  config.zone_bytes = 4 * config.batch_bytes;
  const GcSimResult r = RunProfile(w04, 512, config);
  EXPECT_GT(r.zones_reset, 0u);
  EXPECT_GT(r.gc_copied_bytes, 0u);
  EXPECT_GE(r.waf(), 1.0);
  EXPECT_GT(r.extent_count, 0u);
  // Deterministic like every other mode.
  const GcSimResult again = RunProfile(w04, 512, config);
  EXPECT_EQ(r.backend_bytes, again.backend_bytes);
  EXPECT_EQ(r.zones_reset, again.zones_reset);
}

TEST(GcSimZonedTest, PolicyChangesZonedReclaim) {
  // Victim scoring applies to whole zones too; the sweep stays sane for
  // every policy (WAF >= 1, zones actually reset).
  const TraceProfile w04 = ProfileByName("w04");
  for (GcPolicyKind kind :
       {GcPolicyKind::kGreedy, GcPolicyKind::kCostBenefit,
        GcPolicyKind::kAgeBucketed}) {
    GcSimConfig config = HighPressureConfig();
    config.zone_bytes = 4 * config.batch_bytes;
    config.policy = kind;
    const GcSimResult r = RunProfile(w04, 512, config);
    EXPECT_GT(r.zones_reset, 0u) << GcPolicyKindName(kind);
    EXPECT_GE(r.waf(), 1.0) << GcPolicyKindName(kind);
  }
}

TEST(GcSimShardedTest, CollectsEveryShardDeterministically) {
  // Three shards, each collected on its own utilization under the one
  // policy: the run collects and repeats exactly.
  const TraceProfile w04 = ProfileByName("w04");
  GcSimConfig config = HighPressureConfig();
  config.shards = 3;
  config.policy = GcPolicyKind::kCostBenefit;
  const GcSimResult r = RunProfile(w04, 512, config);
  EXPECT_GT(r.gc_copied_bytes, 0u);
  EXPECT_GE(r.waf(), 1.0);
  const GcSimResult again = RunProfile(w04, 512, config);
  EXPECT_EQ(r.backend_bytes, again.backend_bytes);
  EXPECT_EQ(r.objects_created, again.objects_created);
}

}  // namespace
}  // namespace lsvd
