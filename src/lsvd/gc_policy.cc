#include "src/lsvd/gc_policy.h"

#include <algorithm>
#include <cmath>

namespace lsvd {
namespace {

class GreedyPolicy : public GcPolicy {
 public:
  GcPolicyKind kind() const override { return GcPolicyKind::kGreedy; }
  double Score(const GcCandidate& c) const override {
    // Negated utilization: the strictly-greater replacement rule makes this
    // exactly the historical strictly-less least-ratio scan.
    return -c.utilization();
  }
};

// Effective age for scoring. Client data (generation 0) ages on the
// caller's advisory clock. GC output (generation > 0) must rank the same
// before and after crash recovery, so callers fill its `age` from the
// crash-stable object-sequence clock (objects created since this one; see
// GcCandidate::age) and the persisted generation tag floors the result at
// 2^g - 1: data that survived g collections is at least as stable as data
// that aged through g log2 buckets, even in the instant after the
// collection that produced it. Every input is persisted state, so a
// recovered store scores GC output identically to the pre-crash store.
double StableAge(const GcCandidate& c) {
  const double age = std::max(0.0, c.age);
  if (c.generation == 0) {
    return age;
  }
  // The pedigree floor saturates at generation 6, like the age-bucketed
  // cap: without the cap, each collection of already-cold output doubles
  // the floor and the collector feeds back into re-collecting its own
  // output.
  const double floor_age =
      std::exp2(static_cast<double>(std::min(c.generation, 6u))) - 1.0;
  return std::max(age, floor_age);
}

class CostBenefitPolicy : public GcPolicy {
 public:
  GcPolicyKind kind() const override { return GcPolicyKind::kCostBenefit; }
  double Score(const GcCandidate& c) const override {
    // Sprite-LFS benefit/cost. Benefit: the free space gained (1-u) weighted
    // by how long the data has been stable (1+age — the +1 keeps freshly
    // sealed mostly-dead objects collectable). Cost: read the object and
    // rewrite the live fraction, 1+u.
    const double u = c.utilization();
    return (1.0 - u) * (1.0 + StableAge(c)) / (1.0 + u);
  }
};

class AgeBucketedPolicy : public GcPolicy {
 public:
  GcPolicyKind kind() const override { return GcPolicyKind::kAgeBucketed; }
  double Score(const GcCandidate& c) const override {
    // Coarse stability buckets: floor(log2(1+age)) capped at 6. Any object
    // in an older bucket beats any object in a younger one (the 2x stride
    // dominates the [0,1] greedy term); within a bucket, pick greedily.
    // The generation floor inside StableAge lands GC output in bucket >= g.
    const double b = std::min(6.0, std::floor(std::log2(1.0 + StableAge(c))));
    return 2.0 * b + (1.0 - c.utilization());
  }
};

}  // namespace

const char* GcPolicyKindName(GcPolicyKind kind) {
  switch (kind) {
    case GcPolicyKind::kGreedy:
      return "greedy";
    case GcPolicyKind::kCostBenefit:
      return "cost-benefit";
    case GcPolicyKind::kAgeBucketed:
      return "age-bucketed";
  }
  return "unknown";
}

std::optional<GcPolicyKind> ParseGcPolicyKind(std::string_view name) {
  if (name == "greedy") {
    return GcPolicyKind::kGreedy;
  }
  if (name == "cost-benefit" || name == "cost_benefit") {
    return GcPolicyKind::kCostBenefit;
  }
  if (name == "age-bucketed" || name == "age_bucketed") {
    return GcPolicyKind::kAgeBucketed;
  }
  return std::nullopt;
}

std::unique_ptr<GcPolicy> GcPolicy::Create(GcPolicyKind kind) {
  switch (kind) {
    case GcPolicyKind::kCostBenefit:
      return std::make_unique<CostBenefitPolicy>();
    case GcPolicyKind::kAgeBucketed:
      return std::make_unique<AgeBucketedPolicy>();
    case GcPolicyKind::kGreedy:
      break;
  }
  return std::make_unique<GreedyPolicy>();
}

}  // namespace lsvd
