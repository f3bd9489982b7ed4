// Pluggable garbage-collection victim-selection policies (docs/GC.md).
//
// The backend store and the trace-driven GC simulator both pick cleaning
// victims by scoring candidate objects and taking the highest score. The
// scoring function is the policy:
//
//   greedy        score = -u                  (least-utilized object; the
//                                              paper's §3.5 collector)
//   cost-benefit  score = (1-u)(1+a)/(1+u)    (Sprite-LFS benefit/cost:
//                                              free space gained x stability,
//                                              over the cost of reading and
//                                              rewriting the live fraction)
//   age-bucketed  score = 2b + (1-u), b = min(6, floor(log2(1+a)))
//                                             (coarse stability buckets:
//                                              always prefer an older bucket,
//                                              break ties greedily)
//
// where u = live_bytes/total_bytes and a is the *stable* age: both
// collectors fill `age` from the object-sequence clock (objects created
// since this candidate was sealed, next_seq - seq — the simulator's zoned
// mode, which scores whole zones rather than objects, uses its batch clock
// instead), and for GC output (generation > 0) the policies floor it at
// 2^generation - 1. Every scoring input is persisted state — sequence
// numbers and the generation in the v2+ data-object header survive
// recovery; wall/seal clocks would not — so a recovered store ranks
// victims identically to the pre-crash store. Callers scan candidates in
// ascending sequence order and
// replace the best only on a strictly greater score, so ties go to the
// lowest sequence number — with the greedy score this reproduces the
// historical least-ratio scan bit for bit.
#ifndef SRC_LSVD_GC_POLICY_H_
#define SRC_LSVD_GC_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace lsvd {

enum class GcPolicyKind : uint8_t {
  kGreedy = 0,
  kCostBenefit = 1,
  kAgeBucketed = 2,
};

// Canonical names ("greedy", "cost-benefit", "age-bucketed") for configs,
// bench flags and metric dumps.
const char* GcPolicyKindName(GcPolicyKind kind);
std::optional<GcPolicyKind> ParseGcPolicyKind(std::string_view name);

// One candidate object (or zone, in the simulator's zoned mode) as the
// policy sees it. Eligibility filtering (sealed, not already pending, below
// the utilization ceiling, right shard) stays in the caller; the policy only
// ranks.
struct GcCandidate {
  uint64_t seq = 0;
  uint64_t total_bytes = 0;
  uint64_t live_bytes = 0;
  // Stability clock: objects created since this candidate was sealed
  // (next_seq - seq). Callers MUST fill it from persisted, recoverable
  // state — the object-sequence clock, never a seal/wall clock — so that
  // scores survive crash recovery. The simulator's zoned mode, whose zone
  // candidates have no sequence, uses its batch clock (zones are never
  // recovered, so stability is moot there).
  double age = 0.0;
  // GC generation: 0 for fresh client data, 1 + max victim generation for
  // GC output. Persisted in the v2+ data-object header; the age-sensitive
  // policies floor a generation-tagged object's effective age at 2^g - 1,
  // its pedigree even in the instant after the collection that produced it.
  uint32_t generation = 0;

  double utilization() const {
    return total_bytes == 0 ? 1.0
                            : static_cast<double>(live_bytes) /
                                  static_cast<double>(total_bytes);
  }
};

class GcPolicy {
 public:
  virtual ~GcPolicy() = default;
  virtual GcPolicyKind kind() const = 0;
  // Higher is a better victim. Scores are only compared within one policy.
  virtual double Score(const GcCandidate& candidate) const = 0;
  const char* name() const { return GcPolicyKindName(kind()); }

  static std::unique_ptr<GcPolicy> Create(GcPolicyKind kind);
};

}  // namespace lsvd

#endif  // SRC_LSVD_GC_POLICY_H_
