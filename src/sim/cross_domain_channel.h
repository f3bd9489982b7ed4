// Typed message channels between simulation domains (DESIGN.md §14).
//
// A CrossDomainChannel is the only way an event in one SimDomain may affect
// another domain. Every channel carries a fixed minimum propagation delay —
// in this codebase the NetLink rtt/2 (plus any gateway overhead folded into
// the hop) — which is exactly the lookahead the conservative scheduler in
// sim_domain.h relies on: a message sent at time `s` cannot be delivered
// before `s + min_delay`, so the coordinator can let every domain run a
// whole window of that width without rollback.
//
// Determinism contract: channel ids are assigned by creation order, which
// callers must key to stable topology (e.g. shard index), NOT to how shards
// are packed onto domains or threads. Each channel stamps its messages with
// a private monotonically increasing sequence number; the coordinator drains
// all outboxes at each window barrier sorted by (deliver_time, channel_id,
// seq). Because both keys are independent of thread count and domain
// packing, the merged delivery order — and therefore every simulation
// result — is identical for any thread count or domain packing.
#ifndef SRC_SIM_CROSS_DOMAIN_CHANNEL_H_
#define SRC_SIM_CROSS_DOMAIN_CHANNEL_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/units.h"

namespace lsvd {

class SimDomain;
class SimDomainGroup;

class CrossDomainChannel {
 public:
  CrossDomainChannel(const CrossDomainChannel&) = delete;
  CrossDomainChannel& operator=(const CrossDomainChannel&) = delete;

  // Sends `fn` to the destination domain, to run `delay` ns after the source
  // domain's current virtual time. `delay` must be >= min_delay(); anything
  // shorter would break the lookahead proof, so it is clamped in release
  // builds (and asserts in debug builds).
  //
  // Must only be called from the source domain's event context (or from the
  // coordinator while all domains are quiesced).
  void SendAfter(Nanos delay, Simulator::Fn fn) {
    assert(delay >= min_delay_ && "send below channel lookahead");
    if (delay < min_delay_) {
      delay = min_delay_;  // release-mode safety: keep lookahead sound
    }
    outbox_.push_back(Message{src_now_() + delay, next_seq_++, std::move(fn)});
  }

  int id() const { return id_; }
  Nanos min_delay() const { return min_delay_; }
  SimDomain* src() const { return src_; }
  SimDomain* dst() const { return dst_; }

 private:
  friend class SimDomainGroup;

  struct Message {
    Nanos deliver;
    uint64_t seq;
    Simulator::Fn fn;
  };

  CrossDomainChannel(int id, SimDomain* src, SimDomain* dst, Nanos min_delay)
      : id_(id), src_(src), dst_(dst), min_delay_(min_delay) {
    assert(min_delay_ > 0 && "zero lookahead cannot make progress");
  }

  Nanos src_now_() const;  // defined in sim_domain.h (needs SimDomain)

  const int id_;
  SimDomain* const src_;
  SimDomain* const dst_;
  const Nanos min_delay_;
  uint64_t next_seq_ = 0;
  // Written only by the source domain during its window; drained only by the
  // coordinator at the barrier. Never touched concurrently.
  std::vector<Message> outbox_;
};

}  // namespace lsvd

#endif  // SRC_SIM_CROSS_DOMAIN_CHANNEL_H_
