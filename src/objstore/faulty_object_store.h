// Fault-injecting decorator over any ObjectStore.
//
// Wraps a real store and, driven by a seeded RNG, makes its data plane
// unreliable: transient errors (Unavailable) on PUT/GET/DELETE, added
// latency, torn PUTs (a kill mid-upload leaves a truncated object behind
// and the client never learns whether the PUT landed), and a switchable
// offline mode where every data-plane call fails until the store "comes
// back". List/Head are the control plane and always pass through — real
// deployments serve them from replicated metadata, and recovery depends on
// them being authoritative.
//
// All injected delays run on simulated time, so retry/backoff behaviour in
// the layers above is deterministic for a given seed.
#ifndef SRC_OBJSTORE_FAULTY_OBJECT_STORE_H_
#define SRC_OBJSTORE_FAULTY_OBJECT_STORE_H_

#include <string>
#include <vector>

#include "src/objstore/object_store.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace lsvd {

struct FaultInjectionConfig {
  uint64_t seed = 1;
  // Per-call probability of failing with Unavailable (after any latency).
  double put_error_p = 0.0;
  double get_error_p = 0.0;     // applies to Get and GetRange
  double delete_error_p = 0.0;
  // Per-call probability that a PUT is torn: a strict prefix of the data is
  // written under the target name and the caller gets Unavailable. Checked
  // only when the PUT was not already failed outright.
  double torn_put_p = 0.0;
  // Uniform extra latency in [min, max] added to every data-plane call.
  Nanos added_latency_min = 0;
  Nanos added_latency_max = 0;
};

struct FaultStats {
  uint64_t put_errors = 0;
  uint64_t get_errors = 0;
  uint64_t delete_errors = 0;
  uint64_t torn_puts = 0;
};

class FaultyObjectStore : public ObjectStore {
 public:
  FaultyObjectStore(ObjectStore* inner, Simulator* sim,
                    FaultInjectionConfig config);

  void Put(const std::string& name, Buffer data, PutCallback done) override;
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override;
  void Delete(const std::string& name, PutCallback done) override;
  std::vector<std::string> List(const std::string& prefix) const override;
  Result<uint64_t> Head(const std::string& name) const override;

  // Permanent-failure mode: while set, every data-plane call fails with
  // Unavailable (tears nothing); probabilities are not consulted.
  void set_offline(bool offline) { offline_ = offline; }
  bool offline() const { return offline_; }

  const FaultStats& fault_stats() const { return stats_; }

 private:
  Nanos Latency();
  // Runs `fn` after the injected latency for one call.
  void Delayed(std::function<void()> fn);

  ObjectStore* inner_;
  Simulator* sim_;
  FaultInjectionConfig config_;
  Rng rng_;
  bool offline_ = false;
  FaultStats stats_;
};

}  // namespace lsvd

#endif  // SRC_OBJSTORE_FAULTY_OBJECT_STORE_H_
