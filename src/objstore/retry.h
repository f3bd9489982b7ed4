// One retry driver for every object-store request (DESIGN.md §7).
//
// The backend store and the replicator send their PUTs, GETs and DELETEs
// through these functions, so the rules live in one place. An attempt that
// fails with a retryable status is sent again after an exponential, capped,
// jittered backoff on simulated time, until the attempt budget runs out; any
// other status — kFenced above all — ends the request at once. With a
// timeout set, a PUT or GET attempt that has not answered in time fails with
// kUnavailable and its late answer is ignored. A retried PUT first `Head`s
// its name: a size match means an earlier attempt landed (success); a
// mismatch is a torn object, deleted before the PUT is sent again.
#ifndef SRC_OBJSTORE_RETRY_H_
#define SRC_OBJSTORE_RETRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/objstore/object_store.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace lsvd {

// Attempt budget and backoff: retry k (k >= 1) waits
// min(initial_backoff * 2^(k-1), max_backoff), scaled by a uniform factor in
// [1 - jitter, 1 + jitter].
struct RetryPolicy {
  int max_attempts = 5;
  Nanos initial_backoff = 10 * kMillisecond;
  Nanos max_backoff = 2 * kSecond;
  double jitter = 0.25;
  uint64_t seed = 0xBACC0FF;  // seed of the owner's jitter Rng
};

// What a retried request runs on: the store it goes to and how its owner
// retries. A request refers to the context rather than copying it: the
// owner keeps the context itself, `policy` and `rng` alive while `*alive`
// is true; once it is false nothing more runs and `done` is never called.
struct RetryContext {
  Simulator* sim = nullptr;
  ObjectStore* store = nullptr;
  const RetryPolicy* policy = nullptr;
  Rng* rng = nullptr;
  std::shared_ptr<bool> alive;
  Nanos timeout = 0;                 // per PUT/GET attempt; 0 = none
  std::function<void()> on_retry;    // each attempt after the first
  std::function<void()> on_timeout;  // each attempt abandoned by `timeout`
};

void RetryPut(const RetryContext& ctx, std::string name, Buffer data,
              std::function<void(Status)> done);
void RetryGet(const RetryContext& ctx, std::string name,
              std::function<void(Result<Buffer>)> done);
void RetryGetRange(const RetryContext& ctx, std::string name, uint64_t offset,
                   uint64_t len, std::function<void(Result<Buffer>)> done);
// `done` may be empty: a DELETE whose outcome nobody waits for.
void RetryDelete(const RetryContext& ctx, std::string name,
                 std::function<void(Status)> done = nullptr);

}  // namespace lsvd

#endif  // SRC_OBJSTORE_RETRY_H_
