#include "src/objstore/faulty_object_store.h"

#include <utility>

namespace lsvd {

FaultyObjectStore::FaultyObjectStore(ObjectStore* inner, Simulator* sim,
                                     FaultInjectionConfig config)
    : inner_(inner), sim_(sim), config_(config), rng_(config.seed) {}

Nanos FaultyObjectStore::Latency() {
  if (config_.added_latency_max <= config_.added_latency_min) {
    return config_.added_latency_min;
  }
  return static_cast<Nanos>(
      rng_.UniformRange(static_cast<uint64_t>(config_.added_latency_min),
                        static_cast<uint64_t>(config_.added_latency_max) + 1));
}

void FaultyObjectStore::Delayed(std::function<void()> fn) {
  sim_->After(Latency(), std::move(fn));
}

void FaultyObjectStore::Put(const std::string& name, Buffer data,
                            PutCallback done) {
  if (offline_ || rng_.Bernoulli(config_.put_error_p)) {
    stats_.put_errors++;
    Delayed([done = std::move(done)]() {
      done(Status::Unavailable("injected PUT failure"));
    });
    return;
  }
  if (data.size() > 1 && rng_.Bernoulli(config_.torn_put_p)) {
    // Kill mid-upload: a strict prefix of the object lands under the real
    // name, and the client sees only a transient error — it cannot tell a
    // torn PUT from one that never started.
    stats_.torn_puts++;
    const uint64_t cut = rng_.UniformRange(1, data.size());
    Buffer torn = data.Slice(0, cut);
    Delayed([this, name, torn = std::move(torn),
             done = std::move(done)]() mutable {
      inner_->Put(name, std::move(torn), [done = std::move(done)](Status) {
        done(Status::Unavailable("injected torn PUT"));
      });
    });
    return;
  }
  Delayed([this, name, data = std::move(data),
           done = std::move(done)]() mutable {
    inner_->Put(name, std::move(data), std::move(done));
  });
}

void FaultyObjectStore::GetRange(const std::string& name, uint64_t offset,
                                 uint64_t len, GetCallback done) {
  if (offline_ || rng_.Bernoulli(config_.get_error_p)) {
    stats_.get_errors++;
    Delayed([done = std::move(done)]() {
      done(Status::Unavailable("injected GET failure"));
    });
    return;
  }
  Delayed([this, name, offset, len, done = std::move(done)]() mutable {
    inner_->GetRange(name, offset, len, std::move(done));
  });
}

void FaultyObjectStore::Delete(const std::string& name, PutCallback done) {
  if (offline_ || rng_.Bernoulli(config_.delete_error_p)) {
    stats_.delete_errors++;
    Delayed([done = std::move(done)]() {
      done(Status::Unavailable("injected DELETE failure"));
    });
    return;
  }
  Delayed([this, name, done = std::move(done)]() mutable {
    inner_->Delete(name, std::move(done));
  });
}

std::vector<std::string> FaultyObjectStore::List(
    const std::string& prefix) const {
  return inner_->List(prefix);
}

Result<uint64_t> FaultyObjectStore::Head(const std::string& name) const {
  return inner_->Head(name);
}

}  // namespace lsvd
