#include "src/lsvd/replicator.h"

#include <cassert>
#include <utility>

#include "src/lsvd/object_format.h"

namespace lsvd {

Replicator::Replicator(Simulator* sim, ObjectStore* primary,
                       ObjectStore* replica, ReplicatorConfig config,
                       MetricsRegistry* metrics, const std::string& prefix)
    : Replicator(sim, std::vector<ObjectStore*>{primary},
                 std::vector<ObjectStore*>{replica}, std::move(config),
                 metrics, prefix) {}

Replicator::Replicator(Simulator* sim, std::vector<ObjectStore*> primaries,
                       std::vector<ObjectStore*> replicas,
                       ReplicatorConfig config, MetricsRegistry* metrics,
                       const std::string& prefix)
    : sim_(sim), config_(std::move(config)), retry_rng_(config_.retry.seed) {
  assert(!primaries.empty() && primaries.size() == replicas.size());
  shards_.resize(primaries.size());
  for (size_t i = 0; i < primaries.size(); i++) {
    ShardStream& shard = shards_[i];
    shard.primary = primaries[i];
    shard.replica = replicas[i];
    shard.get = RetryContext{sim_, shard.primary, &config_.retry, &retry_rng_,
                             alive_, 0, [this] { c_retries_->Inc(); },
                             nullptr};
    shard.put = shard.get;
    shard.put.store = shard.replica;
  }
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_objects_copied_ = metrics_->GetCounter(prefix + ".objects_copied");
  c_bytes_copied_ = metrics_->GetCounter(prefix + ".bytes_copied");
  c_objects_skipped_deleted_ =
      metrics_->GetCounter(prefix + ".objects_skipped_deleted");
  c_retries_ = metrics_->GetCounter(prefix + ".retries");
  c_copy_failures_ = metrics_->GetCounter(prefix + ".copy_failures");
  h_copy_lag_us_ = metrics_->GetHistogram(prefix + ".copy_lag_us");
  callback_guard_.Register(metrics_, prefix + ".tracked_objects", [this] {
    size_t tracked = 0;
    for (const auto& shard : shards_) {
      tracked += shard.first_seen.size();
    }
    return static_cast<double>(tracked);
  });
}

ReplicatorStats Replicator::stats() const {
  ReplicatorStats s;
  s.objects_copied = c_objects_copied_->value();
  s.bytes_copied = c_bytes_copied_->value();
  s.objects_skipped_deleted = c_objects_skipped_deleted_->value();
  s.retries = c_retries_->value();
  s.copy_failures = c_copy_failures_->value();
  return s;
}

uint64_t Replicator::ConsistencyPoint() const {
  // Collect the data-object seqs present on each replica shard, counting a
  // seq only on its assigned shard (a misplaced copy would never be read by
  // sharded recovery, so it must not extend the prefix).
  std::set<uint64_t> have;
  for (size_t i = 0; i < shards_.size(); i++) {
    for (const auto& name :
         shards_[i].replica->List(DataObjectPrefix(config_.volume_name))) {
      if (auto seq = ParseDataObjectSeq(config_.volume_name, name)) {
        if (ShardForSeq(*seq, shards_.size()) == i) {
          have.insert(*seq);
        }
      }
    }
  }
  uint64_t point = 0;
  while (have.contains(point + 1)) {
    point++;
  }
  return point;
}

void Replicator::Start() {
  *alive_ = false;  // cancel a previous schedule, if any
  alive_ = std::make_shared<bool>(true);
  for (ShardStream& shard : shards_) {
    shard.get.alive = alive_;
    shard.put.alive = alive_;
  }
  ScheduleNext();
}

void Replicator::ScheduleNext() {
  auto alive = alive_;
  sim_->After(config_.poll_interval, [this, alive]() {
    if (!*alive) {
      return;
    }
    PollOnce([this, alive]() {
      if (!*alive) {
        return;
      }
      ScheduleNext();
    });
  });
}

void Replicator::PollOnce(std::function<void()> done) {
  const Nanos now = sim_->now();
  // Track first-seen times per shard stream; select objects that aged past
  // the threshold. (shard, name) pairs, since shards share one namespace.
  std::vector<std::pair<size_t, std::string>> to_copy;
  for (size_t i = 0; i < shards_.size(); i++) {
    ShardStream& shard = shards_[i];
    std::set<std::string> listed;
    for (const auto& name : shard.primary->List(config_.volume_name + ".")) {
      listed.insert(name);
      auto [it, inserted] = shard.first_seen.insert({name, now});
      if (shard.copied.contains(name)) {
        continue;
      }
      if (now - it->second >= config_.min_age) {
        to_copy.push_back({i, name});
      }
    }
    // Objects that disappeared before aging in were garbage collected (or
    // were checkpoints replaced by newer ones) and are never copied.
    for (auto it = shard.first_seen.begin(); it != shard.first_seen.end();) {
      if (!listed.contains(it->first)) {
        if (!shard.copied.contains(it->first)) {
          c_objects_skipped_deleted_->Inc();
        }
        it = shard.first_seen.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (to_copy.empty()) {
    sim_->After(0, std::move(done));
    return;
  }

  auto remaining = std::make_shared<size_t>(to_copy.size());
  auto alive = alive_;
  auto one_done = [alive, remaining, done = std::move(done)]() {
    if (--*remaining == 0 && *alive) {
      done();
    }
  };
  for (const auto& [shard, name] : to_copy) {
    shards_[shard].copied.insert(name);
    CopyObject(shard, name, one_done);
  }
}

void Replicator::CopyObject(size_t shard_index, const std::string& name,
                            std::function<void()> done) {
  ShardStream& shard = shards_[shard_index];
  // Out of budget: forget the object so a later poll starts over (leaving it
  // in copied would silently drop it from the replica forever).
  auto fail = [this, shard_index, name, done] {
    c_copy_failures_->Inc();
    shards_[shard_index].copied.erase(name);
    done();
  };
  RetryGet(shard.get, name,
           [this, &shard, name, fail, done](Result<Buffer> r) {
    if (r.status().code() == StatusCode::kNotFound) {
      // Garbage collection deleted the object before we aged it in.
      c_objects_skipped_deleted_->Inc();
      shard.copied.erase(name);
      shard.first_seen.erase(name);
      done();
      return;
    }
    if (!r.ok()) {
      fail();
      return;
    }
    const uint64_t size = r->size();
    const auto seen = shard.first_seen.find(name);
    const Nanos seen_at = seen != shard.first_seen.end() ? seen->second : 0;
    RetryPut(shard.put, name, std::move(r).value(),
             [this, size, seen_at, fail, done](Status s) {
      if (!s.ok()) {
        fail();
        return;
      }
      c_objects_copied_->Inc();
      c_bytes_copied_->Inc(size);
      RecordLatencyUs(h_copy_lag_us_, sim_->now() - seen_at);
      done();
    });
  });
}

}  // namespace lsvd
