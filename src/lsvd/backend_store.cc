#include "src/lsvd/backend_store.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace lsvd {
namespace {

// Cap on extents per object so the encoded header stays within the 256 KiB
// window recovery and the garbage collector read.
constexpr size_t kMaxObjectExtents = 6000;
// Window used when fetching an object's header.
constexpr uint64_t kHeaderReadWindow = 256 * kKiB;

}  // namespace

BackendStore::BackendStore(ClientHost* host, ObjectStore* store,
                           WriteCache* cache, const LsvdConfig& config,
                           MetricsRegistry* metrics, const std::string& prefix)
    : BackendStore(host, std::vector<ObjectStore*>{store}, cache, config,
                   metrics, prefix) {}

BackendStore::BackendStore(ClientHost* host, std::vector<ObjectStore*> stores,
                           WriteCache* cache, const LsvdConfig& config,
                           MetricsRegistry* metrics, const std::string& prefix)
    : host_(host), cache_(cache), config_(config),
      object_map_(config.map_resident_bytes),
      retry_rng_(config.retry.seed) {
  assert(!stores.empty());
  config_.backend_shards = static_cast<int>(stores.size());
  shards_.resize(stores.size());
  for (size_t i = 0; i < stores.size(); i++) {
    shards_[i].io = RetryContext{
        host_->sim(), stores[i], &config_.retry, &retry_rng_, alive_,
        config_.retry.op_timeout,
        [this, i] {
          c_retries_->Inc();
          if (shards_[i].c_retries != nullptr) {
            shards_[i].c_retries->Inc();
          }
        },
        [this] { c_timeouts_->Inc(); }};
  }
  next_seq_ = config_.base_last_seq + 1;
  applied_seq_ = config_.base_last_seq;
  last_checkpoint_seq_ = config_.base_last_seq;
  gc_policy_ = GcPolicy::Create(config_.gc_policy);

  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_client_bytes_ = metrics_->GetCounter(prefix + ".client_bytes");
  c_coalesced_bytes_ = metrics_->GetCounter(prefix + ".coalesced_bytes");
  c_objects_put_ = metrics_->GetCounter(prefix + ".objects_put");
  c_object_bytes_ = metrics_->GetCounter(prefix + ".object_bytes");
  c_payload_bytes_ = metrics_->GetCounter(prefix + ".payload_bytes");
  c_gc_objects_cleaned_ = metrics_->GetCounter(prefix + ".gc.objects_cleaned");
  c_gc_bytes_moved_ = metrics_->GetCounter(prefix + ".gc.bytes_moved");
  c_gc_cache_hits_ = metrics_->GetCounter(prefix + ".gc.cache_hits");
  c_objects_deleted_ = metrics_->GetCounter(prefix + ".objects_deleted");
  c_checkpoints_ = metrics_->GetCounter(prefix + ".checkpoints");
  c_deferred_deletes_ = metrics_->GetCounter(prefix + ".deferred_deletes");
  c_put_failures_ = metrics_->GetCounter(prefix + ".put_failures");
  c_retries_ = metrics_->GetCounter(prefix + ".retries");
  c_timeouts_ = metrics_->GetCounter(prefix + ".timeouts");
  c_gc_aborted_corrupt_ = metrics_->GetCounter(prefix + ".gc_aborted_corrupt");
  c_trim_extents_ = metrics_->GetCounter(prefix + ".trim_extents");
  c_trim_punched_bytes_ = metrics_->GetCounter(prefix + ".trim_punched_bytes");
  c_deadline_seals_ = metrics_->GetCounter(prefix + ".deadline_seals");
  c_gc_cold_objects_ = metrics_->GetCounter(prefix + ".gc.cold_objects");
  g_cost_benefit_score_ = metrics_->GetGauge(prefix + ".gc.cost_benefit_score");
  callback_guard_.Register(metrics_, prefix + ".degraded",
                           [this] { return degraded() ? 1.0 : 0.0; });
  callback_guard_.Register(metrics_, prefix + ".fenced",
                           [this] { return fenced_ ? 1.0 : 0.0; });
  h_open_to_seal_us_ = metrics_->GetHistogram(prefix + ".batch.open_to_seal_us");
  h_seal_to_commit_us_ =
      metrics_->GetHistogram(prefix + ".batch.seal_to_commit_us");
  callback_guard_.Register(metrics_, prefix + ".utilization",
                           [this] { return Utilization(); });
  callback_guard_.Register(metrics_, prefix + ".live_bytes", [this] {
    return static_cast<double>(live_bytes());
  });
  callback_guard_.Register(metrics_, prefix + ".total_bytes", [this] {
    return static_cast<double>(total_bytes());
  });
  callback_guard_.Register(metrics_, prefix + ".object_count", [this] {
    return static_cast<double>(object_count());
  });

  callback_guard_.Register(metrics_, prefix + ".gc_policy", [this] {
    return static_cast<double>(config_.gc_policy);
  });
  callback_guard_.Register(metrics_, prefix + ".gc.waf", [this] {
    const double client = static_cast<double>(c_client_bytes_->value());
    return client == 0.0
               ? 0.0
               : static_cast<double>(c_object_bytes_->value()) / client;
  });
  // Object-map paging (DESIGN.md §13).
  callback_guard_.Register(metrics_, prefix + ".map.resident_bytes", [this] {
    return static_cast<double>(object_map_.ResidentBytes());
  });
  callback_guard_.Register(metrics_, prefix + ".map.packed_bytes", [this] {
    return static_cast<double>(object_map_.PackedBytes());
  });
  callback_guard_.Register(metrics_, prefix + ".map.page_loads", [this] {
    return static_cast<double>(object_map_.page_loads());
  });
  callback_guard_.Register(metrics_, prefix + ".map.page_evictions", [this] {
    return static_cast<double>(object_map_.page_evictions());
  });

  // Per-shard counters and gauges exist only on sharded volumes; with one
  // shard they would repeat the aggregate rows above.
  if (shards_.size() > 1) {
    for (size_t i = 0; i < shards_.size(); i++) {
      const std::string sp = prefix + ".shard" + std::to_string(i);
      shards_[i].c_objects_put = metrics_->GetCounter(sp + ".objects_put");
      shards_[i].c_object_bytes = metrics_->GetCounter(sp + ".object_bytes");
      shards_[i].c_put_failures = metrics_->GetCounter(sp + ".put_failures");
      shards_[i].c_retries = metrics_->GetCounter(sp + ".retries");
      callback_guard_.Register(metrics_, sp + ".degraded", [this, i] {
        return shards_[i].degraded ? 1.0 : 0.0;
      });
      callback_guard_.Register(metrics_, sp + ".outstanding_puts", [this, i] {
        return static_cast<double>(shards_[i].outstanding);
      });
      callback_guard_.Register(metrics_, sp + ".utilization", [this, i] {
        return ShardUtilization(i);
      });
    }
  }

  put_slot_id_ =
      host_->put_scheduler()->Register([this, alive = alive_]() {
        if (*alive) {
          PumpPuts();
        }
      });
}

BackendStore::~BackendStore() {
  *alive_ = false;
  // A killed store's completions never fire, so its held PUT slots must be
  // returned here or the host window would leak capacity.
  host_->put_scheduler()->Unregister(put_slot_id_);
}

BackendStoreStats BackendStore::stats() const {
  BackendStoreStats s;
  s.client_bytes = c_client_bytes_->value();
  s.coalesced_bytes = c_coalesced_bytes_->value();
  s.objects_put = c_objects_put_->value();
  s.object_bytes = c_object_bytes_->value();
  s.payload_bytes = c_payload_bytes_->value();
  s.gc_objects_cleaned = c_gc_objects_cleaned_->value();
  s.gc_bytes_copied = c_gc_bytes_moved_->value();
  s.gc_cache_hits = c_gc_cache_hits_->value();
  s.objects_deleted = c_objects_deleted_->value();
  s.checkpoints = c_checkpoints_->value();
  s.deferred_deletes = c_deferred_deletes_->value();
  s.put_failures = c_put_failures_->value();
  s.retries = c_retries_->value();
  s.timeouts = c_timeouts_->value();
  s.gc_aborted_corrupt = c_gc_aborted_corrupt_->value();
  return s;
}

std::string BackendStore::NameForSeq(uint64_t seq) const {
  if (!config_.base_image.empty() && seq <= config_.base_last_seq) {
    return DataObjectName(config_.base_image, seq);
  }
  return DataObjectName(config_.volume_name, seq);
}

uint64_t BackendStore::OpenBatchSeq() {
  if (!batch_.has_value()) {
    batch_ = OpenBatch{};
    batch_->seq = next_seq_++;
    batch_->opened_at = host_->sim()->now();
    if (config_.batch_seal_deadline > 0) {
      ArmSealDeadline();
    }
  }
  return batch_->seq;
}

void BackendStore::ArmSealDeadline() {
  const uint64_t seq = batch_->seq;
  auto alive = alive_;
  host_->sim()->After(config_.batch_seal_deadline, [this, alive, seq] {
    if (!*alive) {
      return;
    }
    // The batch may have filled and sealed (and the slot reopened for a
    // younger batch) since the timer was armed; the sequence number
    // identifies the exact batch. Never seal a batch with no entries: an
    // empty object would advance the sync watermark past journal records
    // whose data the backend does not hold yet.
    if (!batch_.has_value() || batch_->seq != seq || batch_->entries.empty()) {
      return;
    }
    c_deadline_seals_->Inc();
    SealClientBatch();
  });
}

void BackendStore::SealClientBatch() {
  if (!batch_.has_value() || batch_->entries.empty()) {
    return;
  }
  OpenBatch b = std::move(*batch_);
  batch_.reset();
  SealBatch(std::move(b), /*from_gc=*/false, {});
}

uint64_t BackendStore::AddWrite(uint64_t vlba, Buffer data) {
  const uint64_t seq = OpenBatchSeq();
  c_client_bytes_->Inc(data.size());
  batch_->raw_bytes += data.size();
  batch_->entries.push_back(BatchEntry{vlba, std::move(data), std::nullopt});
  if (batch_->raw_bytes >= config_.batch_bytes ||
      batch_->entries.size() >= kMaxObjectExtents) {
    SealClientBatch();
    SealGcBatch();
  }
  return seq;
}

uint64_t BackendStore::AddTrim(uint64_t vlba, uint64_t len) {
  assert(len > 0);
  // Seal-first protocol (see header comment): every write accepted before
  // this trim must land in an object with a smaller sequence number, so an
  // open client batch holding write entries seals now. Writes always follow
  // trims within a batch, so a non-trim tail means the batch holds writes.
  if (batch_.has_value() && !batch_->entries.empty() &&
      !batch_->entries.back().is_trim) {
    SealClientBatch();
  }
  // The open GC batch needs no seal: its extents apply conditionally, so a
  // copy of data this trim punches finds no matching map entry and is
  // skipped no matter when its object commits.
  c_trim_extents_->Inc();
  const uint64_t seq = OpenBatchSeq();
  BatchEntry e;
  e.vlba = vlba;
  e.is_trim = true;
  e.trim_len = len;
  batch_->entries.push_back(std::move(e));
  if (batch_->entries.size() >= kMaxObjectExtents) {
    SealClientBatch();
  }
  return seq;
}

void BackendStore::Seal() {
  SealClientBatch();
  SealGcBatch();
}

// The GC batch receives its sequence number only here, at seal time: an open
// GC batch must never reserve a sequence number, or every later-sealed
// object would wait for it in the in-order map apply. Late sequencing is
// safe because GC extents apply conditionally.
void BackendStore::SealGcBatch() {
  if (gc_running_) {
    return;
  }
  SealGcBatchNow();
}

void BackendStore::SealGcBatchNow() {
  if (!gc_batch_.has_value() || gc_batch_->entries.empty()) {
    return;
  }
  OpenBatch b = std::move(*gc_batch_);
  gc_batch_.reset();
  b.seq = next_seq_++;
  b.generation = gc_batch_generation_;
  gc_batch_generation_ = 0;
  std::vector<uint64_t> cleaned = std::move(gc_batch_cleaned_);
  gc_batch_cleaned_.clear();
  SealBatch(std::move(b), /*from_gc=*/true, std::move(cleaned));
}

void BackendStore::SealIfAged(Nanos max_age) {
  const Nanos now = host_->sim()->now();
  if (batch_.has_value() && now - batch_->opened_at >= max_age) {
    SealClientBatch();
  }
  if (gc_batch_.has_value() && !gc_batch_->entries.empty() &&
      now - gc_batch_->opened_at >= max_age) {
    SealGcBatch();
  }
}

void BackendStore::SealBatch(OpenBatch batch, bool from_gc,
                             std::vector<uint64_t> cleaned_seqs) {
  SealedObject sealed;
  sealed.seq = batch.seq;
  sealed.from_gc = from_gc;
  sealed.cleaned_seqs = std::move(cleaned_seqs);
  sealed.header.seq = batch.seq;
  sealed.header.generation = batch.generation;
  sealed.sealed_at = host_->sim()->now();
  if (from_gc) {
    c_gc_cold_objects_->Inc();
  }
  if (batch.opened_at >= 0) {
    RecordLatencyUs(h_open_to_seal_us_, sealed.sealed_at - batch.opened_at);
  }

  Buffer payload;
  if (config_.coalesce_within_batch) {
    // Within-batch overwrite merging (§3.1): replay entries in arrival order
    // into a scratch extent map keyed by entry index; only surviving ranges
    // make it into the object. Cross-batch coalescing would break the
    // ordering guarantee, so it never happens.
    ExtentMap<ObjTarget> scratch;
    ExtentMap<ObjTarget>::ExtentVec displaced;
    for (size_t i = 0; i < batch.entries.size(); i++) {
      const auto& e = batch.entries[i];
      const uint64_t elen = e.is_trim ? e.trim_len : e.data.size();
      scratch.Update(e.vlba, elen, ObjTarget{i, 0}, &displaced);
      for (const auto& d : displaced) {
        // A write landing over an earlier same-batch trim shrinks the trim
        // extent; only displaced write bytes count as coalesced payload.
        if (!batch.entries[d.target.seq].is_trim) {
          c_coalesced_bytes_->Inc(d.len);
        }
      }
    }
    for (const auto& ext : scratch.Extents()) {
      const BatchEntry& src = batch.entries[ext.target.seq];
      ObjectExtent oe;
      oe.vlba = ext.start;
      oe.len = ext.len;
      if (src.is_trim) {
        oe.is_trim = true;
      } else if (src.expected.has_value()) {
        const ObjTarget adj = src.expected->Advanced(ext.start - src.vlba);
        oe.expected_seq = adj.seq;
        oe.expected_offset = adj.offset;
      }
      sealed.header.extents.push_back(oe);
      // ext.target.offset is the offset within the source entry where this
      // surviving range begins. Trim extents carry no payload.
      if (!src.is_trim) {
        payload.Append(src.data.Slice(ext.target.offset, ext.len));
      }
    }
  } else {
    for (const auto& e : batch.entries) {
      ObjectExtent oe;
      oe.vlba = e.vlba;
      oe.len = e.is_trim ? e.trim_len : e.data.size();
      if (e.is_trim) {
        oe.is_trim = true;
      } else if (e.expected.has_value()) {
        oe.expected_seq = e.expected->seq;
        oe.expected_offset = e.expected->offset;
      }
      sealed.header.extents.push_back(oe);
      if (!e.is_trim) {
        payload.Append(e.data);
      }
    }
  }

  sealed.payload_bytes = payload.size();
  sealed.header.data_offset =
      DataObjectHeaderSize(sealed.header.extents.size());
  sealed.object = EncodeDataObject(sealed.header, payload);
  put_queue_.push_back(std::move(sealed));
  PumpPuts();
}

bool BackendStore::degraded() const {
  for (const Shard& shard : shards_) {
    if (shard.degraded) {
      return true;
    }
  }
  return false;
}

void BackendStore::PutWithRetry(size_t shard, std::string name, Buffer object,
                                std::function<void(Status)> done) {
  RetryPut(shards_[shard].io, std::move(name), std::move(object),
           [this, done = std::move(done)](Status s) {
             // A fenced PUT can never succeed: another host owns the volume
             // now. ParkFailedPut keeps the sealed object but skips probing.
             if (s.code() == StatusCode::kFenced) {
               fenced_ = true;
             }
             done(std::move(s));
           });
}

void BackendStore::PumpPuts() {
  // Walk the queue in seal order, skipping entries whose shard is degraded
  // or has a full per-shard PUT window — a blocked shard must not head-of-
  // line-block the others' stripes. Beyond the per-shard window, each
  // outstanding PUT needs a host-wide slot; when denied, the scheduler
  // re-pumps us once a slot frees.
  size_t i = 0;
  while (i < put_queue_.size()) {
    const size_t shard_index = ShardOf(put_queue_[i].seq);
    Shard& shard = shards_[shard_index];
    if (shard.degraded || shard.outstanding >= config_.put_window) {
      ++i;
      continue;
    }
    if (!host_->put_scheduler()->TryAcquire(put_slot_id_)) {
      return;
    }
    SealedObject sealed = std::move(put_queue_[i]);
    put_queue_.erase(put_queue_.begin() + static_cast<ptrdiff_t>(i));
    outstanding_puts_++;
    shard.outstanding++;
    const uint64_t seq = sealed.seq;
    const uint64_t payload = sealed.payload_bytes;
    Buffer object = sealed.object;
    in_flight_[seq] = std::move(sealed);

    auto alive = alive_;
    auto do_put = [this, alive, seq, shard_index,
                   object = std::move(object)]() mutable {
      if (!*alive) {
        return;
      }
      host_->user_cpu()->Submit(config_.costs.batch_golang,
                                [this, alive, seq, shard_index,
                                 object = std::move(object)]() mutable {
        if (!*alive) {
          return;
        }
        c_objects_put_->Inc();
        c_object_bytes_->Inc(object.size());
        if (shards_[shard_index].c_objects_put != nullptr) {
          shards_[shard_index].c_objects_put->Inc();
          shards_[shard_index].c_object_bytes->Inc(object.size());
        }
        PutWithRetry(
            shard_index, NameForSeq(seq), std::move(object),
            [this, seq](Status s) { OnPutComplete(seq, std::move(s)); });
      });
    };

    auto after_barrier = [this, alive, payload,
                          do_put = std::move(do_put)]() mutable {
      if (!*alive) {
        return;
      }
      if (config_.pass_through_ssd && cache_ != nullptr) {
        // Prototype overhead (§4.7): userspace re-reads the outgoing data
        // from the cache SSD before uploading.
        cache_->ChargeReadback(payload, std::move(do_put));
      } else {
        host_->sim()->After(0, std::move(do_put));
      }
    };
    if (cache_ != nullptr) {
      // Order the object write after cache durability: if this PUT commits,
      // every journal record feeding it survives a power failure, so the
      // backend can never get ahead of the recovered cache log (keeps the
      // §3.3 rewind-and-replay invariant).
      cache_->Barrier([after_barrier = std::move(after_barrier)](Status) mutable {
        after_barrier();
      });
    } else {
      after_barrier();
    }
  }
}

// A failed PUT must not lose its batch: write-cache records are only
// released after the containing object commits, so parking the sealed object
// and stopping that shard's pump preserves every write. The shard enters the
// degraded state; other shards keep streaming, and the client keeps
// acknowledging writes until the cache log fills.
void BackendStore::ParkFailedPut(uint64_t seq) {
  auto it = in_flight_.find(seq);
  assert(it != in_flight_.end());
  c_put_failures_->Inc();
  const size_t shard_index = ShardOf(seq);
  Shard& shard = shards_[shard_index];
  if (shard.c_put_failures != nullptr) {
    shard.c_put_failures->Inc();
  }
  SealedObject sealed = std::move(it->second);
  in_flight_.erase(it);
  // Re-queue in sequence order so a later recovery pump re-PUTs objects in
  // the same order they were sealed.
  auto pos = put_queue_.begin();
  while (pos != put_queue_.end() && pos->seq < sealed.seq) {
    ++pos;
  }
  put_queue_.insert(pos, std::move(sealed));
  if (!shard.degraded) {
    shard.degraded = true;
    // A fenced store never probes: no retry can outrun an epoch flip, and a
    // terminal park is what lets a stale host's simulation quiesce.
    if (!fenced_) {
      ScheduleDegradedProbe(shard_index);
    }
  }
}

// The degraded state is left by probing, not by waiting for client traffic:
// every probe interval the shard's pump is unblocked once, which re-PUTs its
// parked objects in sequence order. If the shard is still down the first PUT
// exhausts its budget, re-parks, and re-arms the probe.
void BackendStore::ScheduleDegradedProbe(size_t shard) {
  auto alive = alive_;
  host_->sim()->After(config_.retry.degraded_probe_interval,
                      [this, alive, shard]() {
    if (!*alive || !shards_[shard].degraded) {
      return;
    }
    shards_[shard].degraded = false;
    PumpPuts();
  });
}

void BackendStore::OnPutComplete(uint64_t seq, Status s) {
  outstanding_puts_--;
  shards_[ShardOf(seq)].outstanding--;
  host_->put_scheduler()->Release(put_slot_id_);
  if (!s.ok()) {
    ParkFailedPut(seq);
    return;
  }
  auto it = in_flight_.find(seq);
  assert(it != in_flight_.end());
  c_payload_bytes_->Inc(it->second.payload_bytes);
  completed_.insert({seq, std::move(it->second)});
  in_flight_.erase(it);
  ApplyReady();
  PumpPuts();
}

void BackendStore::ApplyReady() {
  bool advanced = false;
  while (true) {
    auto it = completed_.find(applied_seq_ + 1);
    if (it == completed_.end()) {
      break;
    }
    SealedObject sealed = std::move(it->second);
    completed_.erase(it);
    ApplyObjectExtents(sealed.seq, sealed.header, sealed.payload_bytes);
    if (sealed.sealed_at >= 0) {
      RecordLatencyUs(h_seal_to_commit_us_,
                      host_->sim()->now() - sealed.sealed_at);
    }
    applied_seq_ = sealed.seq;
    objects_since_checkpoint_++;
    advanced = true;
    for (const uint64_t victim : sealed.cleaned_seqs) {
      ProcessDelete(victim);
    }
  }
  if (advanced) {
    if (on_synced) {
      on_synced(applied_seq_);
    }
    MaybeCheckpoint();
    MaybeGc();
  }
}

void BackendStore::ApplyObjectExtents(uint64_t seq,
                                      const DataObjectHeader& header,
                                      uint64_t payload_bytes) {
  uint64_t offset = header.data_offset;
  uint64_t live = 0;
  ExtentMap<ObjTarget>::ExtentVec displaced;
  ExtentMap<ObjTarget>::SegmentVec segs;
  for (const auto& ext : header.extents) {
    if (ext.is_trim) {
      // TRIM tombstone: punch the map and feed whatever it displaced to GC
      // accounting. Contributes no payload (offset stays) and no live bytes.
      object_map_.Remove(ext.vlba, ext.len, &displaced);
      AccountDisplaced(displaced);
      for (const auto& d : displaced) {
        c_trim_punched_bytes_->Inc(d.len);
      }
      continue;
    }
    const ObjTarget target{seq, offset};
    if (!ext.conditional()) {
      object_map_.Update(ext.vlba, ext.len, target, &displaced);
      AccountDisplaced(displaced);
      live += ext.len;
    } else {
      // GC data: apply only where the map still points at the source.
      const ObjTarget expected{ext.expected_seq, ext.expected_offset};
      object_map_.Lookup(ext.vlba, ext.len, &segs);
      for (const auto& seg : segs) {
        if (!seg.target.has_value()) {
          continue;
        }
        const ObjTarget want = expected.Advanced(seg.start - ext.vlba);
        if (*seg.target == want) {
          object_map_.Update(seg.start, seg.len,
                             target.Advanced(seg.start - ext.vlba),
                             &displaced);
          AccountDisplaced(displaced);
          live += seg.len;
        }
      }
    }
    offset += ext.len;
  }
  object_info_[seq] = ObjectInfo{payload_bytes, live};
  if (header.generation != 0) {
    object_generation_[seq] = header.generation;
  }
}

void BackendStore::AccountDisplaced(
    const ExtentMap<ObjTarget>::ExtentVec& displaced) {
  for (const auto& d : displaced) {
    auto it = object_info_.find(d.target.seq);
    if (it != object_info_.end()) {
      it->second.live_bytes -= std::min(it->second.live_bytes, d.len);
    }
  }
}

uint64_t BackendStore::live_bytes() const {
  uint64_t sum = 0;
  for (const auto& [seq, info] : object_info_) {
    sum += info.live_bytes;
  }
  return sum;
}

uint64_t BackendStore::total_bytes() const {
  uint64_t sum = 0;
  for (const auto& [seq, info] : object_info_) {
    sum += info.total_bytes;
  }
  return sum;
}

double BackendStore::Utilization() const {
  const uint64_t total = total_bytes();
  if (total == 0) {
    return 1.0;
  }
  return static_cast<double>(live_bytes()) / static_cast<double>(total);
}

double BackendStore::ShardUtilization(size_t shard) const {
  if (shards_.size() <= 1) {
    return Utilization();
  }
  uint64_t live = 0;
  uint64_t total = 0;
  for (const auto& [seq, info] : object_info_) {
    if (ShardOf(seq) != shard) {
      continue;
    }
    live += info.live_bytes;
    total += info.total_bytes;
  }
  if (total == 0) {
    return 1.0;
  }
  return static_cast<double>(live) / static_cast<double>(total);
}

std::optional<GcCandidate> BackendStore::gc_candidate_for(
    uint64_t seq) const {
  auto it = object_info_.find(seq);
  if (it == object_info_.end()) {
    return std::nullopt;
  }
  GcCandidate c;
  c.seq = seq;
  c.total_bytes = it->second.total_bytes;
  c.live_bytes = it->second.live_bytes;
  auto gen = object_generation_.find(seq);
  if (gen != object_generation_.end()) {
    c.generation = gen->second;
  }
  // Every candidate ages on the object-sequence clock (objects created
  // since this one was sealed): the clock is recovered exactly from the
  // checkpoint and the object listing, so victim ranking — not just the
  // generation-tagged part of it — is crash-stable, unlike the old
  // seal-time clock which restarted at age 0 after recovery.
  c.age = seq < next_seq_ ? static_cast<double>(next_seq_ - seq) : 0.0;
  return c;
}

std::optional<uint64_t> BackendStore::PickGcVictim(size_t shard) const {
  // Policy-scored victim selection (docs/GC.md): the volume's policy ranks
  // the shard's eligible objects and the best score wins (ties to the lowest seq, since
  // the ascending scan only replaces on a strictly greater score — with the
  // greedy policy this is exactly §3.5's least-utilized scan). Eligibility
  // is unchanged: older than the last checkpoint (so recovery never sees
  // holes above it), never from the clone base image, not already pending,
  // and not fully live.
  std::optional<uint64_t> best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const auto& [seq, info] : object_info_) {
    if (seq <= config_.base_last_seq || seq >= last_checkpoint_seq_ ||
        info.total_bytes == 0 || gc_pending_victims_.contains(seq) ||
        ShardOf(seq) != shard) {
      continue;
    }
    const GcCandidate c = *gc_candidate_for(seq);
    if (c.utilization() >= 1.0) {
      continue;  // fully live: nothing to reclaim
    }
    const double score = gc_policy_->Score(c);
    if (score > best_score) {
      best_score = score;
      best = seq;
    }
  }
  if (best.has_value()) {
    g_cost_benefit_score_->Set(best_score);
  }
  return best;
}

std::optional<uint64_t> BackendStore::PickShardedVictim(
    double watermark) const {
  // Per-shard thresholding (DESIGN.md §9): a shard is cleaned only when its
  // own slice of the stream drops below the watermark; shards are tried in
  // ascending-utilization order so the dirtiest is cleaned first.
  std::vector<std::pair<double, size_t>> order;
  order.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); s++) {
    order.push_back({ShardUtilization(s), s});
  }
  std::sort(order.begin(), order.end());
  for (const auto& [util, shard] : order) {
    if (util >= watermark) {
      break;
    }
    auto victim = PickGcVictim(shard);
    if (victim.has_value()) {
      return victim;
    }
  }
  return std::nullopt;
}

void BackendStore::MaybeGc() {
  if (!config_.gc_enabled || gc_running_) {
    return;
  }
  auto victim = PickShardedVictim(config_.gc_low_watermark);
  if (!victim.has_value()) {
    return;
  }
  gc_running_ = true;
  CleanOneObject(*victim);
}

void BackendStore::CleanOneObject(uint64_t victim) {
  gc_pending_victims_.insert(victim);
  const std::string name = NameForSeq(victim);
  auto size = StoreFor(victim)->Head(name);
  if (!size.ok()) {
    // Already gone (shouldn't happen); drop bookkeeping and move on.
    object_info_.erase(victim);
    object_generation_.erase(victim);
    FinishGcRound();
    return;
  }
  const uint64_t window = std::min(*size, kHeaderReadWindow);
  RetryGetRange(IoFor(victim), name, 0, window,
                    [this, alive = alive_, victim, name](Result<Buffer> r) {
    if (!r.ok() && r.status().code() == StatusCode::kUnavailable) {
      // Backend unreachable even after retries: abort the round without
      // touching the victim (its data is still live) and without re-picking
      // a victim, which would spin while the backend is down. The next
      // apply re-triggers GC.
      gc_pending_victims_.erase(victim);
      gc_running_ = false;
      return;
    }
    DataObjectHeader header;
    if (!r.ok() || !DecodeDataObjectHeader(*r, &header).ok()) {
      // Undecodable victim header (torn object, bit rot). Live map extents
      // may still point into the victim, so it is NOT fully dead: erasing it
      // from object_info_ would drop it from utilization accounting while
      // reads through those extents keep failing. Abort the round like the
      // unreachable-backend path — the victim keeps its accounting and will
      // be re-examined (or healed by a PUT retry) later.
      c_gc_aborted_corrupt_->Inc();
      gc_pending_victims_.erase(victim);
      gc_running_ = false;
      return;
    }

    // Identify still-live ranges: creation extents whose map entry still
    // points into this object.
    struct LivePiece {
      uint64_t vlba;
      uint64_t len;
      ObjTarget src;
    };
    std::vector<LivePiece> pieces;
    uint64_t offset = header.data_offset;
    ExtentMap<ObjTarget>::SegmentVec scan;
    for (const auto& ext : header.extents) {
      if (ext.is_trim) {
        // Tombstones hold no payload and never own map entries.
        continue;
      }
      const ObjTarget created{victim, offset};
      object_map_.Lookup(ext.vlba, ext.len, &scan);
      for (const auto& seg : scan) {
        if (!seg.target.has_value() || seg.target->seq != victim) {
          continue;
        }
        const ObjTarget want = created.Advanced(seg.start - ext.vlba);
        if (*seg.target == want) {
          pieces.push_back(LivePiece{seg.start, seg.len, want});
        }
      }
      offset += ext.len;
    }

    if (pieces.empty()) {
      // Nothing live: the object can be deleted (or deferred) right away.
      c_gc_objects_cleaned_->Inc();
      ProcessDelete(victim);
      FinishGcRound();
      return;
    }

    // Copy in address order, which fixes the GC output's byte order.
    std::sort(pieces.begin(), pieces.end(),
              [](const LivePiece& a, const LivePiece& b) {
                return a.vlba < b.vlba;
              });

    // Fetch each live piece — from the local write cache when it fully
    // covers the range (§3.5 optimization), otherwise a backend range read —
    // and append it to the GC batch.
    auto remaining = std::make_shared<size_t>(pieces.size());
    auto failed = std::make_shared<bool>(false);
    auto finish_piece = [this, alive, victim, remaining, failed](
                            const LivePiece& piece, Result<Buffer> data) {
      if (!*alive) {
        return;
      }
      if (data.ok()) {
        if (!gc_batch_.has_value()) {
          gc_batch_ = OpenBatch{};
          // seq assigned at seal time (see SealGcBatch).
          gc_batch_->opened_at = host_->sim()->now();
        }
        gc_batch_->raw_bytes += piece.len;
        gc_batch_->entries.push_back(
            BatchEntry{piece.vlba, std::move(data).value(), piece.src});
        c_gc_bytes_moved_->Inc(piece.len);
      } else {
        *failed = true;
      }
      if (--*remaining == 0) {
        if (*failed) {
          // Some live data could not be read even after retries. The victim
          // must survive: it keeps its map entries, so nothing is lost, and
          // it stays eligible once the backend recovers. Pieces that did
          // land in the GC batch are conditional copies — duplicating them
          // later is safe. End the round instead of re-picking, which would
          // spin against a down backend.
          gc_pending_victims_.erase(victim);
          gc_running_ = false;
          return;
        }
        c_gc_objects_cleaned_->Inc();
        gc_batch_cleaned_.push_back(victim);
        // GC output generation: one past the oldest generation it copies
        // (docs/GC.md). Recorded per batch so the object header persists it.
        auto g = object_generation_.find(victim);
        const uint32_t victim_gen =
            g == object_generation_.end() ? 0 : g->second;
        gc_batch_generation_ = std::max(gc_batch_generation_, victim_gen + 1);
        if (gc_batch_.has_value() &&
            gc_batch_->raw_bytes >= config_.batch_bytes) {
          SealGcBatchNow();
        }
        FinishGcRound();
      }
    };

    for (const auto& piece : pieces) {
      bool cache_covers = cache_ != nullptr;
      if (cache_covers) {
        ExtentMap<SsdTarget>::SegmentVec csegs;
        cache_->map().Lookup(piece.vlba, piece.len, &csegs);
        for (const auto& seg : csegs) {
          if (!seg.target.has_value()) {
            cache_covers = false;
            break;
          }
        }
      }
      if (cache_covers) {
        // Assemble from (possibly several) cache extents.
        c_gc_cache_hits_->Inc();
        auto segs = cache_->map().Lookup(piece.vlba, piece.len);
        auto parts = std::make_shared<std::vector<Buffer>>(segs.size());
        auto left = std::make_shared<size_t>(segs.size());
        for (size_t i = 0; i < segs.size(); i++) {
          cache_->ReadData(segs[i].target->plba, segs[i].len,
                           [alive, parts, left, i, piece,
                            finish_piece](Result<Buffer> r) {
            if (!*alive) {
              return;
            }
            if (r.ok()) {
              (*parts)[i] = std::move(r).value();
            }
            if (--*left == 0) {
              Buffer whole;
              for (auto& p : *parts) {
                whole.Append(p);
              }
              finish_piece(piece, whole.size() == piece.len
                                      ? Result<Buffer>(std::move(whole))
                                      : Result<Buffer>(Status::Unavailable(
                                            "cache read failed")));
            }
          });
        }
      } else {
        RetryGetRange(IoFor(victim), name, piece.src.offset, piece.len,
                      [piece, finish_piece](Result<Buffer> r) {
          finish_piece(piece, std::move(r));
        });
      }
    }
  });
}

void BackendStore::FinishGcRound() {
  if (config_.gc_enabled) {
    auto victim = PickShardedVictim(config_.gc_high_watermark);
    if (victim.has_value()) {
      CleanOneObject(*victim);
      return;
    }
  }
  // Round over. The open GC batch is left to fill up (sealed by size in
  // CleanOneObject, by age in SealIfAged, or by Seal) — sealing per round
  // would produce swarms of tiny objects that immediately become GC victims
  // themselves. It holds no sequence number while open, so it cannot stall
  // the in-order apply of later objects. Pure deletions (victims with no
  // live data) were already processed.
  gc_running_ = false;
}

void BackendStore::ProcessDelete(uint64_t seq) {
  gc_pending_victims_.erase(seq);
  // Snapshot deferral rule (§3.6): with Ngc = newest allocated object, the
  // pair (N0, Ngc) is deferred iff some snapshot s satisfies N0 <= s < Ngc.
  const uint64_t gc_head = next_seq_ - 1;
  bool deferred = false;
  for (const uint64_t s : snapshots_) {
    if (s >= seq && s < gc_head) {
      deferred = true;
      break;
    }
  }
  auto it = object_info_.find(seq);
  if (it != object_info_.end()) {
    object_info_.erase(it);
  }
  object_generation_.erase(seq);
  if (deferred) {
    deferred_deletes_.push_back(DeferredDelete{seq, gc_head});
    c_deferred_deletes_->Inc();
    return;
  }
  c_objects_deleted_->Inc();
  RetryDelete(IoFor(seq), NameForSeq(seq));
}

void BackendStore::ReexamineDeferred() {
  std::vector<DeferredDelete> still_deferred;
  for (const auto& d : deferred_deletes_) {
    bool pinned = false;
    for (const uint64_t s : snapshots_) {
      if (s >= d.seq && s < d.gc_head) {
        pinned = true;
        break;
      }
    }
    if (pinned) {
      still_deferred.push_back(d);
    } else {
      c_objects_deleted_->Inc();
      RetryDelete(IoFor(d.seq), NameForSeq(d.seq));
    }
  }
  deferred_deletes_ = std::move(still_deferred);
}

void BackendStore::CreateSnapshot(
    std::function<void(Result<uint64_t>)> done) {
  const uint64_t seq = applied_seq_;
  snapshots_.insert(seq);
  WriteCheckpoint([seq, done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    done(seq);
  });
}

void BackendStore::DeleteSnapshot(uint64_t seq,
                                  std::function<void(Status)> done) {
  if (snapshots_.erase(seq) == 0) {
    done(Status::NotFound("no such snapshot"));
    return;
  }
  ReexamineDeferred();
  WriteCheckpoint(std::move(done));
}

void BackendStore::MaybeCheckpoint() {
  if (objects_since_checkpoint_ >= config_.checkpoint_interval_objects &&
      !checkpoint_in_flight_) {
    WriteCheckpoint([](Status) {});
  }
}

void BackendStore::WriteCheckpoint(std::function<void(Status)> done) {
  checkpoint_waiters_.push_back(std::move(done));
  if (!checkpoint_in_flight_) {
    StartCheckpoint();
  }
}

void BackendStore::StartCheckpoint() {
  checkpoint_in_flight_ = true;
  CheckpointState state;
  state.through_seq = applied_seq_;
  state.next_seq = next_seq_;
  state.object_map = object_map_.Extents();
  state.object_info = object_info_;
  state.deferred_deletes = deferred_deletes_;
  state.snapshots.assign(snapshots_.begin(), snapshots_.end());
  // Consistency vector (DESIGN.md §9): the highest contiguous seq each
  // shard contributes to the applied prefix. Recorded so recovery can
  // cross-check every shard's stream against the checkpoint.
  state.shard_count = static_cast<uint32_t>(shards_.size());
  state.shard_consistent = ConsistencyVector(applied_seq_, shards_.size());
  // GC generations of surviving objects: objects at or below the checkpoint
  // are recovered from this state alone, so without the table a recovered
  // store would score old GC output as ordinary client data.
  for (const auto& [seq, gen] : object_generation_) {
    if (gen > 0 && object_info_.contains(seq)) {
      state.generations[seq] = gen;
    }
  }

  const uint64_t ckpt_id = ++checkpoint_counter_;
  const std::string name =
      CheckpointObjectName(config_.volume_name, ckpt_id);
  const uint64_t through = state.through_seq;
  // Checkpoints always go to shard 0, the volume's metadata home.
  PutWithRetry(0, name, EncodeCheckpoint(state),
               [this, alive = alive_, through,
                waiters = std::exchange(checkpoint_waiters_, {})](Status s) {
    checkpoint_in_flight_ = false;
    if (s.ok()) {
      last_checkpoint_seq_ = std::max(last_checkpoint_seq_, through);
      objects_since_checkpoint_ = 0;
      c_checkpoints_->Inc();
      // Trim-only objects (zero payload, zero live bytes) at or below the
      // checkpoint are no longer needed for replay: recovery starts past
      // them, so they can be deleted like cleaned GC victims. Only trims
      // produce such objects, so default volumes never take this path.
      std::vector<uint64_t> spent;
      for (const auto& [seq, info] : object_info_) {
        if (seq > config_.base_last_seq && seq <= through &&
            info.total_bytes == 0 && info.live_bytes == 0) {
          spent.push_back(seq);
        }
      }
      for (const uint64_t seq : spent) {
        ProcessDelete(seq);
      }
      // Keep only the two newest checkpoints.
      auto names = meta_store()->List(CheckpointPrefix(config_.volume_name));
      while (names.size() > 2) {
        RetryDelete(shards_[0].io, names.front());
        names.erase(names.begin());
      }
    }
    for (const auto& done : waiters) {
      done(s);
    }
    if (!*alive) {
      return;  // a waiter destroyed or killed the store
    }
    // Callers that arrived while this checkpoint was in flight may hold
    // state it does not list (a snapshot pin, a drained tail): they get a
    // fresh checkpoint.
    if (!checkpoint_waiters_.empty() && !checkpoint_in_flight_) {
      StartCheckpoint();
    }
  });
}

bool BackendStore::idle() const {
  const bool batch_open =
      (batch_.has_value() && !batch_->entries.empty()) ||
      (gc_batch_.has_value() && !gc_batch_->entries.empty());
  return !batch_open && put_queue_.empty() && in_flight_.empty() &&
         completed_.empty() && !gc_running_;
}

// Recovery is a chain of member-function stages threaded through a shared
// RecoverState. Continuation lambdas capture the state but no lambda ever
// captures a std::function holding itself, so nothing here can form a
// shared_ptr retain cycle (the pre-PR-5 implementation leaked exactly that
// way); once the final callback returns the state's refcount hits zero.
void BackendStore::Recover(std::function<void(Status)> done) {
  // Start from nothing; a loaded checkpoint overrides this. In particular a
  // fresh clone has no checkpoint yet and must replay the base image's
  // object stream from sequence 1.
  ResetRecoveredState();
  auto st = std::make_shared<RecoverState>();
  st->ckpts = meta_store()->List(CheckpointPrefix(config_.volume_name));
  st->done = std::move(done);
  RecoverTryCheckpoint(std::move(st), 0);
}

void BackendStore::ResetRecoveredState() {
  object_map_.Clear();
  object_info_.clear();
  object_generation_.clear();
  deferred_deletes_.clear();
  snapshots_.clear();
  applied_seq_ = 0;
  next_seq_ = 1;
  last_checkpoint_seq_ = 0;
}

// 1. Find the newest usable checkpoint (always on shard 0), walking
// backwards past undecodable or unusable ones.
void BackendStore::RecoverTryCheckpoint(std::shared_ptr<RecoverState> st,
                                        size_t back_index) {
  if (back_index >= st->ckpts.size()) {
    RecoverScanAndReplay(std::move(st));
    return;
  }
  const std::string name = st->ckpts[st->ckpts.size() - 1 - back_index];
  const auto size = meta_store()->Head(name);
  if (!size.ok()) {
    RecoverTryCheckpoint(std::move(st), back_index + 1);
    return;
  }
  RetryGetRange(shards_[0].io, name, 0, *size,
                    [this, st, name, back_index](Result<Buffer> r) {
    if (!r.ok() && r.status().code() == StatusCode::kUnavailable) {
      // Transient: falling back to an older checkpoint here could replay
      // across a GC hole; report the failure and let the caller re-open.
      st->done(r.status());
      return;
    }
    CheckpointState state;
    if (!r.ok() || !DecodeCheckpoint(*r, &state).ok()) {
      RecoverTryCheckpoint(st, back_index + 1);
      return;
    }
    // Snapshot mounting (§3.6): only checkpoints at or before the snapshot
    // point are usable; otherwise backtrack to an older one.
    if (config_.open_limit_seq != 0 &&
        state.through_seq > config_.open_limit_seq) {
      RecoverTryCheckpoint(st, back_index + 1);
      return;
    }
    // Sharding sanity (DESIGN.md §9): placement is derived from seq, so a
    // checkpoint written under a different stripe width cannot be applied.
    // (The decoder already checked the consistency vector against it.)
    if (state.shard_count != shards_.size()) {
      RecoverTryCheckpoint(st, back_index + 1);
      return;
    }
    object_map_.Clear();
    for (const auto& e : state.object_map) {
      object_map_.Update(e.start, e.len, e.target, nullptr);
    }
    object_info_ = state.object_info;
    object_generation_ = state.generations;
    deferred_deletes_ = state.deferred_deletes;
    snapshots_.clear();
    snapshots_.insert(state.snapshots.begin(), state.snapshots.end());
    applied_seq_ = state.through_seq;
    next_seq_ = state.next_seq;
    last_checkpoint_seq_ = state.through_seq;
    if (auto id = ParseCheckpointSeq(config_.volume_name, name)) {
      checkpoint_counter_ = std::max(checkpoint_counter_, *id);
    }
    st->ckpt_back_index = back_index;
    st->from_checkpoint = true;
    RecoverScanAndReplay(st);
  });
}

// 2. Per-shard tail scan: collect available data-object seqs (own stream +
// clone base) from every shard, keeping only seqs whose name was found on
// the shard the striping rule assigns them to.
void BackendStore::RecoverScanAndReplay(std::shared_ptr<RecoverState> st) {
  for (size_t shard = 0; shard < shards_.size(); shard++) {
    ObjectStore* store = shards_[shard].io.store;
    for (const auto& name : store->List(DataObjectPrefix(config_.volume_name))) {
      if (auto s = ParseDataObjectSeq(config_.volume_name, name)) {
        if (ShardOf(*s) == shard) {
          st->seqs.insert(*s);
        }
      }
    }
    if (!config_.base_image.empty()) {
      for (const auto& name :
           store->List(DataObjectPrefix(config_.base_image))) {
        if (auto s = ParseDataObjectSeq(config_.base_image, name)) {
          if (*s <= config_.base_last_seq && ShardOf(*s) == shard) {
            st->seqs.insert(*s);
          }
        }
      }
    }
  }
  RecoverReplayNext(std::move(st));
}

// 3. Replay the globally consecutive run after the checkpoint, in order,
// routing each read to its shard. A gap on ANY shard — including a shard
// that lost its tail — ends the global prefix, exactly as §3.5's single-log
// rule truncates one log at its first hole.
void BackendStore::RecoverReplayNext(std::shared_ptr<RecoverState> st) {
  const uint64_t want = applied_seq_ + 1;
  const bool past_limit =
      config_.open_limit_seq != 0 && want > config_.open_limit_seq;
  if (past_limit || !st->seqs.contains(want)) {
    RecoverFinish(std::move(st));
    return;
  }
  const std::string name = NameForSeq(want);
  auto size = StoreFor(want)->Head(name);
  if (!size.ok()) {
    st->done(size.status());
    return;
  }
  const uint64_t window = std::min(*size, kHeaderReadWindow);
  const uint64_t object_size = *size;
  RetryGetRange(IoFor(want), name, 0, window,
                    [this, st, want, object_size](Result<Buffer> r) {
    if (!r.ok() && r.status().code() == StatusCode::kUnavailable) {
      // Transient even after retries: stopping the prefix here would
      // silently truncate the volume, so surface the error instead.
      st->done(r.status());
      return;
    }
    DataObjectHeader header;
    const bool decoded = r.ok() && DecodeDataObjectHeader(*r, &header).ok();
    // Trim extents carry no payload, so the size cross-check counts only the
    // non-trim extent lengths.
    const uint64_t extent_sum = decoded ? DataObjectPayloadBytes(header) : 0;
    if (!decoded || object_size < header.data_offset ||
        extent_sum != object_size - header.data_offset) {
      // A torn or corrupt object ends the log: it was never applied, so
      // the write cache still holds every write it contained (records
      // are only released after commit) and rewind-and-replay re-sends
      // them (§3.3). Treat it like a gap — stop the prefix here.
      RecoverFinish(st);
      return;
    }
    ApplyObjectExtents(want, header, object_size - header.data_offset);
    applied_seq_ = want;
    RecoverReplayNext(st);
  });
}

// 4. End of the consecutive prefix: delete stranded own objects past it (on
// whichever shard they landed) and fix up counters. Snapshot mounts are
// read-only views and must not delete anything belonging to the live volume.
void BackendStore::RecoverFinish(std::shared_ptr<RecoverState> st) {
  if (shards_.size() > 1 && st->from_checkpoint) {
    // Post-replay shard-loss check (DESIGN.md §9): after a full replay the
    // object map may only reference objects the shards still hold — a GC
    // victim referenced by the checkpoint is always fully displaced by
    // replaying its GC copy, so a reference that is missing from its shard
    // means the shard lost part of its stream since the checkpoint. The
    // checkpoint lineage is then unusable: fall back to the next older
    // checkpoint, ultimately to a bare scan, which truncates the global
    // prefix at the gap (§3.5's single-log rule).
    std::set<uint64_t> referenced;
    for (const auto& e : object_map_.Extents()) {
      referenced.insert(e.target.seq);
    }
    for (const uint64_t seq : referenced) {
      if (!StoreFor(seq)->Head(NameForSeq(seq)).ok()) {
        const size_t next_back = st->ckpt_back_index + 1;
        ResetRecoveredState();
        st->seqs.clear();
        st->from_checkpoint = false;
        RecoverTryCheckpoint(std::move(st), next_back);
        return;
      }
    }
  }
  if (config_.open_limit_seq == 0) {
    for (const uint64_t s : st->seqs) {
      if (s > applied_seq_ && s > config_.base_last_seq) {
        RetryDelete(IoFor(s), NameForSeq(s));
      }
    }
  }
  next_seq_ = std::max(applied_seq_, config_.base_last_seq) + 1;
  st->done(Status::Ok());
}

void BackendStore::Fetch(ObjTarget target, uint64_t len,
                         std::function<void(Result<Buffer>)> done) {
  RetryGetRange(IoFor(target.seq), NameForSeq(target.seq),
                    target.offset, len, std::move(done));
}

}  // namespace lsvd
