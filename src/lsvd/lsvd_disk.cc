#include "src/lsvd/lsvd_disk.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace lsvd {
namespace {

// Read-cache line size, and the temporal-locality prefetch window of a
// backend read (§3.2).
constexpr uint64_t kReadCacheLine = 64 * kKiB;
constexpr uint64_t kPrefetchBytes = 256 * kKiB;

bool Aligned(uint64_t v) { return v % kBlockSize == 0; }

}  // namespace

LsvdDisk::LsvdDisk(ClientHost* host, ObjectStore* store, LsvdConfig config,
                   MetricsRegistry* metrics)
    : LsvdDisk(host, std::vector<ObjectStore*>{store}, std::move(config),
               metrics) {}

LsvdDisk::LsvdDisk(ClientHost* host, ObjectStore* store, LsvdConfig config,
                   DiskRegions regions, MetricsRegistry* metrics)
    : LsvdDisk(host, std::vector<ObjectStore*>{store}, std::move(config),
               regions, metrics) {}

LsvdDisk::LsvdDisk(ClientHost* host, std::vector<ObjectStore*> stores,
                   LsvdConfig config, MetricsRegistry* metrics)
    : host_(host), stores_(std::move(stores)), config_(std::move(config)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  auto wc_region = host_->AllocRegion(config_.write_cache_size,
                                      config_.volume_name + ".write_cache");
  auto rc_region = host_->AllocRegion(config_.read_cache_size,
                                      config_.volume_name + ".read_cache");
  assert(wc_region.ok() && rc_region.ok() && "SSD too small for caches");
  wc_base_ = *wc_region;
  rc_base_ = *rc_region;
  InitComponents();
}

LsvdDisk::LsvdDisk(ClientHost* host, std::vector<ObjectStore*> stores,
                   LsvdConfig config, DiskRegions regions,
                   MetricsRegistry* metrics)
    : host_(host), stores_(std::move(stores)), config_(std::move(config)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  wc_base_ = regions.write_cache_base;
  rc_base_ = regions.read_cache_base;
  InitComponents();
}

void LsvdDisk::InitComponents() {
  const std::string& p = config_.metrics_prefix;
  write_cache_ = std::make_unique<WriteCache>(
      host_, wc_base_, config_.write_cache_size, config_.costs, metrics_,
      p + ".write_cache", config_.volume_size);
  write_cache_->SetAdaptiveBatching(config_.batch_seal_deadline);
  read_cache_ = std::make_unique<ReadCache>(
      host_, rc_base_, config_.read_cache_size, kReadCacheLine, metrics_,
      p + ".read_cache");
  backend_ = std::make_unique<BackendStore>(host_, stores_, write_cache_.get(),
                                            config_, metrics_,
                                            config_.backend_metrics_prefix);
  backend_->on_synced = [this](uint64_t seq) {
    write_cache_->ReleaseThrough(seq);
  };

  c_writes_ = metrics_->GetCounter(p + ".writes");
  c_write_bytes_ = metrics_->GetCounter(p + ".write_bytes");
  c_reads_ = metrics_->GetCounter(p + ".reads");
  c_read_bytes_ = metrics_->GetCounter(p + ".read_bytes");
  c_flushes_ = metrics_->GetCounter(p + ".flushes");
  c_trims_ = metrics_->GetCounter(p + ".trims");
  c_trim_bytes_ = metrics_->GetCounter(p + ".trim_bytes");
  c_write_cache_hits_ = metrics_->GetCounter(p + ".read.write_cache_hits");
  c_read_cache_hits_ = metrics_->GetCounter(p + ".read.read_cache_hits");
  c_backend_reads_ = metrics_->GetCounter(p + ".read.backend_reads");
  c_zero_reads_ = metrics_->GetCounter(p + ".read.zero_reads");
  h_write_ack_us_ = metrics_->GetHistogram(p + ".write.ack_us");
  h_read_e2e_us_ = metrics_->GetHistogram(p + ".read.e2e_us");
  h_read_write_cache_us_ = metrics_->GetHistogram(p + ".read.write_cache_us");
  h_read_read_cache_us_ = metrics_->GetHistogram(p + ".read.read_cache_us");
  h_read_backend_us_ = metrics_->GetHistogram(p + ".read.backend_us");
  h_read_zero_us_ = metrics_->GetHistogram(p + ".read.zero_us");

  if (!config_.qos.unlimited()) {
    qos_id_ = host_->qos()->RegisterVolume(config_.volume_name, config_.qos,
                                           metrics_, p);
  }
  attach_id_ = host_->AttachVolume(
      config_.volume_name,
      ClientHost::VolumeCounters{c_writes_, c_write_bytes_, c_reads_,
                                 c_read_bytes_});
}

LsvdDiskStats LsvdDisk::stats() const {
  LsvdDiskStats s;
  s.writes = c_writes_->value();
  s.write_bytes = c_write_bytes_->value();
  s.reads = c_reads_->value();
  s.read_bytes = c_read_bytes_->value();
  s.flushes = c_flushes_->value();
  s.write_cache_hits = c_write_cache_hits_->value();
  s.read_cache_hits = c_read_cache_hits_->value();
  s.backend_reads = c_backend_reads_->value();
  s.zero_reads = c_zero_reads_->value();
  s.trims = c_trims_->value();
  s.trim_bytes = c_trim_bytes_->value();
  return s;
}

LsvdDisk::~LsvdDisk() {
  Kill();
  host_->DetachVolume(attach_id_);
  if (qos_id_ >= 0) {
    host_->qos()->UnregisterVolume(qos_id_);
  }
}

void LsvdDisk::Kill() {
  *alive_ = false;
  write_cache_->Kill();
  read_cache_->Kill();
  backend_->Kill();
}

void LsvdDisk::Create(std::function<void(Status)> done) {
  auto alive = alive_;
  write_cache_->Format([this, alive, done = std::move(done)](Status s) {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    // For clones this replays the base image's object stream into the map;
    // for a fresh volume it is a no-op. Either way an initial checkpoint is
    // written so later recoveries have an anchor.
    backend_->Recover([this, alive, done = std::move(done)](Status s2) {
      if (!*alive) {
        return;
      }
      if (!s2.ok()) {
        done(s2);
        return;
      }
      backend_->WriteCheckpoint(std::move(done));
    });
  });
}

void LsvdDisk::OpenAfterCrash(std::function<void(Status)> done) {
  auto alive = alive_;
  write_cache_->Recover([this, alive, done = std::move(done)](Status s) {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    backend_->Recover([this, alive, done = std::move(done)](Status s2) {
      if (!*alive) {
        return;
      }
      if (!s2.ok()) {
        done(s2);
        return;
      }
      ReplayCacheTail(std::move(done));
    });
  });
}

void LsvdDisk::OpenClean(std::function<void(Status)> done) {
  auto alive = alive_;
  OpenAfterCrash([this, alive, done = std::move(done)](Status s) {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    // Restoring the read-cache map is best-effort: a corrupt or missing map
    // just means a cold read cache.
    read_cache_->LoadMap([done = std::move(done)](Status) {
      done(Status::Ok());
    });
  });
}

void LsvdDisk::OpenCacheLost(std::function<void(Status)> done) {
  auto alive = alive_;
  write_cache_->Format([this, alive, done = std::move(done)](Status s) {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    backend_->Recover(std::move(done));
  });
}

// Rewind-and-replay (§3.3): every journal record whose backend batch did not
// commit is re-sent to the backend, in log order, under fresh sequence
// numbers. Committed-and-cached writes that get resent are harmless
// duplicates — replay preserves order, so the final image is identical.
void LsvdDisk::ReplayCacheTail(std::function<void(Status)> done) {
  write_cache_->ReleaseThrough(backend_->applied_seq());
  auto records = std::make_shared<std::vector<WriteCache::RecordMeta>>(
      write_cache_->RecordsAfterBatch(backend_->applied_seq()));
  auto index = std::make_shared<size_t>(0);
  auto alive = alive_;
  // The loop body holds only a weak reference to itself; each async hop's
  // callback re-locks it, so the last strong reference (the callback of the
  // final payload read, or the eviction callback below) dies when the loop
  // ends instead of leaking in a shared_ptr cycle.
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_step = step;
  *step = [this, alive, records, index, weak_step, done]() {
    if (!*alive) {
      return;
    }
    if (*index >= records->size()) {
      backend_->Seal();
      done(Status::Ok());
      return;
    }
    const WriteCache::RecordMeta& rec = (*records)[*index];
    if (rec.is_trim) {
      // Tombstone records carry no payload: re-punch the backend directly,
      // preserving log order relative to the surrounding write records.
      for (const auto& e : rec.extents) {
        backend_->AddTrim(e.vlba, e.len);
      }
      (*index)++;
      host_->sim()->After(0, [step = weak_step.lock()]() { (*step)(); });
      return;
    }
    write_cache_->ReadRecordPayload(rec,
                                    [this, alive, records, index,
                                     step = weak_step.lock(),
                                     done](Result<Buffer> r) {
      if (!*alive) {
        return;
      }
      if (!r.ok()) {
        done(r.status());
        return;
      }
      const WriteCache::RecordMeta& cur = (*records)[*index];
      uint64_t off = 0;
      for (const auto& e : cur.extents) {
        backend_->AddWrite(e.vlba, r->Slice(off, e.len));
        off += e.len;
      }
      (*index)++;
      (*step)();
    });
  };
  // A power failure can drop journal records whose batches the backend had
  // already committed. A surviving *older* record for the same blocks would
  // then shadow the newer backend data through the cache map, so evict
  // everything the backend already owns before serving reads. Eviction
  // keeps every record the loop resends.
  write_cache_->EvictReleasable([step, done](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    (*step)();
  });
}

void LsvdDisk::ArmBatchTimer() {
  if (batch_timer_armed_) {
    return;
  }
  batch_timer_armed_ = true;
  auto alive = alive_;
  host_->sim()->After(config_.batch_max_age, [this, alive]() {
    if (!*alive) {
      return;
    }
    batch_timer_armed_ = false;
    backend_->SealIfAged(config_.batch_max_age);
    // Re-arm if a batch is still (or newly) open.
    if (!backend_->idle()) {
      ArmBatchTimer();
    }
  });
}

void LsvdDisk::Write(uint64_t offset, Buffer data,
                     std::function<void(Status)> done) {
  if (!Aligned(offset) || !Aligned(data.size()) || data.empty()) {
    done(Status::InvalidArgument("unaligned or empty write"));
    return;
  }
  if (offset + data.size() > config_.volume_size) {
    done(Status::OutOfRange("write beyond volume size"));
    return;
  }
  c_writes_->Inc();
  c_write_bytes_->Inc(data.size());
  // The ack clock starts before admission: tokens a throttled tenant waits
  // for are part of its observed write latency.
  const Nanos submitted = host_->sim()->now();
  if (qos_id_ < 0) {
    WriteAdmitted(offset, std::move(data), submitted, std::move(done));
    return;
  }
  const uint64_t bytes = data.size();
  auto alive = alive_;
  host_->qos()->Admit(qos_id_, bytes,
                      [this, alive, offset, data = std::move(data), submitted,
                       done = std::move(done)]() mutable {
    if (!*alive) {
      return;
    }
    WriteAdmitted(offset, std::move(data), submitted, std::move(done));
  });
}

void LsvdDisk::WriteAdmitted(uint64_t offset, Buffer data, Nanos submitted,
                             std::function<void(Status)> done) {
  // A copy of the write goes to the block store's open batch (§3.2 step c);
  // the batch seq is journaled for crash replay.
  const uint64_t batch_seq = backend_->AddWrite(offset, data);
  ArmBatchTimer();
  const uint64_t len = data.size();
  Journal(Journaled{offset, len, std::move(data), batch_seq, submitted,
                    /*is_trim=*/false, std::move(done)});
}

void LsvdDisk::Journal(Journaled op) {
  const uint32_t slot = journaled_.Put(std::move(op));
  auto alive = alive_;
  host_->kernel_cpu()->Submit(
      config_.costs.write_submit + config_.costs.write_map_update,
      [this, alive, slot] {
    if (!*alive) {
      return;
    }
    Journaled& held = journaled_[slot];
    const auto ack = [this, slot](Status s) { Acked(slot, s); };
    if (held.is_trim) {
      write_cache_->AppendTrim(held.offset, held.len, held.batch_seq, ack);
    } else {
      write_cache_->Append(held.offset, std::move(held.data), held.batch_seq,
                           ack);
    }
  });
}

void LsvdDisk::Acked(uint32_t slot, Status s) {
  Journaled op = journaled_.Take(slot);
  // Ack latency: submission to journal-record-durable.
  RecordLatencyUs(h_write_ack_us_, host_->sim()->now() - op.submitted);
  // The ack installs the write-cache map entry (or the trim tombstone);
  // stale read-cache lines, including fills that landed while the write was
  // in flight, go now.
  read_cache_->Invalidate(op.offset, op.len);
  op.done(s);
}

void LsvdDisk::Trim(uint64_t offset, uint64_t len,
                    std::function<void(Status)> done) {
  if (!Aligned(offset) || !Aligned(len) || len == 0) {
    done(Status::InvalidArgument("unaligned or empty trim"));
    return;
  }
  if (offset + len > config_.volume_size) {
    done(Status::OutOfRange("trim beyond volume size"));
    return;
  }
  c_trims_->Inc();
  c_trim_bytes_->Inc(len);
  // Trims ride the write path's QoS lane, charged by trimmed length, so a
  // discard storm cannot starve a throttled tenant's writes out of order.
  const Nanos submitted = host_->sim()->now();
  if (qos_id_ < 0) {
    TrimAdmitted(offset, len, submitted, std::move(done));
    return;
  }
  auto alive = alive_;
  host_->qos()->Admit(qos_id_, len,
                      [this, alive, offset, len, submitted,
                       done = std::move(done)]() mutable {
    if (!*alive) {
      return;
    }
    TrimAdmitted(offset, len, submitted, std::move(done));
  });
}

void LsvdDisk::TrimAdmitted(uint64_t offset, uint64_t len, Nanos submitted,
                            std::function<void(Status)> done) {
  // The trim enters the object stream like a write (§3.2 step c): AddTrim
  // seals any open write batch first, so the punch applies strictly after
  // every earlier write. The batch seq is journaled for crash replay.
  const uint64_t batch_seq = backend_->AddTrim(offset, len);
  ArmBatchTimer();
  Journal(Journaled{offset, len, Buffer(), batch_seq, submitted,
                    /*is_trim=*/true, std::move(done)});
}

void LsvdDisk::Read(uint64_t offset, uint64_t len,
                    std::function<void(Result<Buffer>)> done) {
  if (!Aligned(offset) || !Aligned(len) || len == 0) {
    done(Status::InvalidArgument("unaligned or empty read"));
    return;
  }
  if (offset + len > config_.volume_size) {
    done(Status::OutOfRange("read beyond volume size"));
    return;
  }
  c_reads_->Inc();
  c_read_bytes_->Inc(len);
  const uint32_t slot = reading_.Alloc();
  Reading& rd = reading_[slot];
  rd.offset = offset;
  rd.len = len;
  rd.started = host_->sim()->now();
  rd.done = std::move(done);
  if (qos_id_ < 0) {
    ReadAdmitted(slot);
    return;
  }
  auto alive = alive_;
  host_->qos()->Admit(qos_id_, len, [this, alive, slot] {
    if (*alive) {
      ReadAdmitted(slot);
    }
  });
}

void LsvdDisk::ReadAdmitted(uint32_t slot) {
  // Charge the kernel-side lookup once per client read, then route. The plan
  // is built in the same event that issues its cache reads: built before the
  // charge, it could name write-cache space that was evicted and rewritten,
  // or a read-cache slot that was recycled, while the charge ran.
  auto alive = alive_;
  host_->kernel_cpu()->Submit(
      config_.costs.read_map_lookup + config_.costs.read_hit,
      [this, alive, slot] {
    if (*alive) {
      RouteRead(slot);
    }
  });
}

Histogram* LsvdDisk::RouteHistogram(FragmentKind kind) const {
  switch (kind) {
    case FragmentKind::kWriteCache:
      return h_read_write_cache_us_;
    case FragmentKind::kReadCache:
      return h_read_read_cache_us_;
    case FragmentKind::kBackend:
      return h_read_backend_us_;
    case FragmentKind::kZero:
      return h_read_zero_us_;
  }
  return nullptr;
}

void LsvdDisk::RouteRead(uint32_t slot) {
  Reading& rd = reading_[slot];
  // Build the routing plan: write cache > read cache > backend > zeros.
  SmallVector<Fragment, 4>& plan = rd.plan;
  ExtentMap<SsdTarget>::SegmentVec wsegs;
  ExtentMap<SsdTarget>::SegmentVec rsegs;
  ExtentMap<ObjTarget>::SegmentVec osegs;
  auto plan_below_write_cache = [&](uint64_t start, uint64_t sublen) {
    read_cache_->map().Lookup(start, sublen, &rsegs);
    for (const auto& rseg : rsegs) {
      if (rseg.target.has_value()) {
        plan.push_back(Fragment{FragmentKind::kReadCache, rseg.start,
                                rseg.len, rseg.target->plba});
        continue;
      }
      backend_->object_map().Lookup(rseg.start, rseg.len, &osegs);
      for (const auto& oseg : osegs) {
        if (oseg.target.has_value()) {
          plan.push_back(Fragment{FragmentKind::kBackend, oseg.start,
                                  oseg.len, 0, *oseg.target});
        } else {
          plan.push_back(Fragment{FragmentKind::kZero, oseg.start, oseg.len});
        }
      }
    }
  };
  // Pending trim tombstones (journaled but not yet released) shadow the
  // layers below the write cache: a trimmed range reads as zeros even while
  // older backend objects still hold its pre-trim data.
  const ExtentMap<ObjTarget>& trim_map = write_cache_->trim_map();
  write_cache_->map().Lookup(rd.offset, rd.len, &wsegs);
  for (const auto& wseg : wsegs) {
    if (wseg.target.has_value()) {
      plan.push_back(Fragment{FragmentKind::kWriteCache, wseg.start,
                              wseg.len, wseg.target->plba});
      continue;
    }
    if (trim_map.empty()) {
      plan_below_write_cache(wseg.start, wseg.len);
      continue;
    }
    ExtentMap<ObjTarget>::SegmentVec tsegs;
    trim_map.Lookup(wseg.start, wseg.len, &tsegs);
    for (const auto& tseg : tsegs) {
      if (tseg.target.has_value()) {
        plan.push_back(Fragment{FragmentKind::kZero, tseg.start, tseg.len});
      } else {
        plan_below_write_cache(tseg.start, tseg.len);
      }
    }
  }
  const auto n = static_cast<uint32_t>(plan.size());
  for (uint32_t i = 0; i < n; i++) {
    rd.parts.emplace_back();
  }
  rd.remaining = n;

  // Issue the fragments in plan order. Only a zero fragment lands inside
  // this loop, and only the last fragment to land frees the slot, so the
  // loop never touches the slot after issuing its last fragment.
  auto alive = alive_;
  for (uint32_t i = 0; i < n; i++) {
    Fragment& frag = rd.plan[i];
    switch (frag.kind) {
      case FragmentKind::kWriteCache:
        c_write_cache_hits_->Inc();
        write_cache_->ReadData(frag.plba, frag.len,
                               [this, alive, slot, i](Result<Buffer> r) {
          if (*alive) {
            FinishFragment(slot, i, std::move(r));
          }
        });
        break;
      case FragmentKind::kReadCache:
        c_read_cache_hits_->Inc();
        read_cache_->ReadData(frag.plba, frag.len,
                              [this, alive, slot, i](Result<Buffer> r) {
          if (*alive) {
            FinishFragment(slot, i, std::move(r));
          }
        });
        break;
      case FragmentKind::kZero:
        c_zero_reads_->Inc();
        FinishFragment(slot, i, Buffer::Zeros(frag.len));
        break;
      case FragmentKind::kBackend: {
        c_backend_reads_->Inc();
        // Temporal-locality prefetch (§3.2): extend the fetch to the
        // remainder of the extent, up to the prefetch window — data written
        // together is fetched together.
        frag.fetch_len = frag.len;
        if (frag.len < kPrefetchBytes) {
          backend_->object_map().Lookup(frag.vlba, kPrefetchBytes, &osegs);
          if (!osegs.empty() && osegs[0].target.has_value() &&
              *osegs[0].target == frag.target) {
            frag.fetch_len = std::max(std::min(osegs[0].len, kPrefetchBytes),
                                      frag.len);
          }
        }
        // Miss path overheads (Table 6): kernel/user transitions + daemon.
        host_->kernel_cpu()->Submit(config_.costs.read_miss_kernel,
                                    [this, alive, slot, i] {
          if (!*alive) {
            return;
          }
          host_->user_cpu()->Submit(config_.costs.read_miss_golang,
                                    [this, alive, slot, i] {
            if (!*alive) {
              return;
            }
            const Fragment& f = reading_[slot].plan[i];
            // No alive check of its own: the backend's retry driver drops
            // the answer once the backend is killed, and Kill kills the
            // backend with the disk. The capture fits std::function's
            // buffer.
            backend_->Fetch(f.target, f.fetch_len,
                            [this, slot, i](Result<Buffer> r) {
              const Fragment& fetched = reading_[slot].plan[i];
              if (r.ok()) {
                // Cache the fetched window (the requested fragment plus
                // prefetch), then return the requested part.
                CacheFetched(fetched.vlba, fetched.target, *r);
                if (r->size() != fetched.len) {
                  r = r->Slice(0, fetched.len);
                }
              }
              FinishFragment(slot, i, std::move(r));
            });
          });
        });
        break;
      }
    }
  }
}

void LsvdDisk::FinishFragment(uint32_t slot, uint32_t i, Result<Buffer> r) {
  Reading& rd = reading_[slot];
  // Per-fragment routing latency (submit -> fragment data available), into
  // the per-route histogram; end-to-end latency when the last one lands.
  const Nanos now = host_->sim()->now();
  RecordLatencyUs(RouteHistogram(rd.plan[i].kind), now - rd.started);
  if (r.ok()) {
    rd.parts[i] = std::move(r).value();
  } else if (!rd.failed) {
    rd.failed = true;
    // The slot stays taken until the other fragments land; slab slots never
    // move, so `rd` outlives a `done` that issues more reads.
    const auto done = std::move(rd.done);
    done(r.status());
  }
  if (--rd.remaining > 0) {
    return;
  }
  if (rd.failed) {
    reading_.Free(slot);
    return;
  }
  RecordLatencyUs(h_read_e2e_us_, now - rd.started);
  Buffer out;
  if (rd.parts.size() == 1) {
    out = std::move(rd.parts[0]);
  } else {
    for (const Buffer& p : rd.parts) {
      out.Append(p);
    }
  }
  // Free the slot first: `done` may issue the next read into it.
  const auto done = std::move(rd.done);
  reading_.Free(slot);
  done(std::move(out));
}

void LsvdDisk::CacheFetched(uint64_t vlba, ObjTarget target,
                            const Buffer& data) {
  // The maps may have moved on while the fetch was in flight. Install only
  // the pieces the object map still routes to the fetched bytes and that
  // neither the write cache nor a pending trim shadows; anything else would
  // outlive a newer write once its write-cache record is evicted. Adjacent
  // survivors go in as one run, so an unraced fetch is one Insert.
  ExtentMap<ObjTarget>::SegmentVec osegs;
  ExtentMap<SsdTarget>::SegmentVec wsegs;
  ExtentMap<ObjTarget>::SegmentVec tsegs;
  uint64_t run_start = vlba;
  uint64_t run_end = vlba;
  auto insert_run = [&] {
    if (run_end > run_start) {
      read_cache_->Insert(run_start,
                          data.Slice(run_start - vlba, run_end - run_start));
    }
  };
  backend_->object_map().Lookup(vlba, data.size(), &osegs);
  for (const auto& oseg : osegs) {
    if (!oseg.target.has_value() ||
        !(*oseg.target == target.Advanced(oseg.start - vlba))) {
      continue;
    }
    write_cache_->map().Lookup(oseg.start, oseg.len, &wsegs);
    for (const auto& wseg : wsegs) {
      if (wseg.target.has_value()) {
        continue;
      }
      write_cache_->trim_map().Lookup(wseg.start, wseg.len, &tsegs);
      for (const auto& tseg : tsegs) {
        if (tseg.target.has_value()) {
          continue;
        }
        if (tseg.start != run_end) {
          insert_run();
          run_start = tseg.start;
        }
        run_end = tseg.start + tseg.len;
      }
    }
  }
  insert_run();
}

void LsvdDisk::Flush(std::function<void(Status)> done) {
  c_flushes_->Inc();
  write_cache_->Barrier(std::move(done));
}

void LsvdDisk::Drain(std::function<void(Status)> done) {
  backend_->Seal();
  PollDrain(std::move(done));
}

void LsvdDisk::PollDrain(std::function<void(Status)> done) {
  if (backend_->idle()) {
    done(Status::Ok());
    return;
  }
  auto alive = alive_;
  host_->sim()->After(kMillisecond, [this, alive, done = std::move(done)]() mutable {
    if (!*alive) {
      return;
    }
    backend_->Seal();
    PollDrain(std::move(done));
  });
}

void LsvdDisk::CleanShutdown(std::function<void(Status)> done) {
  auto alive = alive_;
  Drain([this, alive, done = std::move(done)](Status s) mutable {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    write_cache_->WriteCheckpoint([this, alive,
                                   done = std::move(done)](Status s2) mutable {
      if (!*alive) {
        return;
      }
      if (!s2.ok()) {
        done(s2);
        return;
      }
      read_cache_->PersistMap([this, alive,
                               done = std::move(done)](Status) mutable {
        if (!*alive) {
          return;
        }
        backend_->WriteCheckpoint(std::move(done));
      });
    });
  });
}

void LsvdDisk::DetachForMigration(
    std::function<void(Result<MigrationHandoff>)> done) {
  auto alive = alive_;
  Drain([this, alive, done = std::move(done)](Status s) mutable {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    backend_->WriteCheckpoint([this, alive,
                               done = std::move(done)](Status s2) mutable {
      if (!*alive) {
        return;
      }
      if (!s2.ok()) {
        done(s2);
        return;
      }
      MigrationHandoff handoff;
      handoff.applied_seq = backend_->applied_seq();
      handoff.checkpoint_seq = backend_->last_checkpoint_seq();
      done(handoff);
    });
  });
}

void LsvdDisk::Snapshot(std::function<void(Result<uint64_t>)> done) {
  auto alive = alive_;
  // Snapshots pin an object-stream position; drain first so the snapshot
  // covers everything written so far.
  Drain([this, alive, done = std::move(done)](Status s) mutable {
    if (!*alive) {
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    backend_->CreateSnapshot(std::move(done));
  });
}

void LsvdDisk::DeleteSnapshot(uint64_t seq,
                              std::function<void(Status)> done) {
  backend_->DeleteSnapshot(seq, std::move(done));
}

LsvdConfig LsvdDisk::MakeCloneConfig(const std::string& clone_name,
                                     uint64_t base_seq) const {
  LsvdConfig clone = config_;
  clone.volume_name = clone_name;
  // The clone's base is this volume's object stream up to base_seq; if this
  // volume is itself a clone, sequences at or below our own base still
  // resolve to the original base image name chain only one level deep, so
  // cloning a clone requires base_seq > our base_last_seq.
  assert(base_seq > config_.base_last_seq &&
         "cannot clone from within another volume's base image");
  clone.base_image = config_.volume_name;
  clone.base_last_seq = base_seq;
  return clone;
}

}  // namespace lsvd
