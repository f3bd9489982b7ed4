#include "src/baseline/bcache_device.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lsvd {
namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

bool Aligned(uint64_t v) { return v % kBlockSize == 0; }

}  // namespace

BcacheDevice::BcacheDevice(ClientHost* host, VirtualDisk* backing,
                           uint64_t cache_base, uint64_t cache_size,
                           BcacheConfig config, MetricsRegistry* metrics,
                           const std::string& prefix)
    : host_(host),
      ssd_(host->ssd()),
      backing_(backing),
      config_(config),
      btree_cpu_(host->sim(), 1),
      alloc_(0, 1) {  // re-seated below once the layout is computed
  // Layout: journal + metadata region up front, data space after it.
  const uint64_t meta_size =
      std::max<uint64_t>(8 * kMiB, cache_size / 64) / kBlockSize * kBlockSize;
  journal_base_ = cache_base;
  journal_size_ = meta_size / 2;
  meta_base_ = cache_base + journal_size_;
  meta_size_ = meta_size - journal_size_;
  journal_head_ = journal_base_;
  alloc_ = RunAllocator(cache_base + meta_size, cache_size - meta_size);

  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_writes_ = metrics_->GetCounter(prefix + ".writes");
  c_write_bytes_ = metrics_->GetCounter(prefix + ".write_bytes");
  c_reads_ = metrics_->GetCounter(prefix + ".reads");
  c_read_hits_ = metrics_->GetCounter(prefix + ".read_hits");
  c_journal_writes_ = metrics_->GetCounter(prefix + ".journal_writes");
  c_barrier_node_writes_ =
      metrics_->GetCounter(prefix + ".barrier_node_writes");
  c_flushes_ = metrics_->GetCounter(prefix + ".flushes");
  c_writeback_ops_ = metrics_->GetCounter(prefix + ".writeback_ops");
  c_writeback_bytes_ = metrics_->GetCounter(prefix + ".writeback_bytes");
  c_stalled_writes_ = metrics_->GetCounter(prefix + ".stalled_writes");
  h_write_ack_us_ = metrics_->GetHistogram(prefix + ".write.ack_us");
  callback_guard_.Register(metrics_, prefix + ".dirty_bytes", [this] {
    return static_cast<double>(dirty_.mapped_bytes());
  });
}

BcacheStats BcacheDevice::stats() const {
  BcacheStats s;
  s.writes = c_writes_->value();
  s.write_bytes = c_write_bytes_->value();
  s.reads = c_reads_->value();
  s.read_hits = c_read_hits_->value();
  s.journal_writes = c_journal_writes_->value();
  s.barrier_node_writes = c_barrier_node_writes_->value();
  s.flushes = c_flushes_->value();
  s.writeback_ops = c_writeback_ops_->value();
  s.writeback_bytes = c_writeback_bytes_->value();
  s.stalled_writes = c_stalled_writes_->value();
  return s;
}

void BcacheDevice::FreeDisplaced(const ExtentMap<SsdTarget>::ExtentVec& ext) {
  for (const auto& e : ext) {
    alloc_.Free(e.target.plba, e.len);
  }
}

std::optional<uint64_t> BcacheDevice::AllocateEvicting(uint64_t len) {
  // Allocation needs a *contiguous* run; keep evicting clean lines (FIFO)
  // until one materializes — RunAllocator::Free merges neighbors, so once
  // everything clean is evicted the free space is maximally coalesced.
  while (true) {
    auto run = alloc_.Allocate(len);
    if (run.has_value()) {
      return run;
    }
    if (clean_fifo_.empty()) {
      return std::nullopt;
    }
    CleanEntry entry = clean_fifo_.front();
    clean_fifo_.pop_front();
    // Free only the portions still mapped to this entry's slot (overwritten
    // ranges were freed when they were displaced).
    ExtentMap<SsdTarget>::SegmentVec segs;
    ExtentMap<SsdTarget>::ExtentVec removed;
    clean_.Lookup(entry.vlba, entry.len, &segs);
    for (const auto& seg : segs) {
      if (!seg.target.has_value()) {
        continue;
      }
      const uint64_t expected = entry.plba + (seg.start - entry.vlba);
      if (seg.target->plba == expected) {
        clean_.Remove(seg.start, seg.len, &removed);
        FreeDisplaced(removed);
      }
    }
  }
}

void BcacheDevice::Write(uint64_t offset, Buffer data,
                         std::function<void(Status)> done) {
  if (!Aligned(offset) || !Aligned(data.size()) || data.empty()) {
    done(Status::InvalidArgument("unaligned or empty bcache write"));
    return;
  }
  if (offset + data.size() > backing_->size()) {
    done(Status::OutOfRange("write beyond volume size"));
    return;
  }
  c_writes_->Inc();
  c_write_bytes_->Inc(data.size());
  writes_since_tick_++;

  // Ack latency covers everything up to the journal group commit, including
  // any time spent in the stalled queue.
  const Nanos submitted = host_->sim()->now();
  auto alive = alive_;
  auto acked = [this, alive, submitted,
                done = std::move(done)](Status s) mutable {
    if (*alive) {
      RecordLatencyUs(h_write_ack_us_, host_->sim()->now() - submitted);
    }
    done(s);
  };

  if (!stalled_.empty()) {
    stalled_.push_back(StalledWrite{offset, std::move(data), std::move(acked)});
    c_stalled_writes_->Inc();
    ForceWriteback();
    return;
  }
  DoWrite(offset, std::move(data), std::move(acked));
}

void BcacheDevice::DoWrite(uint64_t offset, Buffer data,
                           std::function<void(Status)> done) {
  const uint64_t len = data.size();
  const bool over_dirty =
      static_cast<double>(dirty_.mapped_bytes()) >
      config_.dirty_stall_fraction * static_cast<double>(alloc_.total_bytes());
  std::optional<uint64_t> plba;
  if (!over_dirty) {
    plba = AllocateEvicting(len);
  }
  if (!plba.has_value()) {
    if (len > alloc_.total_bytes() / 2) {
      // Can never fit (even a fully drained cache could stay fragmented).
      done(Status::ResourceExhausted("write larger than bcache data space"));
      return;
    }
    // Cache full: stall until writeback (or in-flight inserts becoming
    // dirty and then written back) frees space.
    stalled_.push_front(StalledWrite{offset, std::move(data), std::move(done)});
    c_stalled_writes_->Inc();
    ForceWriteback();
    return;
  }

  auto alive = alive_;
  const uint64_t target = *plba;
  btree_cpu_.Submit(config_.btree_cost,
                    [this, alive, offset, target, data = std::move(data),
                     done = std::move(done)]() mutable {
    if (!*alive) {
      return;
    }
    const uint64_t len = data.size();
    // Older copies of this range die now; their space is reusable.
    ExtentMap<SsdTarget>::ExtentVec displaced;
    dirty_.Update(offset, len, SsdTarget{target}, &displaced);
    FreeDisplaced(displaced);
    clean_.Remove(offset, len, &displaced);
    FreeDisplaced(displaced);
    updates_since_barrier_++;
    ArmWriteback();
    ssd_->Write(target, std::move(data),
                [this, alive, done = std::move(done)](Status s) mutable {
      if (!*alive) {
        return;
      }
      if (!s.ok()) {
        done(s);
        return;
      }
      // Acknowledged once the b-tree update is journaled (group commit).
      JoinJournal([done = std::move(done)]() { done(Status::Ok()); });
    });
  });
}

void BcacheDevice::JoinJournal(std::function<void()> committed) {
  journal_waiters_.push_back(std::move(committed));
  PumpJournal();
}

void BcacheDevice::PumpJournal() {
  if (journal_in_flight_ || journal_waiters_.empty()) {
    return;
  }
  journal_in_flight_ = true;
  auto group =
      std::make_shared<std::vector<std::function<void()>>>(
          std::move(journal_waiters_));
  journal_waiters_.clear();
  if (journal_head_ + kBlockSize > journal_base_ + journal_size_) {
    journal_head_ = journal_base_;
  }
  const uint64_t at = journal_head_;
  journal_head_ += kBlockSize;
  auto alive = alive_;
  ssd_->Write(at, Buffer::Zeros(kBlockSize), [this, alive, group](Status) {
    if (!*alive) {
      return;
    }
    c_journal_writes_->Inc();
    journal_in_flight_ = false;
    for (auto& cb : *group) {
      cb();
    }
    PumpJournal();
  });
}

void BcacheDevice::Flush(std::function<void(Status)> done) {
  c_flushes_->Inc();
  // Unlike LSVD's log, bcache must write its dirty B-tree nodes out before
  // the barrier completes (§4.2.2). Node writes are ordered (children before
  // parents), so they serialize; the journal commit then needs a pre-flush
  // (nodes durable before the commit record) and a post-flush.
  const uint64_t nodes = std::min(
      config_.max_barrier_nodes,
      updates_since_barrier_ / config_.updates_per_btree_node + 1);
  updates_since_barrier_ = 0;
  c_barrier_node_writes_->Inc(nodes);

  auto alive = alive_;
  auto commit = [this, alive, done = std::move(done)]() mutable {
    ssd_->Flush([this, alive, done = std::move(done)](Status) mutable {
      if (!*alive) {
        return;
      }
      JoinJournal([this, alive, done = std::move(done)]() mutable {
        ssd_->Flush([alive, done = std::move(done)](Status s) {
          if (*alive) {
            done(s);
          }
        });
      });
    });
  };

  // The loop body captures itself only weakly (each SSD-write callback
  // re-locks a strong reference), so the function object is freed when the
  // loop finishes rather than leaking in a shared_ptr cycle.
  auto write_node = std::make_shared<std::function<void(uint64_t)>>();
  std::weak_ptr<std::function<void(uint64_t)>> weak_node = write_node;
  *write_node = [this, alive, nodes, weak_node,
                 commit = std::move(commit)](uint64_t n) mutable {
    if (n >= nodes) {
      commit();
      return;
    }
    // B-tree nodes live at scattered metadata offsets.
    const uint64_t at =
        meta_base_ + Mix(meta_counter_++) % (meta_size_ / kBlockSize) *
                         kBlockSize;
    ssd_->Write(at, Buffer::Zeros(kBlockSize),
                [alive, write_node = weak_node.lock(), n](Status) {
                  if (*alive) {
                    (*write_node)(n + 1);
                  }
                });
  };
  (*write_node)(0);
}

void BcacheDevice::Read(uint64_t offset, uint64_t len,
                        std::function<void(Result<Buffer>)> done) {
  if (!Aligned(offset) || !Aligned(len) || len == 0) {
    done(Status::InvalidArgument("unaligned or empty bcache read"));
    return;
  }
  if (offset + len > backing_->size()) {
    done(Status::OutOfRange("read beyond volume size"));
    return;
  }
  c_reads_->Inc();

  struct Fragment {
    uint64_t vlba;
    uint64_t len;
    std::optional<uint64_t> plba;  // nullopt = backing miss
  };
  auto plan = std::make_shared<std::vector<Fragment>>();
  bool all_hits = true;
  ExtentMap<SsdTarget>::SegmentVec dsegs;
  ExtentMap<SsdTarget>::SegmentVec csegs;
  dirty_.Lookup(offset, len, &dsegs);
  for (const auto& dseg : dsegs) {
    if (dseg.target.has_value()) {
      plan->push_back(Fragment{dseg.start, dseg.len, dseg.target->plba});
      continue;
    }
    clean_.Lookup(dseg.start, dseg.len, &csegs);
    for (const auto& cseg : csegs) {
      if (cseg.target.has_value()) {
        plan->push_back(Fragment{cseg.start, cseg.len, cseg.target->plba});
      } else {
        plan->push_back(Fragment{cseg.start, cseg.len, std::nullopt});
        all_hits = false;
      }
    }
  }
  if (all_hits) {
    c_read_hits_->Inc();
  }

  auto parts = std::make_shared<std::vector<Buffer>>(plan->size());
  auto remaining = std::make_shared<size_t>(plan->size());
  auto failed = std::make_shared<bool>(false);
  auto finish = [parts, remaining, failed, done](size_t i, Result<Buffer> r) {
    if (r.ok()) {
      (*parts)[i] = std::move(r).value();
    } else if (!*failed) {
      *failed = true;
      done(r.status());
    }
    if (--*remaining == 0 && !*failed) {
      Buffer out;
      for (auto& p : *parts) {
        out.Append(p);
      }
      done(out);
    }
  };

  auto alive = alive_;
  btree_cpu_.Submit(config_.read_cost, [this, alive, plan, finish]() {
    if (!*alive) {
      return;
    }
    for (size_t i = 0; i < plan->size(); i++) {
      const Fragment& frag = (*plan)[i];
      if (frag.plba.has_value()) {
        ssd_->Read(*frag.plba, frag.len, [i, finish](Result<Buffer> r) {
          finish(i, std::move(r));
        });
      } else {
        backing_->Read(frag.vlba, frag.len,
                       [this, alive, i, frag, finish](Result<Buffer> r) {
          if (!*alive) {
            return;
          }
          if (r.ok()) {
            // Fill the cache (clean) in the background.
            auto slot = AllocateEvicting(frag.len);
            if (slot.has_value()) {
              ExtentMap<SsdTarget>::ExtentVec removed;
              clean_.Remove(frag.vlba, frag.len, &removed);
              FreeDisplaced(removed);
              clean_.Update(frag.vlba, frag.len, SsdTarget{*slot}, nullptr);
              clean_fifo_.push_back(CleanEntry{frag.vlba, frag.len, *slot});
              ssd_->Write(*slot, *r, [](Status) {});
            }
          }
          finish(i, std::move(r));
        });
      }
    }
  });
}

void BcacheDevice::ArmWriteback() {
  if (writeback_armed_ || dirty_.mapped_bytes() == 0) {
    return;
  }
  writeback_armed_ = true;
  auto alive = alive_;
  host_->sim()->After(config_.writeback_interval, [this, alive]() {
    if (!*alive) {
      return;
    }
    writeback_armed_ = false;
    if (dirty_.mapped_bytes() == 0) {
      return;
    }
    const bool idle = writes_since_tick_ == 0;
    writes_since_tick_ = 0;
    if (idle && !writeback_running_) {
      WritebackRound(config_.writeback_batch_bytes, false,
                     [this, alive]() {
        if (*alive) {
          ArmWriteback();
        }
      });
    } else {
      // Load present: bcache pauses writeback (Figure 11); check again later.
      ArmWriteback();
    }
  });
}

void BcacheDevice::ForceWriteback() {
  if (writeback_running_ || force_retry_pending_) {
    return;
  }
  auto alive = alive_;
  if (dirty_.mapped_bytes() == 0) {
    // Nothing dirty yet (writes still in flight toward the cache): let the
    // simulation advance before retrying the stalled queue.
    force_retry_pending_ = true;
    host_->sim()->After(kMillisecond, [this, alive]() {
      if (!*alive) {
        return;
      }
      force_retry_pending_ = false;
      RetryStalled();
      if (!stalled_.empty()) {
        ForceWriteback();
      }
    });
    return;
  }
  WritebackRound(config_.writeback_batch_bytes, true, [this, alive]() {
    if (!*alive) {
      return;
    }
    RetryStalled();
    if (!stalled_.empty()) {
      ForceWriteback();
    }
  });
}

std::vector<WritebackPiece> SelectWritebackPieces(
    const ExtentMap<SsdTarget>& dirty, uint64_t* cursor, uint64_t max_bytes,
    uint64_t chunk) {
  std::vector<WritebackPiece> pieces;
  uint64_t selected = 0;
  const auto take = [&](const MapExtent<SsdTarget>& e) {
    if (selected >= max_bytes) {
      return false;
    }
    uint64_t off = 0;
    while (off < e.len && selected < max_bytes) {
      const uint64_t piece = std::min(chunk, e.len - off);
      pieces.push_back(
          WritebackPiece{e.start + off, piece, e.target.plba + off});
      selected += piece;
      off += piece;
    }
    *cursor = e.start + e.len;
    return true;
  };
  const uint64_t from = *cursor;
  dirty.ForEachFrom(from, take);
  dirty.ForEachFrom(0, [&](const MapExtent<SsdTarget>& e) {
    return e.start < from && take(e);
  });
  return pieces;
}

void BcacheDevice::WritebackRound(uint64_t max_bytes, bool forced,
                                  std::function<void()> done) {
  (void)forced;
  if (writeback_running_ || dirty_.mapped_bytes() == 0) {
    host_->sim()->After(0, std::move(done));
    return;
  }
  writeback_running_ = true;

  // Select dirty extents in LBA order starting at the scan cursor — this is
  // the ordering that breaks crash consistency (Table 4).
  const std::vector<WritebackPiece> pieces = SelectWritebackPieces(
      dirty_, &wb_cursor_, max_bytes, config_.writeback_chunk);
  if (pieces.empty()) {
    writeback_running_ = false;
    host_->sim()->After(0, std::move(done));
    return;
  }

  // One state for the whole round, shared by every piece's callbacks.
  auto round = std::make_shared<Round>(
      Round{alive_, pieces.size(), std::move(done)});
  for (const WritebackPiece& p : pieces) {
    ssd_->Read(p.plba, p.len, [this, round, p](Result<Buffer> r) {
      if (!*round->alive) {
        return;
      }
      if (!r.ok()) {
        PieceDone(round.get());
        return;
      }
      c_writeback_ops_->Inc();
      c_writeback_bytes_->Inc(p.len);
      backing_->Write(p.vlba, std::move(r).value(),
                      [this, round, p](Status s) {
        if (!*round->alive) {
          return;
        }
        if (s.ok()) {
          MarkClean(p);
        }
        PieceDone(round.get());
      });
    });
  }
}

void BcacheDevice::MarkClean(const WritebackPiece& p) {
  // Move still-current ranges from dirty to clean.
  ExtentMap<SsdTarget>::SegmentVec segs;
  dirty_.Lookup(p.vlba, p.len, &segs);
  for (const auto& seg : segs) {
    if (!seg.target.has_value()) {
      continue;
    }
    const uint64_t expected = p.plba + (seg.start - p.vlba);
    if (seg.target->plba == expected) {
      dirty_.Remove(seg.start, seg.len, nullptr);
      clean_.Update(seg.start, seg.len, SsdTarget{expected}, nullptr);
      clean_fifo_.push_back(CleanEntry{seg.start, seg.len, expected});
    }
  }
}

void BcacheDevice::PieceDone(Round* round) {
  if (--round->remaining > 0) {
    return;
  }
  writeback_running_ = false;
  RetryStalled();
  round->done();
}

void BcacheDevice::RetryStalled() {
  while (!stalled_.empty()) {
    const bool over_dirty =
        static_cast<double>(dirty_.mapped_bytes()) >
        config_.dirty_stall_fraction *
            static_cast<double>(alloc_.total_bytes());
    if (over_dirty) {
      return;  // still no room; the forced-writeback loop continues
    }
    const size_t before = stalled_.size();
    StalledWrite w = std::move(stalled_.front());
    stalled_.pop_front();
    DoWrite(w.offset, std::move(w.data), std::move(w.done));
    if (stalled_.size() >= before) {
      return;  // the write re-stalled: no progress possible right now
    }
  }
}

void BcacheDevice::WritebackAll(std::function<void()> done) {
  if (dirty_.mapped_bytes() == 0) {
    host_->sim()->After(0, std::move(done));
    return;
  }
  auto alive = alive_;
  WritebackRound(UINT64_MAX, true, [this, alive, done = std::move(done)]() mutable {
    if (!*alive) {
      return;
    }
    WritebackAll(std::move(done));
  });
}

}  // namespace lsvd
