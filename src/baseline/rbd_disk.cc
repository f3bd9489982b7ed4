#include "src/baseline/rbd_disk.h"

#include <cassert>

#include "src/blockdev/block_device.h"

namespace lsvd {
namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// Chunk data areas start above the per-disk WAL region.
constexpr uint64_t kDataRegionBase = 8 * kGiB;

bool Aligned(uint64_t v) { return v % kBlockSize == 0; }

}  // namespace

RbdDisk::RbdDisk(Simulator* sim, BackendCluster* cluster, NetLink* link,
                 uint64_t volume_size, RbdConfig config, uint64_t volume_id,
                 MetricsRegistry* metrics, const std::string& prefix)
    : sim_(sim),
      cluster_(cluster),
      link_(link),
      volume_size_(volume_size),
      config_(config),
      volume_id_(volume_id) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_writes_ = metrics_->GetCounter(prefix + ".writes");
  c_write_bytes_ = metrics_->GetCounter(prefix + ".write_bytes");
  c_reads_ = metrics_->GetCounter(prefix + ".reads");
  c_read_bytes_ = metrics_->GetCounter(prefix + ".read_bytes");
  h_write_ack_us_ = metrics_->GetHistogram(prefix + ".write.ack_us");
  h_read_e2e_us_ = metrics_->GetHistogram(prefix + ".read.e2e_us");
}

RbdStats RbdDisk::stats() const {
  RbdStats s;
  s.writes = c_writes_->value();
  s.write_bytes = c_write_bytes_->value();
  s.reads = c_reads_->value();
  s.read_bytes = c_read_bytes_->value();
  return s;
}

uint64_t RbdDisk::ChunkHash(uint64_t chunk) const {
  return Mix(chunk * 0x9E3779B97F4A7C15ULL + volume_id_);
}

uint64_t RbdDisk::ChunkBase(uint64_t chunk, int replica) const {
  // Deterministic home: repeated writes to the same chunk land in the same
  // disk region (the write "streams" observed in the paper's §4.5 analysis).
  const uint64_t span = cluster_->disk_capacity() - kDataRegionBase -
                        config_.chunk_size;
  const uint64_t h = Mix(ChunkHash(chunk) ^ static_cast<uint64_t>(replica));
  return kDataRegionBase + (h % span) / kBlockSize * kBlockSize;
}

void RbdDisk::Write(uint64_t offset, Buffer data,
                    std::function<void(Status)> done) {
  if (!Aligned(offset) || !Aligned(data.size()) || data.empty()) {
    done(Status::InvalidArgument("unaligned or empty RBD write"));
    return;
  }
  if (offset + data.size() > volume_size_) {
    done(Status::OutOfRange("write beyond volume size"));
    return;
  }
  c_writes_->Inc();
  c_write_bytes_->Inc(data.size());

  // Store contents immediately (the acknowledgement below gates the caller,
  // and RBD has no client-side volatile state to lose).
  image_.Write(offset, data);

  // Each chunk-contained piece is replicated independently; the write is
  // acknowledged once every piece's WAL appends are durable.
  const uint64_t pieces = ChunkIndex(offset + data.size() - 1) -
                          ChunkIndex(offset) + 1;
  auto st = std::make_shared<WriteState>(WriteState{
      alive_, offset, data.size(), sim_->now(),
      static_cast<int>(pieces) * config_.replicas, std::move(done)});
  // Client -> primary transfer, then fan out to replicas.
  link_->SendToBackend(st->bytes, [this, st] {
    if (*st->alive) {
      sim_->After(link_->half_rtt(), [this, st] { FanOut(st); });
    }
  });
}

void RbdDisk::FanOut(const std::shared_ptr<WriteState>& st) {
  uint64_t pos = st->offset;
  uint64_t left = st->bytes;
  while (left > 0) {
    const uint64_t chunk = ChunkIndex(pos);
    const uint64_t within = pos % config_.chunk_size;
    const uint64_t len = std::min(left, config_.chunk_size - within);
    for (int r = 0; r < config_.replicas; r++) {
      const int disk = cluster_->PickDisk(ChunkHash(chunk), r);
      // WAL append: data + commit metadata, sequential on the OSD journal.
      cluster_->WalAppend(disk,
                          static_cast<uint32_t>(len + config_.wal_overhead),
                          [this, st] { WalDurable(st); });
      // In-place data write into the chunk's home region (applied after the
      // journal; not part of the acknowledgement path).
      cluster_->Write(disk, ChunkBase(chunk, r) + within,
                      static_cast<uint32_t>(len), [] {});
    }
    pos += len;
    left -= len;
  }
}

void RbdDisk::WalDurable(const std::shared_ptr<WriteState>& st) {
  if (--st->wal_left > 0 || !*st->alive) {
    return;
  }
  sim_->After(link_->half_rtt(), [this, st] {
    if (*st->alive) {
      RecordLatencyUs(h_write_ack_us_, sim_->now() - st->submitted);
      st->done(Status::Ok());
    }
  });
}

void RbdDisk::Read(uint64_t offset, uint64_t len,
                   std::function<void(Result<Buffer>)> done) {
  if (!Aligned(offset) || !Aligned(len) || len == 0) {
    done(Status::InvalidArgument("unaligned or empty RBD read"));
    return;
  }
  if (offset + len > volume_size_) {
    done(Status::OutOfRange("read beyond volume size"));
    return;
  }
  c_reads_->Inc();
  c_read_bytes_->Inc(len);

  // Timing: request to primary, disk read, transfer back.
  const uint64_t chunk = ChunkIndex(offset);
  const int disk = cluster_->PickDisk(ChunkHash(chunk), 0);
  const uint64_t at = ChunkBase(chunk, 0) + offset % config_.chunk_size;
  auto st = std::make_shared<ReadState>(ReadState{
      alive_, len, sim_->now(), image_.Read(offset, len), std::move(done)});
  sim_->After(link_->half_rtt(), [this, st, disk, at] {
    cluster_->Read(disk, at, static_cast<uint32_t>(st->len), [this, st] {
      link_->ReceiveFromBackend(st->len, [this, st] {
        if (!*st->alive) {
          return;
        }
        sim_->After(link_->half_rtt(), [this, st] {
          if (*st->alive) {
            RecordLatencyUs(h_read_e2e_us_, sim_->now() - st->started);
            st->done(std::move(st->out));
          }
        });
      });
    });
  });
}

void RbdDisk::Flush(std::function<void(Status)> done) {
  // Acknowledged writes are already journaled at three replicas.
  sim_->After(0, [alive = alive_, done = std::move(done)]() {
    if (*alive) {
      done(Status::Ok());
    }
  });
}

}  // namespace lsvd
