#include "src/sim/cluster.h"

#include <cassert>
#include <utility>

namespace lsvd {
namespace {

// 64-bit mix for placement hashing.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// The WAL lives in the first part of each disk; data placement offsets are
// generated above it.
constexpr uint64_t kWalRegion = 8 * kGiB;

}  // namespace

BackendCluster::BackendCluster(Simulator* sim, ClusterConfig config,
                               MetricsRegistry* metrics,
                               const std::string& prefix)
    : sim_(sim), config_(config) {
  assert(config_.num_disks > 0);
  disks_.reserve(static_cast<size_t>(config_.num_disks));
  for (int i = 0; i < config_.num_disks; i++) {
    if (config_.kind == DiskKind::kHdd) {
      disks_.push_back(std::make_unique<HddModel>(sim_, config_.hdd));
    } else {
      disks_.push_back(std::make_unique<BackendSsdModel>(sim_, config_.ssd));
    }
  }
  wal_head_.assign(disks_.size(), 0);
  write_run_.assign(disks_.size(), WriteRun{});

  if (metrics != nullptr) {
    for (int i = 0; i < config_.num_disks; i++) {
      DiskModel* d = disks_[static_cast<size_t>(i)].get();
      const std::string base = prefix + ".disk[" + std::to_string(i) + "]";
      metrics->RegisterCallback(base + ".busy_us", [d] {
        return static_cast<double>(d->stats().busy) / 1000.0;
      });
      metrics->RegisterCallback(base + ".read_ops", [d] {
        return static_cast<double>(d->stats().read_ops);
      });
      metrics->RegisterCallback(base + ".write_ops", [d] {
        return static_cast<double>(d->stats().write_ops);
      });
      metrics->RegisterCallback(base + ".read_bytes", [d] {
        return static_cast<double>(d->stats().read_bytes);
      });
      metrics->RegisterCallback(base + ".write_bytes", [d] {
        return static_cast<double>(d->stats().write_bytes);
      });
    }
    metrics->RegisterCallback(prefix + ".total.busy_us", [this] {
      return static_cast<double>(TotalBusy()) / 1000.0;
    });
    metrics->RegisterCallback(prefix + ".total.read_ops", [this] {
      return static_cast<double>(TotalStats().read_ops);
    });
    metrics->RegisterCallback(prefix + ".total.write_ops", [this] {
      return static_cast<double>(TotalStats().write_ops);
    });
    metrics->RegisterCallback(prefix + ".total.read_bytes", [this] {
      return static_cast<double>(TotalStats().read_bytes);
    });
    metrics->RegisterCallback(prefix + ".total.write_bytes", [this] {
      return static_cast<double>(TotalStats().write_bytes);
    });
  }
}

void BackendCluster::Write(int disk, uint64_t offset, uint32_t len,
                           Simulator::Fn done) {
  assert(disk >= 0 && disk < num_disks());
  AccountWrite(disk, offset, len);
  disks_[static_cast<size_t>(disk)]->Submit(true, offset, len,
                                            std::move(done));
}

void BackendCluster::Read(int disk, uint64_t offset, uint32_t len,
                          Simulator::Fn done) {
  assert(disk >= 0 && disk < num_disks());
  disks_[static_cast<size_t>(disk)]->Submit(false, offset, len,
                                            std::move(done));
}

int BackendCluster::PickDisk(uint64_t hash, int replica) const {
  // Derive a distinct pseudo-random permutation start per item; successive
  // replicas step by a hash-derived odd stride so copies land on distinct
  // disks (for replica < num_disks).
  const auto n = static_cast<uint64_t>(num_disks());
  const uint64_t start = Mix(hash) % n;
  const uint64_t stride = (Mix(hash ^ 0xA5A5A5A5A5A5A5A5ULL) % (n - 1)) + 1;
  return static_cast<int>((start + stride * static_cast<uint64_t>(replica)) %
                          n);
}

uint64_t BackendCluster::WalAppend(int disk, uint32_t len,
                                   Simulator::Fn done) {
  assert(disk >= 0 && disk < num_disks());
  auto& head = wal_head_[static_cast<size_t>(disk)];
  const uint64_t offset = head;
  head += len;
  if (head >= kWalRegion) {
    head = 0;  // circular journal
  }
  Write(disk, offset, len, std::move(done));
  return offset;
}

DiskStats BackendCluster::TotalStats() const {
  DiskStats total;
  for (const auto& d : disks_) {
    const DiskStats& s = d->stats();
    total.read_ops += s.read_ops;
    total.write_ops += s.write_ops;
    total.read_bytes += s.read_bytes;
    total.write_bytes += s.write_bytes;
    total.busy += s.busy;
  }
  return total;
}

Nanos BackendCluster::TotalBusy() const {
  Nanos busy = 0;
  for (const auto& d : disks_) {
    busy += d->stats().busy;
  }
  return busy;
}

double BackendCluster::MeanUtilization(Nanos busy_at_t0, Nanos t0,
                                       Nanos t1) const {
  const Nanos interval = t1 - t0;
  if (interval <= 0) {
    return 0.0;
  }
  const Nanos busy_delta = TotalBusy() - busy_at_t0;
  return static_cast<double>(busy_delta) /
         static_cast<double>(interval * num_disks());
}

void BackendCluster::AccountWrite(int disk, uint64_t offset, uint32_t len) {
  auto& run = write_run_[static_cast<size_t>(disk)];
  if (run.len > 0 && offset == run.end) {
    run.end += len;
    run.len += len;
    return;
  }
  if (run.len > 0) {
    write_sizes_.Add(run.len, run.len);
  }
  run.end = offset + len;
  run.len = len;
}

void BackendCluster::FlushWriteRuns() {
  for (auto& run : write_run_) {
    if (run.len > 0) {
      write_sizes_.Add(run.len, run.len);
      run = WriteRun{};
    }
  }
}

}  // namespace lsvd
