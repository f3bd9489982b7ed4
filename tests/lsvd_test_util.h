// Shared helpers for driving LSVD components synchronously in tests.
#ifndef TESTS_LSVD_TEST_UTIL_H_
#define TESTS_LSVD_TEST_UTIL_H_

#include <optional>
#include <utility>

#include "src/lsvd/client_host.h"
#include "src/lsvd/lsvd_disk.h"
#include "src/objstore/mem_object_store.h"
#include "src/sim/simulator.h"
#include "src/util/buffer.h"
#include "src/util/rng.h"

namespace lsvd {

// Deterministic non-zero test payload (seeded per call site).
inline Buffer TestPattern(uint64_t len, uint64_t seed) {
  std::vector<uint8_t> bytes(len);
  Rng rng(seed);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  if (!bytes.empty() && bytes[0] == 0) {
    bytes[0] = 1;  // ensure the buffer is not an all-zero run
  }
  return Buffer::FromBytes(bytes);
}

inline Status WriteSync(Simulator* sim, LsvdDisk* disk, uint64_t off,
                        Buffer data) {
  std::optional<Status> result;
  disk->Write(off, std::move(data), [&](Status s) { result = s; });
  while (!result.has_value() && sim->Step()) {
  }
  return result.value_or(Status::Unavailable("write never completed"));
}

inline Result<Buffer> ReadSync(Simulator* sim, LsvdDisk* disk, uint64_t off,
                               uint64_t len) {
  std::optional<Result<Buffer>> result;
  disk->Read(off, len, [&](Result<Buffer> r) { result = std::move(r); });
  while (!result.has_value() && sim->Step()) {
  }
  if (!result.has_value()) {
    return Status::Unavailable("read never completed");
  }
  return std::move(*result);
}

inline Status TrimSync(Simulator* sim, LsvdDisk* disk, uint64_t off,
                       uint64_t len) {
  std::optional<Status> result;
  disk->Trim(off, len, [&](Status s) { result = s; });
  while (!result.has_value() && sim->Step()) {
  }
  return result.value_or(Status::Unavailable("trim never completed"));
}

inline Status FlushSync(Simulator* sim, LsvdDisk* disk) {
  std::optional<Status> result;
  disk->Flush([&](Status s) { result = s; });
  while (!result.has_value() && sim->Step()) {
  }
  return result.value_or(Status::Unavailable("flush never completed"));
}

inline Status DrainSync(Simulator* sim, LsvdDisk* disk) {
  std::optional<Status> result;
  disk->Drain([&](Status s) { result = s; });
  while (!result.has_value() && sim->Step()) {
  }
  return result.value_or(Status::Unavailable("drain never completed"));
}

// Checkpoints the write cache, then evicts every releasable record.
inline Status EvictReleasableSync(Simulator* sim, WriteCache* wc) {
  std::optional<Status> result;
  wc->EvictReleasable([&](Status s) { result = s; });
  while (!result.has_value() && sim->Step()) {
  }
  return result.value_or(Status::Unavailable("eviction never completed"));
}

inline Status OpenSync(Simulator* sim, LsvdDisk* disk,
                       void (LsvdDisk::*open)(std::function<void(Status)>)) {
  std::optional<Status> result;
  (disk->*open)([&](Status s) { result = s; });
  while (!result.has_value() && sim->Step()) {
  }
  return result.value_or(Status::Unavailable("open never completed"));
}

// A small world: one simulator, host, in-memory object store.
struct TestWorld {
  Simulator sim;
  ClientHost host;
  MemObjectStore store;

  explicit TestWorld(ClientHostConfig hc = InstantHostConfig())
      : host(&sim, hc), store(&sim) {}

  static ClientHostConfig InstantHostConfig() {
    ClientHostConfig hc;
    hc.ssd_capacity = 8 * kGiB;
    hc.ssd = SsdParams::Instant();
    return hc;
  }

  static LsvdConfig SmallVolumeConfig() {
    LsvdConfig config;
    config.volume_name = "vol";
    config.volume_size = 64 * kMiB;
    config.write_cache_size = 32 * kMiB;
    config.read_cache_size = 32 * kMiB;
    config.batch_bytes = kMiB;
    config.checkpoint_interval_objects = 8;
    // Keep software overheads zero in functional tests.
    config.costs = StageCosts{0, 0, 0, 0, 0, 0, 0, 0, 0};
    config.pass_through_ssd = false;
    return config;
  }
};

}  // namespace lsvd

#endif  // TESTS_LSVD_TEST_UTIL_H_
