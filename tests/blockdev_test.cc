// Unit tests for the simulated client SSD: data integrity, durability rules,
// crash injection, and the sequential-vs-random service model; and for the
// block store under it and under the RBD baseline's image.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/baseline/rbd_disk.h"
#include "src/blockdev/sim_ssd.h"
#include "src/sim/cluster.h"
#include "src/sim/net_link.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace lsvd {
namespace {

Buffer Pattern(uint64_t len, uint8_t seed) {
  std::vector<uint8_t> bytes(len);
  for (uint64_t i = 0; i < len; i++) {
    bytes[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return Buffer::FromBytes(bytes);
}

// Synchronous wrappers that drive the simulator to completion.
Status WriteSync(Simulator* sim, SimSsd* ssd, uint64_t off, Buffer data) {
  std::optional<Status> result;
  ssd->Write(off, std::move(data), [&](Status s) { result = s; });
  sim->Run();
  return *result;
}

Result<Buffer> ReadSync(Simulator* sim, SimSsd* ssd, uint64_t off,
                        uint64_t len) {
  std::optional<Result<Buffer>> result;
  ssd->Read(off, len, [&](Result<Buffer> r) { result = std::move(r); });
  sim->Run();
  return std::move(*result);
}

Status FlushSync(Simulator* sim, SimSsd* ssd) {
  std::optional<Status> result;
  ssd->Flush([&](Status s) { result = s; });
  sim->Run();
  return *result;
}

TEST(SimSsd, WriteThenReadRoundTrips) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  Buffer data = Pattern(8192, 3);
  ASSERT_TRUE(WriteSync(&sim, &ssd, 4096, data).ok());
  auto r = ReadSync(&sim, &ssd, 4096, 8192);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST(SimSsd, UnwrittenReadsAsZeros) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
}

TEST(SimSsd, RejectsUnalignedAndOutOfRange) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  EXPECT_EQ(WriteSync(&sim, &ssd, 100, Buffer::Zeros(4096)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteSync(&sim, &ssd, 0, Buffer::Zeros(100)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteSync(&sim, &ssd, kMiB, Buffer::Zeros(4096)).code(),
            StatusCode::kOutOfRange);
  auto r = ReadSync(&sim, &ssd, kMiB - 4096, 8192);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(SimSsd, PowerFailLosesUnflushedWrites) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  Buffer flushed = Pattern(4096, 1);
  Buffer unflushed = Pattern(4096, 2);
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, flushed).ok());
  ASSERT_TRUE(FlushSync(&sim, &ssd).ok());
  ASSERT_TRUE(WriteSync(&sim, &ssd, 4096, unflushed).ok());

  ssd.PowerFail();

  auto r0 = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(*r0, flushed);  // survived: was flushed
  auto r1 = ReadSync(&sim, &ssd, 4096, 4096);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->IsAllZeros());  // lost: never flushed
}

TEST(SimSsd, PowerFailDuringFlushDoesNotPromote) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::P3700());
  bool wrote = false;
  ssd.Write(0, Pattern(4096, 9), [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  sim.Run();
  ASSERT_TRUE(wrote);
  // Start a flush but fail power before it completes.
  ssd.Flush([](Status) {});
  ssd.PowerFail();
  sim.Run();
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
}

TEST(SimSsd, ReadDuringInFlightFlushSeesLatestWrite) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::P3700());
  const Buffer old_data = Buffer::FromBytes(std::vector<uint8_t>(4096, 0xAA));
  const Buffer new_data = Buffer::FromBytes(std::vector<uint8_t>(4096, 0xBB));
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, old_data).ok());
  ASSERT_TRUE(FlushSync(&sim, &ssd).ok());
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, new_data).ok());  // acknowledged
  // A read issued while a flush is in flight sees the acknowledged write.
  bool flushed = false;
  ssd.Flush([&](Status s) { flushed = s.ok(); });
  std::optional<Result<Buffer>> r;
  ssd.Read(0, 4096, [&](Result<Buffer> rr) { r = std::move(rr); });
  sim.Run();
  ASSERT_TRUE(flushed);
  ASSERT_TRUE(r.has_value() && r->ok());
  EXPECT_EQ(r->value(), new_data);
}

TEST(SimSsd, DiscardAllLosesEverything) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, Pattern(4096, 5)).ok());
  ASSERT_TRUE(FlushSync(&sim, &ssd).ok());
  ssd.DiscardAll();
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
}

TEST(SimSsd, SequentialWritesFasterThanRandom) {
  Simulator sim;
  SsdParams params = SsdParams::P3700();
  SimSsd ssd(&sim, kGiB, params);
  Rng rng(11);

  // 1000 sequential 4K writes.
  Nanos t0 = sim.now();
  int remaining = 1000;
  for (int i = 0; i < 1000; i++) {
    ssd.Write(static_cast<uint64_t>(i) * 4096, Buffer::Zeros(4096),
              [&](Status s) {
                ASSERT_TRUE(s.ok());
                remaining--;
              });
  }
  sim.Run();
  ASSERT_EQ(remaining, 0);
  const Nanos seq_time = sim.now() - t0;

  // 1000 random 4K writes.
  t0 = sim.now();
  remaining = 1000;
  for (int i = 0; i < 1000; i++) {
    const uint64_t block = rng.Uniform(kGiB / 4096);
    ssd.Write(block * 4096, Buffer::Zeros(4096), [&](Status s) {
      ASSERT_TRUE(s.ok());
      remaining--;
    });
  }
  sim.Run();
  ASSERT_EQ(remaining, 0);
  const Nanos rand_time = sim.now() - t0;

  EXPECT_LT(seq_time * 3, rand_time);
  EXPECT_GT(ssd.stats().sequential_writes, 900u);
}

TEST(SimSsd, RandomWriteIopsNearRated) {
  Simulator sim;
  SimSsd ssd(&sim, kGiB, SsdParams::P3700());
  Rng rng(13);
  constexpr int kOps = 20000;
  int done = 0;
  // Closed loop at queue depth 32.
  std::function<void()> issue = [&]() {
    if (done + 32 > kOps) {
      return;
    }
    const uint64_t block = rng.Uniform(kGiB / 4096);
    ssd.Write(block * 4096, Buffer::Zeros(4096), [&](Status s) {
      ASSERT_TRUE(s.ok());
      done++;
      issue();
    });
  };
  for (int i = 0; i < 32; i++) {
    issue();
  }
  sim.Run();
  const double iops = done / ToSeconds(sim.now());
  EXPECT_NEAR(iops, 90000.0, 15000.0);  // rated 90K random-write IOPS
}

TEST(SimSsd, FlushMakesPrecedingWritesDurable) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::P3700());
  Buffer data = Pattern(4096, 77);
  bool flushed = false;
  ssd.Write(0, data, [](Status) {});
  ssd.Flush([&](Status s) {
    ASSERT_TRUE(s.ok());
    flushed = true;
  });
  sim.Run();
  ASSERT_TRUE(flushed);
  ssd.PowerFail();
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

// --- the block store, through SimSsd and the RBD image ---
//
// Seeded writes of every chunk shape the program hands a device, at random
// offsets across page boundaries, interleaved with reads, flushes left in
// flight, power failures and discards. Every read is checked against byte
// shadows of the current and the durable contents.

Buffer RandomBytes(Rng* rng, uint64_t n) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng->Next());
  }
  return Buffer::FromBytes(bytes);
}

Buffer ShapedWrite(Rng* rng, uint64_t blocks) {
  const uint64_t n = blocks * kBlockSize;
  switch (rng->Uniform(4)) {
    case 0:  // a symbolic zero run (bulk payloads)
      return Buffer::Zeros(n);
    case 1: {  // stamped blocks: a 16-byte data chunk and a zero tail each
      Buffer b;
      for (uint64_t i = 0; i < blocks; i++) {
        b.Append(RandomBytes(rng, 16));
        b.AppendZeros(kBlockSize - 16);
      }
      return b;
    }
    case 2: {  // one shared chunk: an encoded head, then zero padding
      std::vector<uint8_t> bytes(n, 0);
      const uint64_t head = 1 + rng->Uniform(n);
      for (uint64_t i = 0; i < head; i++) {
        bytes[i] = static_cast<uint8_t>(rng->Next() | 1);
      }
      Buffer b;
      b.AppendShared(std::make_shared<const std::vector<uint8_t>>(
                         std::move(bytes)),
                     0, n);
      return b;
    }
    default: {  // chunks of random lengths straddling block edges, sliced
      const uint64_t skip = rng->Uniform(kBlockSize);
      Buffer whole;
      while (whole.size() < skip + n) {
        const uint64_t len = 1 + rng->Uniform(6000);
        if (rng->Uniform(3) == 0) {
          whole.AppendZeros(len);
        } else {
          whole.Append(RandomBytes(rng, len));
        }
      }
      return whole.Slice(skip, n);
    }
  }
}

// Index of the first differing byte, or -1 if the two are equal.
int64_t FirstMismatch(const std::vector<uint8_t>& got,
                      const std::vector<uint8_t>& want) {
  if (got.size() != want.size()) {
    return 0;
  }
  for (size_t i = 0; i < got.size(); i++) {
    if (got[i] != want[i]) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

// Issues a read of [off, off+len) and checks it, when it completes, against
// `shadow` as it stood at issue.
template <typename Device>
void CheckedRead(Device* dev, uint64_t off, uint64_t len,
                 const std::vector<uint8_t>& shadow, const std::string& what) {
  std::vector<uint8_t> want(shadow.begin() + static_cast<int64_t>(off),
                            shadow.begin() + static_cast<int64_t>(off + len));
  dev->Read(off, len, [off, what, want = std::move(want)](Result<Buffer> r) {
    ASSERT_TRUE(r.ok()) << what;
    EXPECT_EQ(FirstMismatch(r->ToBytes(), want), -1)
        << what << ", read at " << off << " + " << want.size();
  });
}

constexpr uint64_t kModelBytes = 3 * kMiB;  // spans several store pages

uint64_t RandomBlocks(Rng* rng, uint64_t off) {
  return std::min<uint64_t>(1 + rng->Uniform(40),
                            (kModelBytes - off) / kBlockSize);
}

TEST(SimSsd, SeededModelOfEveryChunkShape) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    Simulator sim;
    SimSsd ssd(&sim, kModelBytes, SsdParams::P3700());
    Rng rng(seed);
    std::vector<uint8_t> current(kModelBytes);
    std::vector<uint8_t> durable(kModelBytes);
    // Accepted writes no completed flush covers yet: (seq, offset, bytes).
    struct Unflushed {
      uint64_t seq;
      uint64_t offset;
      std::vector<uint8_t> bytes;
    };
    std::deque<Unflushed> unflushed;
    uint64_t next_seq = 0;
    const std::string what = "seed " + std::to_string(seed);

    for (int step = 0; step < 3000; step++) {
      const uint64_t op = rng.Uniform(100);
      const uint64_t off = rng.Uniform(kModelBytes / kBlockSize) * kBlockSize;
      if (op < 45) {
        Buffer data = ShapedWrite(&rng, RandomBlocks(&rng, off));
        std::vector<uint8_t> bytes = data.ToBytes();
        std::copy(bytes.begin(), bytes.end(),
                  current.begin() + static_cast<int64_t>(off));
        unflushed.push_back(Unflushed{next_seq++, off, std::move(bytes)});
        ssd.Write(off, std::move(data),
                  [&what](Status s) { EXPECT_TRUE(s.ok()) << what; });
      } else if (op < 75) {
        CheckedRead(&ssd, off, RandomBlocks(&rng, off) * kBlockSize,
                    current, what);
      } else if (op < 85) {
        ssd.Flush([&, covers = next_seq](Status s) {
          EXPECT_TRUE(s.ok()) << what;
          while (!unflushed.empty() && unflushed.front().seq < covers) {
            const Unflushed& w = unflushed.front();
            std::copy(w.bytes.begin(), w.bytes.end(),
                      durable.begin() + static_cast<int64_t>(w.offset));
            unflushed.pop_front();
          }
        });
      } else if (op < 95) {
        sim.RunUntil(sim.now() + static_cast<Nanos>(rng.Uniform(300)) *
                                     kMicrosecond);
      } else if (op < 99) {
        ssd.PowerFail();
        current = durable;
        unflushed.clear();
      } else {
        ssd.DiscardAll();
        std::fill(current.begin(), current.end(), 0);
        std::fill(durable.begin(), durable.end(), 0);
        unflushed.clear();
      }
    }
    sim.Run();
    CheckedRead(&ssd, 0, kModelBytes, current, what + ", at end");
    sim.Run();
    ssd.PowerFail();
    CheckedRead(&ssd, 0, kModelBytes, durable,
                what + ", after the last power failure");
    sim.Run();
  }
}

TEST(RbdDisk, SeededModelOfEveryChunkShape) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    Simulator sim;
    BackendCluster cluster(&sim, ClusterConfig::SsdPool());
    NetLink link(&sim, NetParams{});
    RbdDisk rbd(&sim, &cluster, &link, kModelBytes, RbdConfig{});
    Rng rng(seed);
    std::vector<uint8_t> image(kModelBytes);
    const std::string what = "seed " + std::to_string(seed);

    for (int step = 0; step < 2000; step++) {
      const uint64_t op = rng.Uniform(100);
      const uint64_t off = rng.Uniform(kModelBytes / kBlockSize) * kBlockSize;
      if (op < 50) {
        Buffer data = ShapedWrite(&rng, RandomBlocks(&rng, off));
        const std::vector<uint8_t> bytes = data.ToBytes();
        std::copy(bytes.begin(), bytes.end(),
                  image.begin() + static_cast<int64_t>(off));
        rbd.Write(off, std::move(data),
                  [&what](Status s) { EXPECT_TRUE(s.ok()) << what; });
      } else if (op < 85) {
        CheckedRead(&rbd, off, RandomBlocks(&rng, off) * kBlockSize,
                    image, what);
      } else {
        sim.RunUntil(sim.now() + static_cast<Nanos>(rng.Uniform(500)) *
                                     kMicrosecond);
      }
    }
    sim.Run();
    CheckedRead(&rbd, 0, kModelBytes, image, what + ", at end");
    sim.Run();
  }
}

}  // namespace
}  // namespace lsvd
