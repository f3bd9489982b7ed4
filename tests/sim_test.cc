// Unit tests for the discrete-event engine, service queues, disk models, and
// the backend cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/disk_model.h"
#include "src/sim/net_link.h"
#include "src/sim/server_queue.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace lsvd {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim.At(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&]() {
    fired++;
    if (fired < 10) {
      sim.After(5, chain);
    }
  };
  sim.After(5, chain);
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilAdvancesClockAndStops) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { fired++; });
  sim.At(100, [&] { fired++; });
  const uint64_t n = sim.RunUntil(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

// A callback that counts how often it was move-constructed before it ran.
struct MoveCountingEvent {
  MoveCountingEvent(std::vector<std::pair<Nanos, int>>* log, Simulator* sim,
                    int id, int* max_moves, std::function<void()>* spawn)
      : log(log), sim(sim), id(id), max_moves(max_moves), spawn(spawn) {}
  MoveCountingEvent(MoveCountingEvent&& o) noexcept
      : log(o.log), sim(o.sim), id(o.id), max_moves(o.max_moves),
        spawn(o.spawn), moves(o.moves + 1) {}
  MoveCountingEvent(const MoveCountingEvent&) = delete;

  void operator()() {
    *max_moves = std::max(*max_moves, moves);
    log->push_back({sim->now(), id});
    if (spawn != nullptr && *spawn) {
      (*spawn)();
    }
  }

  std::vector<std::pair<Nanos, int>>* log;
  Simulator* sim;
  int id;
  int* max_moves;
  std::function<void()>* spawn;
  int moves = 0;
};

TEST(Simulator, PendingCallbacksNeverMoveAndRunInOrderAcrossSlabChunks) {
  Simulator sim;
  Rng rng(7);
  std::vector<std::pair<Nanos, int>> log;
  std::vector<Nanos> due;  // by id: the time each event was scheduled for
  int max_moves = 0;
  std::function<void()> spawn;
  const auto schedule = [&](Nanos t) {
    const int id = static_cast<int>(due.size());
    due.push_back(t);
    // Coarse times, so many events share a timestamp.
    sim.At(t, MoveCountingEvent(&log, &sim, id, &max_moves, &spawn));
  };
  // Handlers keep adding events while thousands are pending, so the slab
  // grows under pending and running callbacks alike.
  spawn = [&] {
    if (due.size() < 6000) {
      schedule(sim.now() + static_cast<Nanos>(rng.Uniform(50)) * 100);
      schedule(sim.now() + static_cast<Nanos>(rng.Uniform(50)) * 100);
    }
  };
  for (int i = 0; i < 3000; i++) {
    schedule(static_cast<Nanos>(rng.Uniform(200)) * 100);
  }
  EXPECT_GE(sim.pending_events(), 3000u);
  sim.Run();

  ASSERT_EQ(log.size(), due.size());
  // One move into the Fn argument, one into its slab slot and one out of
  // it to run; none while pending.
  EXPECT_EQ(max_moves, 3);
  for (size_t i = 0; i < log.size(); i++) {
    EXPECT_EQ(log[i].first, due[static_cast<size_t>(log[i].second)]);
    if (i > 0) {
      // (t, seq) order: ids are handed out in scheduling order.
      EXPECT_TRUE(log[i - 1].first < log[i].first ||
                  (log[i - 1].first == log[i].first &&
                   log[i - 1].second < log[i].second))
          << "event " << i;
    }
  }
}

TEST(ServerQueue, SingleServerSerializes) {
  Simulator sim;
  ServerQueue q(&sim, 1);
  std::vector<Nanos> completions;
  int done = 0;
  for (int i = 0; i < 3; i++) {
    q.Submit(100, [&] {
      completions.push_back(sim.now());
      done++;
    });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<Nanos>{100, 200, 300}));
  EXPECT_EQ(q.busy_time(), 300);
  EXPECT_EQ(done, 3);
}

TEST(ServerQueue, MultipleServersOverlap) {
  Simulator sim;
  ServerQueue q(&sim, 4);
  std::vector<Nanos> completions;
  for (int i = 0; i < 8; i++) {
    q.Submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.Run();
  // First 4 at t=100, next 4 at t=200.
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(completions.size(), 8u);
  EXPECT_EQ(completions[3], 100);
  EXPECT_EQ(completions[4], 200);
}

TEST(ServerQueue, UtilizationHelper) {
  EXPECT_DOUBLE_EQ(ServerQueue::Utilization(500, 1000, 1), 0.5);
  EXPECT_DOUBLE_EQ(ServerQueue::Utilization(500, 1000, 2), 0.25);
  EXPECT_DOUBLE_EQ(ServerQueue::Utilization(1, 0, 1), 0.0);
}

TEST(HddModel, NearAccessIsCheaperThanFar) {
  Simulator sim;
  HddParams params;
  HddModel disk(&sim, params);

  Nanos near_done = 0;
  Nanos far_done = 0;
  // First op seeks from 0 (head) to half the disk => far.
  disk.Submit(true, params.capacity / 2, 4096, [&] { far_done = sim.now(); });
  sim.Run();
  far_done = sim.now();
  // Second op lands right after the head => near.
  const Nanos t0 = sim.now();
  disk.Submit(true, params.capacity / 2 + 4096, 4096,
              [&] { near_done = sim.now(); });
  sim.Run();
  EXPECT_GT(far_done, params.seek_base);
  EXPECT_LT(near_done - t0, params.near_access + kMillisecond);
  EXPECT_LT(near_done - t0, far_done);
}

TEST(HddModel, SeekCostGrowsWithDistance) {
  Simulator sim;
  HddParams params;
  HddModel near_disk(&sim, params);
  HddModel far_disk(&sim, params);
  Nanos short_seek = 0;
  Nanos long_seek = 0;
  near_disk.Submit(true, kGiB, 4096, [&] { short_seek = sim.now(); });
  sim.Run();
  const Nanos t0 = sim.now();
  far_disk.Submit(true, params.capacity - 4096, 4096,
                  [&] { long_seek = sim.now() - t0; });
  sim.Run();
  EXPECT_LT(short_seek, long_seek);
  // A full-stroke random write lands near the paper's ~370 IOPS rating.
  EXPECT_GT(long_seek, 3 * kMillisecond);
  EXPECT_LT(long_seek, 8 * kMillisecond);
}

TEST(HddModel, ElevatorReordersForShortSeeks) {
  Simulator sim;
  HddParams params;
  HddModel disk(&sim, params);
  std::vector<int> completion_order;
  // Head at 0. Queue a far op, then (while busy) a near op and another far
  // op. After the first far op finishes at 10 GiB, the elevator should pick
  // the op closest to 10 GiB next.
  disk.Submit(true, 10 * kGiB, 4096, [&] { completion_order.push_back(0); });
  disk.Submit(true, 40 * kGiB, 4096, [&] { completion_order.push_back(1); });
  disk.Submit(true, 10 * kGiB + 8192, 4096,
              [&] { completion_order.push_back(2); });
  sim.Run();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 2, 1}));
}

TEST(HddModel, StatsAccumulate) {
  Simulator sim;
  HddModel disk(&sim, HddParams{});
  disk.Submit(true, 0, 8192, [] {});
  disk.Submit(false, kGiB, 4096, [] {});
  sim.Run();
  EXPECT_EQ(disk.stats().write_ops, 1u);
  EXPECT_EQ(disk.stats().write_bytes, 8192u);
  EXPECT_EQ(disk.stats().read_ops, 1u);
  EXPECT_GT(disk.stats().busy, 0);
}

TEST(BackendSsdModel, IopsLimited) {
  Simulator sim;
  BackendSsdParams params;  // 4 channels x 400us writes => 10K IOPS
  BackendSsdModel disk(&sim, params);
  int done = 0;
  for (int i = 0; i < 1000; i++) {
    disk.Submit(true, static_cast<uint64_t>(i) * 4096, 4096,
                [&] { done++; });
  }
  sim.Run();
  EXPECT_EQ(done, 1000);
  // 1000 ops / (4 channels / 400us) = 100ms.
  EXPECT_NEAR(ToSeconds(sim.now()), 0.1, 0.01);
}

TEST(BackendCluster, PlacementIsDeterministicAndDistinct) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::HddPool());
  for (uint64_t h = 0; h < 100; h++) {
    const int d0 = cluster.PickDisk(h, 0);
    const int d1 = cluster.PickDisk(h, 1);
    const int d2 = cluster.PickDisk(h, 2);
    EXPECT_EQ(d0, cluster.PickDisk(h, 0));
    EXPECT_NE(d0, d1);
    EXPECT_NE(d1, d2);
    EXPECT_NE(d0, d2);
    EXPECT_GE(d0, 0);
    EXPECT_LT(d0, cluster.num_disks());
  }
}

TEST(BackendCluster, WalAppendsAreSequentialPerDisk) {
  Simulator sim;
  BackendCluster cluster(&sim, ClusterConfig::HddPool());
  const uint64_t o1 = cluster.WalAppend(3, 4096, [] {});
  const uint64_t o2 = cluster.WalAppend(3, 4096, [] {});
  const uint64_t other = cluster.WalAppend(4, 4096, [] {});
  sim.Run();
  EXPECT_EQ(o2, o1 + 4096);
  EXPECT_EQ(other, 0u);
}

TEST(BackendCluster, UtilizationWindow) {
  Simulator sim;
  ClusterConfig config = ClusterConfig::HddPool();
  config.num_disks = 2;
  BackendCluster cluster(&sim, config);
  const Nanos busy0 = cluster.TotalBusy();
  const Nanos t0 = sim.now();
  cluster.Write(0, kGiB, 4096, [] {});
  sim.Run();
  const double util = cluster.MeanUtilization(busy0, t0, sim.now());
  // One disk busy the whole window, the other idle => ~50%.
  EXPECT_NEAR(util, 0.5, 0.05);
}

TEST(BackendCluster, WriteSizeHistogramMergesSequentialRuns) {
  Simulator sim;
  ClusterConfig config = ClusterConfig::HddPool();
  config.num_disks = 2;
  BackendCluster cluster(&sim, config);
  // Three sequential 4K writes on disk 0 => one 12K merged run.
  cluster.Write(0, 0, 4096, [] {});
  cluster.Write(0, 4096, 4096, [] {});
  cluster.Write(0, 8192, 4096, [] {});
  // A separate write far away => its own run.
  cluster.Write(0, kGiB, 4096, [] {});
  sim.Run();
  cluster.FlushWriteRuns();
  const Histogram& h = cluster.write_size_histogram();
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(h.total_weight(), 16384u);
  EXPECT_EQ(h.BucketWeight(13), 12288u);  // [8K,16K) bucket holds the 12K run
  EXPECT_EQ(h.BucketWeight(12), 4096u);   // [4K,8K) bucket holds the 4K run
}

TEST(NetLink, TransfersSerializeOnLink) {
  Simulator sim;
  NetParams params;
  params.bandwidth_bps = 1e9;  // 1 GB/s for round numbers
  NetLink link(&sim, params);
  std::vector<Nanos> completions;
  link.SendToBackend(kMiB, [&] { completions.push_back(sim.now()); });
  link.SendToBackend(kMiB, [&] { completions.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(completions.size(), 2u);
  // Each 1 MiB at 1 GB/s ~= 1.05ms; second waits for first.
  EXPECT_NEAR(static_cast<double>(completions[1]),
              2.0 * static_cast<double>(completions[0]), 1e5);
}

}  // namespace
}  // namespace lsvd
