// The calendar-queue event engine must be observably identical to the
// reference binary heap it replaced: every figure in the reproduction
// depends on event ordering being exactly (timestamp, FIFO sequence).
//
// These tests fuzz randomized schedule/run interleavings through the real
// Simulator and through a minimal reference implementation (priority_queue
// of (t, seq), the pre-overhaul engine) and require identical execution
// traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace lsvd {
namespace {

// The pre-overhaul engine, kept verbatim as the ordering oracle.
class ReferenceSim {
 public:
  using Fn = std::function<void()>;

  Nanos now() const { return now_; }
  void At(Nanos t, Fn fn) { queue_.push(Event{t, next_seq_++, std::move(fn)}); }
  void After(Nanos dt, Fn fn) { At(now_ + dt, std::move(fn)); }

  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.t;
    ev.fn();
    return true;
  }

  void Run() {
    while (Step()) {
    }
  }

  uint64_t RunUntil(Nanos t) {
    uint64_t processed = 0;
    while (!queue_.empty() && queue_.top().t <= t) {
      Step();
      processed++;
    }
    if (now_ < t) {
      now_ = t;
    }
    return processed;
  }

  uint64_t RunBefore(Nanos limit) {
    uint64_t processed = 0;
    while (!queue_.empty() && queue_.top().t < limit) {
      Step();
      processed++;
    }
    return processed;
  }

  void AdvanceTo(Nanos t) { now_ = std::max(now_, t); }

  Nanos next_event_time() const {
    return queue_.empty() ? Simulator::kNoEventTime : queue_.top().t;
  }

  bool empty() const { return queue_.empty(); }

 private:
  struct Event {
    Nanos t;
    uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) {
        return a.t > b.t;
      }
      return a.seq > b.seq;
    }
  };
  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// One trace entry: which logical event ran, and at what virtual time.
struct TraceEntry {
  uint64_t id;
  Nanos at;
  bool operator==(const TraceEntry&) const = default;
};

// A delay drawn from one of the engine's tiers: the same tick, the same
// 4 us day, the near ring (one 4.19 ms block), the coarse ring (~4.3 s) and
// the overflow heap beyond it.
Nanos RandomDelay(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0: return 0;
    case 1: return static_cast<Nanos>(rng->Uniform(100));
    case 2: return static_cast<Nanos>(rng->Uniform(100'000));
    case 3: return static_cast<Nanos>(rng->Uniform(50'000'000));
    case 4: return static_cast<Nanos>(rng->Uniform(4'000'000'000));
    default: return static_cast<Nanos>(rng->Uniform(40'000'000'000));
  }
}

// Replays a deterministic random schedule script on any engine with the
// Simulator interface. Handlers reschedule follow-up events with seeded
// random delays, so ordering bugs compound into divergent traces quickly.
template <typename Engine>
std::vector<TraceEntry> RunScript(uint64_t seed, int initial_events,
                                  int max_events) {
  Engine sim;
  Rng rng(seed);
  std::vector<TraceEntry> trace;
  uint64_t next_id = 0;
  int scheduled = 0;

  std::function<void(uint64_t)> fire = [&](uint64_t id) {
    trace.push_back({id, sim.now()});
    // Each event spawns 0-2 children at a mix of delays that reach every
    // calendar tier; delay 0 exercises the same-timestamp FIFO tie-break.
    const int children = static_cast<int>(rng.Uniform(3));
    for (int c = 0; c < children && scheduled < max_events; c++) {
      const Nanos dt = RandomDelay(&rng);
      const uint64_t child = next_id++;
      scheduled++;
      sim.After(dt, [&fire, child] { fire(child); });
    }
  };

  for (int i = 0; i < initial_events; i++) {
    const uint64_t id = next_id++;
    scheduled++;
    sim.At(rng.Uniform(1'000'000), [&fire, id] { fire(id); });
  }

  // Mix RunUntil windows with free running, as the benches do.
  sim.RunUntil(500'000);
  trace.push_back({~uint64_t{0}, sim.now()});  // clock checkpoint
  // Schedule externally after the RunUntil, while events it did not reach
  // are still pending — some of these land earlier than those survivors,
  // which must not have dragged the engine's cursor past them.
  for (int i = 0; i < 8; i++) {
    const uint64_t id = next_id++;
    const Nanos dt = rng.Uniform(10'000'000);
    sim.At(sim.now() + dt, [&fire, id] { fire(id); });
  }
  sim.Run();
  trace.push_back({~uint64_t{0}, sim.now()});
  return trace;
}

TEST(CalendarQueue, MatchesReferenceHeapOnRandomSchedules) {
  for (uint64_t seed = 1; seed <= 25; seed++) {
    const auto got = RunScript<Simulator>(seed, 32, 4000);
    const auto want = RunScript<ReferenceSim>(seed, 32, 4000);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); i++) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " step " << i;
    }
  }
}

// Drives every run primitive and the peek in random interleavings: each
// step records now() and next_event_time(), so a stale peek or an event run
// out of order shows up as a diverging trace.
template <typename Engine>
std::vector<TraceEntry> RunMixedScript(uint64_t seed) {
  constexpr uint64_t kPeek = ~uint64_t{0} - 1;
  constexpr uint64_t kClock = ~uint64_t{0};
  Engine sim;
  Rng rng(seed);
  std::vector<TraceEntry> trace;
  uint64_t next_id = 0;
  std::function<void(uint64_t)> fire = [&](uint64_t id) {
    trace.push_back({id, sim.now()});
    if (rng.Uniform(3) == 0 && next_id < 3000) {
      const uint64_t child = next_id++;
      sim.After(RandomDelay(&rng), [&fire, child] { fire(child); });
    }
  };
  for (int round = 0; round < 400; round++) {
    const int n = static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < n; i++) {
      const uint64_t id = next_id++;
      sim.After(RandomDelay(&rng), [&fire, id] { fire(id); });
    }
    trace.push_back({kPeek, sim.next_event_time()});
    const Nanos horizon = sim.now() + RandomDelay(&rng);
    switch (rng.Uniform(4)) {
      case 0: sim.RunUntil(horizon); break;
      case 1: sim.RunBefore(horizon); break;
      case 2: sim.AdvanceTo(std::min(horizon, sim.next_event_time())); break;
      default: sim.Step(); break;
    }
    trace.push_back({kClock, sim.now()});
  }
  sim.Run();
  trace.push_back({kClock, sim.now()});
  return trace;
}

TEST(CalendarQueue, MixedRunPrimitivesMatchReferenceHeapAcrossTiers) {
  for (uint64_t seed = 1; seed <= 200; seed++) {
    const auto got = RunMixedScript<Simulator>(seed);
    const auto want = RunMixedScript<ReferenceSim>(seed);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); i++) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " step " << i;
    }
  }
}

// Regression: the earliest pending event sat in the far tier while a later
// one, scheduled after the window had moved, sat in a near bucket. The peek
// looked only at the near buckets, so next_event_time() reported the later
// event, RunUntil stopped short of the earlier one and the next Step()
// moved now() backwards.
TEST(CalendarQueue, NextEventTimeSeesEarlierFarEventAfterWindowMoves) {
  Simulator sim;
  std::vector<Nanos> fired_at;
  const auto record = [&] { fired_at.push_back(sim.now()); };
  sim.At(1'000'000, record);
  sim.At(5'000'000, record);
  ASSERT_TRUE(sim.Step());
  sim.At(5'120'000, record);
  EXPECT_EQ(sim.next_event_time(), 5'000'000);
  EXPECT_EQ(sim.RunUntil(5'050'000), 1u);
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.now(), 5'120'000);
  EXPECT_EQ(fired_at,
            (std::vector<Nanos>{1'000'000, 5'000'000, 5'120'000}));
}

TEST(CalendarQueue, MassiveSameTimestampBurstIsFifo) {
  Simulator sim;
  std::vector<int> order;
  // Far more events on one timestamp than any single bucket expects.
  constexpr int kN = 20000;
  for (int i = 0; i < kN; i++) {
    sim.At(12345, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; i++) {
    ASSERT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(sim.now(), 12345);
}

TEST(CalendarQueue, FarFutureEventsMigrateInOrder) {
  Simulator sim;
  std::vector<uint64_t> order;
  // Span many horizon windows: timers land well beyond the near buckets.
  const std::vector<Nanos> times = {5'000'000'000, 1,       3'000'000'000,
                                    2,             999'999, 4'000'000'001,
                                    4'000'000'000, 100'000'000};
  for (size_t i = 0; i < times.size(); i++) {
    sim.At(times[i], [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 3, 4, 7, 2, 6, 5, 0}));
  EXPECT_EQ(sim.now(), 5'000'000'000);
}

TEST(CalendarQueue, HandlersSchedulingAtNowRunThisStep) {
  Simulator sim;
  std::vector<int> order;
  sim.At(100, [&] {
    order.push_back(0);
    sim.After(0, [&] { order.push_back(2); });
  });
  sim.At(100, [&] { order.push_back(1); });
  sim.At(101, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CalendarQueue, PendingAndProcessedCounts) {
  Simulator sim;
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.events_processed(), 0u);
  for (int i = 0; i < 10; i++) {
    sim.After(static_cast<Nanos>(i) * 10'000'000, [] {});
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  sim.RunUntil(45'000'000);
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_EQ(sim.events_processed(), 5u);
  sim.Run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.events_processed(), 10u);
}

// Regression: RunUntil used to commit cursor movement for an event it then
// declined to pop, so a later At() with an earlier timestamp landed in a
// bucket behind the cursor and ran *after* the later event, with now()
// regressing. Trace from the report: At(3ms); RunUntil(1ms); At(1.1ms);
// Run() fired 3ms before 1.1ms.
TEST(CalendarQueue, RunUntilLeavingPendingEventDoesNotReorderLaterSchedules) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Nanos> fired_at;
  sim.At(3'000'000, [&] {
    order.push_back(0);
    fired_at.push_back(sim.now());
  });
  EXPECT_EQ(sim.RunUntil(1'000'000), 0u);  // 3ms event stays pending
  EXPECT_EQ(sim.now(), 1'000'000);
  sim.At(1'100'000, [&] {
    order.push_back(1);
    fired_at.push_back(sim.now());
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_EQ(fired_at, (std::vector<Nanos>{1'100'000, 3'000'000}));
}

// Same shape, but the pending survivor is a far timer beyond the near
// window: the declined settle must not jump the window to it either.
TEST(CalendarQueue, RunUntilLeavingPendingFarTimerDoesNotReorder) {
  Simulator sim;
  std::vector<Nanos> fired_at;
  sim.At(10'000'000'000, [&] { fired_at.push_back(sim.now()); });
  EXPECT_EQ(sim.RunUntil(1'000'000), 0u);
  sim.At(2'000'000, [&] { fired_at.push_back(sim.now()); });
  sim.At(1'000'000, [&] { fired_at.push_back(sim.now()); });  // t == now
  sim.Run();
  EXPECT_EQ(fired_at,
            (std::vector<Nanos>{1'000'000, 2'000'000, 10'000'000'000}));
  EXPECT_EQ(sim.now(), 10'000'000'000);
}

// Interleaved RunUntil windows and external schedules against the reference
// heap, asserting the clock never goes backwards.
TEST(CalendarQueue, RepeatedRunUntilWithExternalSchedulesStaysMonotonic) {
  for (uint64_t seed = 1; seed <= 10; seed++) {
    Simulator sim;
    ReferenceSim ref;
    Rng rng(seed);
    std::vector<TraceEntry> got, want;
    Nanos last = 0;
    uint64_t next_id = 0;
    for (int round = 0; round < 50; round++) {
      // A mix of near and far events, some beyond the RunUntil horizon so
      // survivors are always pending when the next round schedules.
      const int n = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < n; i++) {
        const Nanos t = sim.now() + rng.Uniform(20'000'000);
        const uint64_t id = next_id++;
        sim.At(t, [&got, &sim, &last, id] {
          ASSERT_GE(sim.now(), last);
          last = sim.now();
          got.push_back({id, sim.now()});
        });
        ref.At(t, [&want, &ref, id] { want.push_back({id, ref.now()}); });
      }
      const Nanos until = sim.now() + rng.Uniform(5'000'000);
      sim.RunUntil(until);
      ref.RunUntil(until);
      ASSERT_EQ(sim.now(), ref.now()) << "seed " << seed;
    }
    sim.Run();
    ref.Run();
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

TEST(CalendarQueue, RunUntilThenScheduleSkipsAhead) {
  Simulator sim;
  std::vector<int> order;
  // Advance the clock far past the initial near window with nothing queued,
  // then schedule around the new now.
  sim.RunUntil(10'000'000'000);
  EXPECT_EQ(sim.now(), 10'000'000'000);
  sim.After(5, [&] { order.push_back(1); });
  sim.After(0, [&] { order.push_back(0); });
  sim.After(20'000'000'000, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 30'000'000'000);
}

}  // namespace
}  // namespace lsvd
