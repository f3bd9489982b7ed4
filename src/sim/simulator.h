// Discrete-event simulation engine.
//
// Everything time-dependent in this repository (SSD service times, backend
// disk seeks, network transfers, CPU overheads) runs on this engine's virtual
// clock, so benchmark results are deterministic and hardware-independent: a
// "throughput" number is bytes moved per *virtual* second.
//
// The engine is the innermost loop of every bench, so it is built for
// wall-clock speed without changing any virtual-time result:
//  - Callbacks are InlineFn<void(), 64>, so typical lambdas (a `this`
//    pointer plus a few scalars, or a shared_ptr and a slot index) need no
//    allocation. Each pending callback sits in a slot of one Slab, whose
//    fixed 1024-slot chunks never move: a callback moves once into its slot
//    and once out to run, however many events are pending. The queues below
//    hold only 24-byte (time, seq, slot) keys, so heap sifts copy plain
//    structs.
//  - The keys sit in a two-level calendar. The near ring has 1024 day
//    buckets of 4.096 us, covering the current aligned 4.19 ms block; each
//    bucket is a small binary min-heap. The coarse ring has 1024 unsorted
//    key vectors, one per later block (a ~4.3 s horizon). Keys beyond that
//    wait in a small overflow heap. Entering a block drains its coarse
//    bucket into the near heaps and pulls the overflow keys that the
//    advanced horizon now covers into the coarse ring. A deep backlog
//    (hundreds of thousands of events seconds ahead) therefore costs one
//    vector append per event instead of sifts through one giant heap.
//
// Ordering is exactly (timestamp, FIFO sequence) — identical to the
// reference binary heap (see tests/calendar_queue_test.cc), which is what
// keeps every figure bit-identical across engine changes.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/inline_fn.h"
#include "src/util/slab.h"
#include "src/util/units.h"

namespace lsvd {

class Simulator {
 public:
  using Fn = InlineFn<void(), 64>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Nanos now() const { return now_; }

  // Schedules `fn` at absolute virtual time `t` (>= now).
  void At(Nanos t, Fn fn);

  // Schedules `fn` `dt` nanoseconds from now.
  void After(Nanos dt, Fn fn) { At(now_ + dt, std::move(fn)); }

  // Runs one event; returns false if the queue is empty.
  bool Step() { return RunNext(kNoEventTime); }

  // Runs events until the queue is empty.
  void Run();

  // Runs events with timestamps <= `t`, then sets the clock to `t`.
  // Returns the number of events processed.
  uint64_t RunUntil(Nanos t);

  // Sentinel returned by next_event_time() when the queue is empty.
  static constexpr Nanos kNoEventTime = INT64_MAX;

  // Timestamp of the earliest pending event, or kNoEventTime when empty.
  // Exact and const: the parallel coordinator sizes its windows with it, so
  // a later answer would let a window skip an event that is due.
  Nanos next_event_time() const;

  // Runs events with timestamps strictly below `limit` and leaves the clock
  // at the last executed event (it does NOT advance to `limit`). This is the
  // window-execution primitive of the parallel engine (sim_domain.h): events
  // scheduled at exactly `limit` may still race with cross-domain messages
  // delivered at `limit`, so they belong to the next window.
  // Returns the number of events processed.
  uint64_t RunBefore(Nanos limit);

  // Advances the clock to `t` without running anything. Precondition: no
  // pending event is earlier than `t`. The parallel coordinator uses this to
  // line up quiesced domains before a barrier task so every domain observes
  // the same now().
  void AdvanceTo(Nanos t);

  bool empty() const { return size_ == 0; }
  size_t pending_events() const { return size_; }

  // Total events executed over the simulator's lifetime (perf harness).
  uint64_t events_processed() const { return processed_; }

 private:
  // What the calendar orders: the callback itself stays in slab_[slot].
  struct Key {
    Nanos t;
    uint64_t seq;  // FIFO tie-break for equal timestamps
    uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) {
        return a.t > b.t;
      }
      return a.seq > b.seq;
    }
  };

  // Calendar geometry: a day is 2^12 ns, a block 1024 days (2^22 ns).
  static constexpr int kDayShift = 12;
  static constexpr int kBlockShift = 22;
  static constexpr uint64_t kRing = 1024;  // buckets per ring (both levels)
  static constexpr uint64_t kRingMask = kRing - 1;
  static constexpr size_t kWords = kRing / 64;

  using Bitmap = std::array<uint64_t, kWords>;

  static uint64_t BlockOf(Nanos t) {
    return static_cast<uint64_t>(t) >> kBlockShift;
  }
  static uint64_t DaySlot(Nanos t) {
    return (static_cast<uint64_t>(t) >> kDayShift) & kRingMask;
  }
  static void Mark(Bitmap* bits, uint64_t i) {
    (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
  }
  static void Unmark(Bitmap* bits, uint64_t i) {
    (*bits)[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  // Files `key` into the near ring, the coarse ring or the overflow heap by
  // its block relative to cur_block_.
  void Insert(const Key& key);

  // Index of the first occupied near bucket. Precondition: near_size_ > 0.
  uint64_t FirstNearSlot() const;

  // Blocks from cur_block_ + 1 to the first occupied coarse bucket.
  // Precondition: coarse_size_ > 0.
  uint64_t CoarseDistance() const;

  // Block holding the earliest pending event and that event's time, when
  // the near ring is empty. Precondition: size_ > 0, near_size_ == 0.
  void NextBlock(uint64_t* block, Nanos* t) const;

  // Makes `block` the current block: drains its coarse bucket into the near
  // heaps and pulls overflow keys inside the new horizon into the coarse
  // ring. Precondition: near ring empty and no pending event before `block`.
  void EnterBlock(uint64_t block);

  // Pops and runs the earliest event if its time is <= `last`.
  //
  // The block only advances here, for an event that is about to run, so
  // now() catches up with it at once. Advancing it for an event left
  // pending would file a later At() with an earlier time behind the ring.
  bool RunNext(Nanos last);

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  uint64_t processed_ = 0;

  // Callback slab: slab_[k.slot] holds the callback of pending key k.
  Slab<Fn> slab_;

  // Invariants: cur_block_ <= BlockOf(now_); every near key lies in
  // cur_block_, every coarse key in (cur_block_, cur_block_ + kRing), every
  // overflow key at or beyond cur_block_ + kRing. So the near ring holds the
  // minimum when occupied, then the first occupied coarse bucket, then the
  // overflow heap.
  uint64_t cur_block_ = 0;
  size_t near_size_ = 0;
  size_t coarse_size_ = 0;
  std::array<std::vector<Key>, kRing> near_;    // per-day min-heaps
  std::array<std::vector<Key>, kRing> coarse_;  // per-block, unsorted
  std::array<Nanos, kRing> coarse_min_{};       // earliest t per coarse bucket
  Bitmap near_bits_{};
  Bitmap coarse_bits_{};
  std::vector<Key> overflow_;  // min-heap beyond the coarse horizon
};

}  // namespace lsvd

#endif  // SRC_SIM_SIMULATOR_H_
