#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace lsvd {

void Simulator::At(Nanos t, Fn fn) {
  assert(t >= now_ && "cannot schedule events in the past");
  if (t < now_) {
    t = now_;  // release-mode safety: keep the ring invariants intact
  }
  Insert(Key{t, next_seq_++, slab_.Put(std::move(fn))});
  size_++;
}

void Simulator::Insert(const Key& key) {
  const uint64_t ahead = BlockOf(key.t) - cur_block_;  // >= 0: t >= now_
  if (ahead == 0) {
    const uint64_t slot = DaySlot(key.t);
    auto& bucket = near_[slot];
    bucket.push_back(key);
    std::push_heap(bucket.begin(), bucket.end(), Later{});
    Mark(&near_bits_, slot);
    near_size_++;
  } else if (ahead < kRing) {
    const uint64_t slot = (cur_block_ + ahead) & kRingMask;
    auto& bucket = coarse_[slot];
    if (bucket.empty()) {
      Mark(&coarse_bits_, slot);
      coarse_min_[slot] = key.t;
    } else {
      coarse_min_[slot] = std::min(coarse_min_[slot], key.t);
    }
    bucket.push_back(key);
    coarse_size_++;
  } else {
    overflow_.push_back(key);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

uint64_t Simulator::FirstNearSlot() const {
  assert(near_size_ > 0);
  // Days before now() in the current block are already drained.
  size_t w = BlockOf(now_) == cur_block_ ? DaySlot(now_) >> 6 : 0;
  for (; w < kWords; w++) {
    if (near_bits_[w] != 0) {
      return w * 64 + static_cast<uint64_t>(std::countr_zero(near_bits_[w]));
    }
  }
  assert(false && "no occupied near bucket despite near events");
  return 0;
}

uint64_t Simulator::CoarseDistance() const {
  assert(coarse_size_ > 0);
  const uint64_t start = (cur_block_ + 1) & kRingMask;
  size_t w = start >> 6;
  uint64_t word = coarse_bits_[w] & (~uint64_t{0} << (start & 63));
  // Unsigned wrap: distance of bit 0 of word w, which may precede `start`.
  uint64_t dist = uint64_t{0} - (start & 63);
  // Up to kWords + 1 words: the last re-reads the first word, whose low
  // bits map to the far end of the ring.
  for (size_t i = 0; word == 0; i++) {
    assert(i < kWords && "no occupied coarse bucket despite coarse events");
    dist += 64;
    w = (w + 1) & (kWords - 1);
    word = coarse_bits_[w];
  }
  return dist + static_cast<uint64_t>(std::countr_zero(word));
}

void Simulator::NextBlock(uint64_t* block, Nanos* t) const {
  assert(size_ > 0 && near_size_ == 0);
  if (coarse_size_ > 0) {
    *block = cur_block_ + 1 + CoarseDistance();
    *t = coarse_min_[*block & kRingMask];
  } else {
    *t = overflow_.front().t;
    *block = BlockOf(*t);
  }
}

void Simulator::EnterBlock(uint64_t block) {
  assert(near_size_ == 0 && block >= cur_block_);
  cur_block_ = block;
  // Coarse keys lie in (old cur_block_, old cur_block_ + kRing) and none
  // precedes `block`, so this bucket holds exactly `block`'s keys.
  const uint64_t slot = block & kRingMask;
  auto& bucket = coarse_[slot];
  if (!bucket.empty()) {
    coarse_size_ -= bucket.size();
    Unmark(&coarse_bits_, slot);
    for (const Key& key : bucket) {
      Insert(key);
    }
    bucket.clear();
  }
  while (!overflow_.empty() &&
         BlockOf(overflow_.front().t) - cur_block_ < kRing) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Key key = overflow_.back();
    overflow_.pop_back();
    Insert(key);
  }
}

bool Simulator::RunNext(Nanos last) {
  if (size_ == 0) {
    return false;
  }
  if (near_size_ == 0) {
    uint64_t block = 0;
    Nanos t = 0;
    NextBlock(&block, &t);
    if (t > last) {
      return false;
    }
    EnterBlock(block);
  }
  const uint64_t slot = FirstNearSlot();
  auto& bucket = near_[slot];
  const Key key = bucket.front();
  if (key.t > last) {
    return false;
  }
  std::pop_heap(bucket.begin(), bucket.end(), Later{});
  bucket.pop_back();
  if (bucket.empty()) {
    Unmark(&near_bits_, slot);
  }
  near_size_--;
  size_--;
  processed_++;
  // Moved out before running: the handler may schedule events, which can
  // reuse this slot.
  Fn fn = slab_.Take(key.slot);
  now_ = key.t;
  fn();
  return true;
}

Nanos Simulator::next_event_time() const {
  if (size_ == 0) {
    return kNoEventTime;
  }
  if (near_size_ > 0) {
    return near_[FirstNearSlot()].front().t;
  }
  uint64_t block = 0;
  Nanos t = 0;
  NextBlock(&block, &t);
  return t;
}

void Simulator::Run() {
  while (RunNext(kNoEventTime)) {
  }
}

uint64_t Simulator::RunUntil(Nanos t) {
  uint64_t processed = 0;
  while (RunNext(t)) {
    processed++;
  }
  if (now_ < t) {
    now_ = t;
  }
  return processed;
}

uint64_t Simulator::RunBefore(Nanos limit) {
  uint64_t processed = 0;
  if (limit <= 0) {
    return 0;  // event times are never negative
  }
  while (RunNext(limit - 1)) {
    processed++;
  }
  return processed;
}

void Simulator::AdvanceTo(Nanos t) {
  assert(next_event_time() >= t);
  if (now_ < t) {
    now_ = t;
  }
}

}  // namespace lsvd
