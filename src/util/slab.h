// Slab<T>: objects addressed by a 32-bit slot, for state that waits on a
// callback (a pending event, an SSD request in service) so that the
// callback itself need only capture the slot number.
//
// Slots live in fixed chunks of `kChunkSlots` that are never moved or
// freed while the slab lives: growing the slab adds a chunk, so a stored
// object stays where it was put, and a reference to it stays valid while
// other slots are filled. Freed slots are reused last-freed first.
#ifndef SRC_UTIL_SLAB_H_
#define SRC_UTIL_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace lsvd {

template <typename T, size_t kChunkSlots = 1024>
class Slab {
  static_assert((kChunkSlots & (kChunkSlots - 1)) == 0,
                "chunk size must be a power of two");

 public:
  // Takes a free slot, whose object is T{}, for the caller to fill in
  // place.
  uint32_t Alloc() {
    if (!free_.empty()) {
      const uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    const auto slot = static_cast<uint32_t>(used_++);
    if (slot / kChunkSlots == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSlots));
    }
    return slot;
  }

  // Moves `value` into a free slot and returns that slot.
  template <typename U>
  uint32_t Put(U&& value) {
    const uint32_t slot = Alloc();
    (*this)[slot] = std::forward<U>(value);
    return slot;
  }

  T& operator[](uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  // Resets the slot's object to T{} and makes the slot reusable.
  void Free(uint32_t slot) {
    (*this)[slot] = T{};
    free_.push_back(slot);
  }

  // Slots taken and not yet freed.
  size_t live() const { return used_ - free_.size(); }

  // Moves the object out and frees its slot.
  T Take(uint32_t slot) {
    T value = std::move((*this)[slot]);
    Free(slot);
    return value;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<uint32_t> free_;
  size_t used_ = 0;  // slots ever handed out: [0, used_) exist
};

}  // namespace lsvd

#endif  // SRC_UTIL_SLAB_H_
