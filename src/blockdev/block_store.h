// BlockStore: the contents of a simulated block device, block by block.
//
// A paged table of per-4-KiB entries. Each entry references one byte range
// of a shared Buffer chunk (the rest of the block is zero), so storing a
// write copies no bytes: an encoded journal header, a checkpoint blob
// spanning many blocks, or a short stamped chunk followed by a zero tail are
// all kept by reference. Zero blocks store nothing, and a page of the table
// is allocated only when a non-zero block lands in it. Only a block that
// holds pieces of two data chunks is copied, into a block of its own.
//
// Both SimSsd (its current and its durable contents) and the RBD baseline's
// image keep their data here.
#ifndef SRC_BLOCKDEV_BLOCK_STORE_H_
#define SRC_BLOCKDEV_BLOCK_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/util/buffer.h"

namespace lsvd {

class BlockStore {
 public:
  // Stores `data` at `offset`; both are multiples of kBlockSize.
  void Write(uint64_t offset, const Buffer& data);
  // Returns [offset, offset+len); blocks never written read as zeros.
  Buffer Read(uint64_t offset, uint64_t len) const;
  // Makes [offset, offset+len) hold what `from` holds there.
  void CopyFrom(const BlockStore& from, uint64_t offset, uint64_t len);
  // Forgets every block.
  void Clear() { pages_.clear(); }

 private:
  // Bytes [offset, offset+len) of *data sit at byte `at` of the block; the
  // rest of the block is zero. A null `data` is an all-zero block.
  struct Entry {
    std::shared_ptr<const std::vector<uint8_t>> data;
    uint32_t offset = 0;
    uint16_t at = 0;
    uint16_t len = 0;
  };
  static constexpr uint64_t kPageBlocks = 256;
  using Page = std::array<Entry, kPageBlocks>;

  // The entry of `block`, or null if its page was never allocated.
  const Entry* Find(uint64_t block) const;
  void Set(uint64_t block, Entry entry);
  // Resets blocks [first, first+count) to zero without allocating pages.
  void ClearBlocks(uint64_t first, uint64_t count);

  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace lsvd

#endif  // SRC_BLOCKDEV_BLOCK_STORE_H_
