// Asynchronous block device interface.
//
// All LSVD cache components and the baselines are written against this
// interface. Offsets and lengths must be multiples of kBlockSize (4 KiB,
// matching the paper's cache log alignment).
//
// Durability contract (same as a real disk/SSD with a volatile write cache,
// §2.2 of the paper): a completed Write is *not* durable until a subsequent
// Flush completes. A power failure loses completed-but-unflushed writes.
#ifndef SRC_BLOCKDEV_BLOCK_DEVICE_H_
#define SRC_BLOCKDEV_BLOCK_DEVICE_H_

#include <cstdint>

#include "src/util/buffer.h"
#include "src/util/inline_fn.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace lsvd {

inline constexpr uint64_t kBlockSize = 4 * kKiB;

class BlockDevice {
 public:
  // Move-only callbacks that hold a capture of up to 64 bytes without
  // allocating (src/util/inline_fn.h).
  using WriteCallback = InlineFn<void(Status), 64>;
  using ReadCallback = InlineFn<void(Result<Buffer>), 64>;

  virtual ~BlockDevice() = default;

  virtual uint64_t capacity() const = 0;

  // Writes `data` at `offset`; `done` fires when the device acknowledges
  // (data is in the device's volatile cache).
  virtual void Write(uint64_t offset, Buffer data, WriteCallback done) = 0;

  // Reads `len` bytes at `offset`.
  virtual void Read(uint64_t offset, uint64_t len, ReadCallback done) = 0;

  // Commit barrier: when `done` fires, every previously completed write is
  // durable.
  virtual void Flush(WriteCallback done) = 0;
};

}  // namespace lsvd

#endif  // SRC_BLOCKDEV_BLOCK_DEVICE_H_
