#include "src/blockdev/block_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <utility>

namespace lsvd {

void BlockStore::Write(uint64_t offset, const Buffer& data) {
  assert(offset % kBlockSize == 0 && data.size() % kBlockSize == 0);
  // One pass over the chunks, assembling one block at a time: `cur` holds
  // the block's single data piece until a second piece lands in the same
  // block, which moves both into `copy`.
  uint64_t block = offset / kBlockSize;
  uint64_t filled = 0;  // bytes of `block` assembled so far
  Entry cur;
  std::shared_ptr<std::vector<uint8_t>> copy;
  const auto finish_block = [&] {
    if (copy != nullptr) {
      cur = Entry{std::move(copy), 0, 0, static_cast<uint16_t>(kBlockSize)};
    }
    Set(block++, std::move(cur));
    cur = Entry{};
    filled = 0;
  };
  data.ForEachChunk([&](const auto& bytes, uint64_t from, uint64_t n) {
    if (bytes == nullptr) {
      if (filled > 0) {  // the zero tail of a partly assembled block
        const uint64_t take = std::min(n, kBlockSize - filled);
        filled += take;
        n -= take;
        if (filled < kBlockSize) {
          return;
        }
        finish_block();
      }
      const uint64_t whole = n / kBlockSize;
      ClearBlocks(block, whole);
      block += whole;
      filled = n % kBlockSize;  // the zero head of the next block
      return;
    }
    while (n > 0) {
      const uint64_t take = std::min(n, kBlockSize - filled);
      if (copy != nullptr) {
        std::memcpy(copy->data() + filled, bytes->data() + from, take);
      } else if (cur.data == nullptr) {
        assert(from <= std::numeric_limits<uint32_t>::max());
        cur = Entry{bytes, static_cast<uint32_t>(from),
                    static_cast<uint16_t>(filled), static_cast<uint16_t>(take)};
      } else {
        copy = std::make_shared<std::vector<uint8_t>>(kBlockSize);
        std::memcpy(copy->data() + cur.at, cur.data->data() + cur.offset,
                    cur.len);
        std::memcpy(copy->data() + filled, bytes->data() + from, take);
      }
      filled += take;
      from += take;
      n -= take;
      if (filled == kBlockSize) {
        finish_block();
      }
    }
  });
  assert(filled == 0);
}

Buffer BlockStore::Read(uint64_t offset, uint64_t len) const {
  Buffer out;
  const uint64_t end = (offset + len) / kBlockSize;
  for (uint64_t block = offset / kBlockSize; block < end; block++) {
    const Entry* e = Find(block);
    if (e == nullptr || e->data == nullptr) {
      out.AppendZeros(kBlockSize);
      continue;
    }
    out.AppendZeros(e->at);
    out.AppendShared(e->data, e->offset, e->len);
    out.AppendZeros(kBlockSize - e->at - e->len);
  }
  return out;
}

void BlockStore::CopyFrom(const BlockStore& from, uint64_t offset,
                          uint64_t len) {
  const uint64_t end = (offset + len) / kBlockSize;
  for (uint64_t block = offset / kBlockSize; block < end; block++) {
    const Entry* e = from.Find(block);
    Set(block, e != nullptr ? *e : Entry{});
  }
}

const BlockStore::Entry* BlockStore::Find(uint64_t block) const {
  const uint64_t page = block / kPageBlocks;
  if (page >= pages_.size() || pages_[page] == nullptr) {
    return nullptr;
  }
  return &(*pages_[page])[block % kPageBlocks];
}

void BlockStore::Set(uint64_t block, Entry entry) {
  if (entry.data == nullptr) {
    ClearBlocks(block, 1);
    return;
  }
  const uint64_t page = block / kPageBlocks;
  if (page >= pages_.size()) {
    pages_.resize(page + 1);
  }
  if (pages_[page] == nullptr) {
    pages_[page] = std::make_unique<Page>();
  }
  (*pages_[page])[block % kPageBlocks] = std::move(entry);
}

void BlockStore::ClearBlocks(uint64_t first, uint64_t count) {
  while (count > 0) {
    const uint64_t page = first / kPageBlocks;
    const uint64_t slot = first % kPageBlocks;
    const uint64_t n = std::min(count, kPageBlocks - slot);
    if (page < pages_.size() && pages_[page] != nullptr) {
      if (n == kPageBlocks) {
        pages_[page].reset();
      } else {
        std::fill_n(pages_[page]->begin() + slot, n, Entry{});
      }
    }
    first += n;
    count -= n;
  }
}

}  // namespace lsvd
