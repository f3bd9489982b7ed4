#include "src/util/buffer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/util/crc32c.h"

namespace lsvd {
namespace {

bool AllZero(const uint8_t* bytes, uint64_t n) {
  return std::all_of(bytes, bytes + n, [](uint8_t b) { return b == 0; });
}

}  // namespace

void Buffer::AppendBytes(std::span<const uint8_t> bytes) {
  if (AllZero(bytes.data(), bytes.size())) {
    AppendZeros(bytes.size());
    return;
  }
  AppendData(std::make_shared<std::vector<uint8_t>>(bytes.begin(),
                                                    bytes.end()),
             0, bytes.size());
}

void Buffer::AppendShared(std::shared_ptr<const std::vector<uint8_t>> bytes,
                          uint64_t offset, uint64_t len) {
  assert(bytes != nullptr && offset + len <= bytes->size());
  AppendData(std::move(bytes), offset, len);
}

void Buffer::AppendData(std::shared_ptr<const std::vector<uint8_t>> data,
                        uint64_t offset, uint64_t len) {
  if (len == 0) {
    return;
  }
  const uint64_t data_end = chunks_.empty() ? 0 : chunks_.back().end;
  if (data_end < size_) {
    chunks_.push_back(Chunk{nullptr, 0, size_});
  } else if (!chunks_.empty()) {
    Chunk& back = chunks_.back();
    const uint64_t back_len = back.end - ChunkStart(chunks_.size() - 1);
    if (back.data == data && back.offset + back_len == offset) {
      back.end += len;
      size_ += len;
      return;
    }
  }
  size_ += len;
  chunks_.push_back(Chunk{std::move(data), offset, size_});
}

void Buffer::Append(const Buffer& other) {
  assert(&other != this);
  // At most one explicit zero run joins other's chunks. Growth stays
  // geometric: a batch appended write by write must not reallocate per call.
  const size_t need = chunks_.size() + other.chunks_.size() + 1;
  if (!other.chunks_.empty() && need > chunks_.capacity()) {
    chunks_.reserve(std::max(need, 2 * chunks_.capacity()));
  }
  uint64_t pos = 0;
  for (const Chunk& c : other.chunks_) {
    if (c.data == nullptr) {
      AppendZeros(c.end - pos);
    } else {
      AppendData(c.data, c.offset, c.end - pos);
    }
    pos = c.end;
  }
  AppendZeros(other.size_ - pos);
}

size_t Buffer::ChunkAt(uint64_t pos) const {
  return static_cast<size_t>(
      std::upper_bound(chunks_.begin(), chunks_.end(), pos,
                       [](uint64_t p, const Chunk& c) { return p < c.end; }) -
      chunks_.begin());
}

template <typename Fn>
void Buffer::VisitRange(uint64_t offset, uint64_t len, Fn&& fn) const {
  assert(offset + len <= size_);
  const uint64_t stop = offset + len;
  uint64_t pos = offset;
  for (size_t i = ChunkAt(offset); i < chunks_.size() && pos < stop; i++) {
    const Chunk& c = chunks_[i];
    const uint64_t n = std::min(c.end, stop) - pos;
    if (c.data == nullptr) {
      fn(nullptr, uint64_t{0}, n);
    } else {
      fn(&c, c.offset + (pos - ChunkStart(i)), n);
    }
    pos += n;
  }
  if (pos < stop) {
    fn(nullptr, uint64_t{0}, stop - pos);  // the implicit zero tail
  }
}

void Buffer::CopyTo(uint64_t offset, std::span<uint8_t> out) const {
  uint8_t* dst = out.data();
  VisitRange(offset, out.size(), [&dst](const Chunk* c, uint64_t from,
                                        uint64_t n) {
    if (c == nullptr) {
      std::memset(dst, 0, n);
    } else {
      std::memcpy(dst, c->data->data() + from, n);
    }
    dst += n;
  });
}

Buffer Buffer::Slice(uint64_t offset, uint64_t len) const {
  Buffer out;
  if (len > 0) {
    // Chunks the range touches: a bound on the slice's own chunk count.
    const size_t first = ChunkAt(offset);
    const size_t touched =
        std::min(ChunkAt(offset + len - 1) + 1, chunks_.size()) - first;
    if (touched > 1) {
      out.chunks_.reserve(touched);
    }
  }
  VisitRange(offset, len, [&out](const Chunk* c, uint64_t from, uint64_t n) {
    if (c == nullptr) {
      out.AppendZeros(n);
    } else {
      out.AppendData(c->data, from, n);
    }
  });
  return out;
}

std::vector<uint8_t> Buffer::ToBytes() const {
  std::vector<uint8_t> out(size_);
  CopyTo(0, out);
  return out;
}

uint32_t Buffer::Crc() const {
  uint32_t crc = 0;
  VisitRange(0, size_, [&crc](const Chunk* c, uint64_t from, uint64_t n) {
    // Zero runs stay symbolic: extend the CRC algebraically instead of
    // streaming materialized zero bytes through the byte engine.
    crc = c == nullptr ? Crc32cExtendZeros(crc, n)
                       : Crc32cExtend(crc, c->data->data() + from, n);
  });
  return crc;
}

bool operator==(const Buffer& a, const Buffer& b) {
  if (a.size_ != b.size_) {
    return false;
  }
  // Walk a's pieces and compare each against the same range of b, piece by
  // piece; zero runs compare without materializing.
  bool equal = true;
  uint64_t pos = 0;
  a.VisitRange(0, a.size_, [&](const Buffer::Chunk* ca, uint64_t from_a,
                               uint64_t n) {
    if (equal) {
      const uint8_t* pa = ca == nullptr ? nullptr : ca->data->data() + from_a;
      b.VisitRange(pos, n, [&](const Buffer::Chunk* cb, uint64_t from_b,
                               uint64_t m) {
        const uint8_t* pb = cb == nullptr ? nullptr : cb->data->data() + from_b;
        if (pa != nullptr && pb != nullptr) {
          equal = equal && std::memcmp(pa, pb, m) == 0;
        } else if (pa != nullptr || pb != nullptr) {
          equal = equal && AllZero(pa != nullptr ? pa : pb, m);
        }
        if (pa != nullptr) {
          pa += m;
        }
      });
    }
    pos += n;
  });
  return equal;
}

}  // namespace lsvd
