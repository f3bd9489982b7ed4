#include "src/util/buffer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/util/crc32c.h"

namespace lsvd {
namespace {

bool AllZero(std::span<const uint8_t> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](uint8_t b) { return b == 0; });
}

}  // namespace

void Buffer::AppendBytes(std::span<const uint8_t> bytes) {
  if (bytes.empty()) {
    return;
  }
  if (AllZero(bytes)) {
    AppendZeros(bytes.size());
    return;
  }
  auto data = std::make_shared<std::vector<uint8_t>>(bytes.begin(),
                                                     bytes.end());
  chunks_.push_back(Chunk{std::move(data), 0, bytes.size()});
  size_ += bytes.size();
}

void Buffer::AppendShared(std::shared_ptr<const std::vector<uint8_t>> bytes,
                          uint64_t offset, uint64_t len) {
  assert(bytes != nullptr && offset + len <= bytes->size());
  AppendChunk(Chunk{std::move(bytes), offset, len});
}

void Buffer::AppendZeros(uint64_t n) {
  if (n == 0) {
    return;
  }
  if (!chunks_.empty() && chunks_.back().data == nullptr) {
    chunks_.back().len += n;  // coalesce adjacent zero runs
  } else {
    chunks_.push_back(Chunk{nullptr, 0, n});
  }
  size_ += n;
}

void Buffer::AppendChunk(Chunk c) {
  if (c.len == 0) {
    return;
  }
  if (!chunks_.empty()) {
    Chunk& back = chunks_.back();
    const bool both_zero = back.data == nullptr && c.data == nullptr;
    const bool contiguous_data = back.data != nullptr &&
                                 back.data == c.data &&
                                 back.offset + back.len == c.offset;
    if (both_zero || contiguous_data) {
      back.len += c.len;
      size_ += c.len;
      return;
    }
  }
  size_ += c.len;
  chunks_.push_back(std::move(c));
}

void Buffer::Append(const Buffer& other) {
  chunks_.reserve(chunks_.size() + other.chunks_.size());
  for (const auto& c : other.chunks_) {
    AppendChunk(c);
  }
}

bool Buffer::IsAllZeros() const {
  for (const auto& c : chunks_) {
    if (c.data != nullptr) {
      return false;
    }
  }
  return true;
}

void Buffer::CopyTo(uint64_t offset, std::span<uint8_t> out) const {
  assert(offset + out.size() <= size_);
  uint64_t pos = 0;       // start of current chunk within the buffer
  uint64_t written = 0;   // bytes already produced
  for (const auto& c : chunks_) {
    if (written == out.size()) {
      break;
    }
    const uint64_t chunk_end = pos + c.len;
    const uint64_t want_from = offset + written;
    if (chunk_end <= want_from) {
      pos = chunk_end;
      continue;
    }
    const uint64_t within = want_from - pos;
    const uint64_t n = std::min(c.len - within, out.size() - written);
    if (c.data == nullptr) {
      std::memset(out.data() + written, 0, n);
    } else {
      std::memcpy(out.data() + written, c.data->data() + c.offset + within, n);
    }
    written += n;
    pos = chunk_end;
  }
  assert(written == out.size());
}

Buffer Buffer::Slice(uint64_t offset, uint64_t len) const {
  assert(offset + len <= size_);
  Buffer out;
  out.chunks_.reserve(std::min<size_t>(chunks_.size(), 8));
  uint64_t pos = 0;
  for (const auto& c : chunks_) {
    if (out.size_ == len) {
      break;
    }
    const uint64_t chunk_end = pos + c.len;
    const uint64_t want_from = offset + out.size_;
    if (chunk_end <= want_from) {
      pos = chunk_end;
      continue;
    }
    const uint64_t within = want_from - pos;
    const uint64_t n = std::min(c.len - within, len - out.size_);
    out.AppendChunk(Chunk{c.data, c.data == nullptr ? 0 : c.offset + within, n});
    pos = chunk_end;
  }
  assert(out.size_ == len);
  return out;
}

std::vector<uint8_t> Buffer::ToBytes() const {
  std::vector<uint8_t> out(size_);
  if (size_ > 0) {
    CopyTo(0, out);
  }
  return out;
}

uint32_t Buffer::Crc() const {
  uint32_t crc = 0;
  for (const auto& c : chunks_) {
    if (c.data == nullptr) {
      // Zero runs stay symbolic: extend the CRC algebraically instead of
      // streaming materialized zero bytes through the byte engine.
      crc = Crc32cExtendZeros(crc, c.len);
    } else {
      crc = Crc32cExtend(crc, c.data->data() + c.offset, c.len);
    }
  }
  return crc;
}

bool operator==(const Buffer& a, const Buffer& b) {
  if (a.size_ != b.size_) {
    return false;
  }
  // Compare by materialized windows to keep memory bounded.
  constexpr uint64_t kWindow = 64 * 1024;
  std::vector<uint8_t> wa(kWindow);
  std::vector<uint8_t> wb(kWindow);
  for (uint64_t off = 0; off < a.size_; off += kWindow) {
    const uint64_t n = std::min(kWindow, a.size_ - off);
    a.CopyTo(off, {wa.data(), n});
    b.CopyTo(off, {wb.data(), n});
    if (std::memcmp(wa.data(), wb.data(), n) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace lsvd
