// Buffer: an immutable rope of byte chunks, where a chunk is either real
// bytes or a zero run.
//
// The simulation is data-bearing (journal headers, object headers, and
// filesystem metadata are real bytes protected by real CRCs), but bulk
// workload payloads are zero-filled. Representing zero runs symbolically
// keeps an 80 GiB preconditioned volume at a few kilobytes of memory while
// preserving exact length/offset semantics end to end.
//
// Representation: the chunk vector covers bytes [0, data_end) and its last
// chunk always holds data; every byte from data_end to size() is an implicit
// zero. An all-zero buffer is therefore its size alone, with no chunk
// vector, and a short data chunk followed by zeros (a journal header block,
// a stamped block) is one chunk. Zeros, copies, Slice, Append of zeros,
// CopyTo, Crc and ForEachChunk of an all-zero buffer touch no heap. Each
// chunk records where it ends in the buffer, so Slice and CopyTo find their
// first chunk by binary search.
//
// sizeof(Buffer) stays 32 bytes (the chunk vector and the size): buffers
// are copied and moved through every callback and queue on the write path,
// and an inline first chunk that doubled it cost more than it saved.
#ifndef SRC_UTIL_BUFFER_H_
#define SRC_UTIL_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace lsvd {

class Buffer {
 public:
  Buffer() = default;

  static Buffer Zeros(uint64_t n) {
    Buffer b;
    b.size_ = n;
    return b;
  }
  static Buffer FromBytes(std::span<const uint8_t> bytes) {
    Buffer b;
    b.AppendBytes(bytes);
    return b;
  }
  static Buffer FromString(const std::string& s) {
    return FromBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Appends a copy of `bytes`. All-zero inputs are stored as a zero run.
  void AppendBytes(std::span<const uint8_t> bytes);
  // Appends bytes [offset, offset+len) of `bytes` by sharing its backing
  // storage instead of copying it. Adjacent ranges of one vector merge into
  // a single chunk, so a range split block by block re-assembles whole.
  // The range is not scanned: it stays a data chunk even if its bytes are
  // zero.
  void AppendShared(std::shared_ptr<const std::vector<uint8_t>> bytes,
                    uint64_t offset, uint64_t len);
  void AppendZeros(uint64_t n) { size_ += n; }
  // Appends another buffer (chunks are shared, O(chunks)).
  void Append(const Buffer& other);

  // True if the buffer holds no data chunk. A data chunk counts as non-zero
  // even when its bytes happen to be zero (a slice or a shared range of a
  // larger vector), so false means "may hold non-zero bytes".
  bool IsAllZeros() const { return chunks_.empty(); }

  // Copies [offset, offset+out.size()) into `out`. Asserts in range.
  void CopyTo(uint64_t offset, std::span<uint8_t> out) const;

  // Sub-range view; shares chunk storage.
  Buffer Slice(uint64_t offset, uint64_t len) const;

  // Calls fn(data, data_offset, n) for each chunk in order. `data` is null
  // (and data_offset 0) for a zero run; otherwise the chunk is bytes
  // [data_offset, data_offset+n) of *data, which the callee may keep a
  // reference to. Visit a sub-range through Slice.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    uint64_t pos = 0;
    for (const Chunk& c : chunks_) {
      fn(c.data, c.offset, c.end - pos);
      pos = c.end;
    }
    if (pos < size_) {
      const std::shared_ptr<const std::vector<uint8_t>> zeros;
      fn(zeros, uint64_t{0}, size_ - pos);
    }
  }

  // Materializes the whole buffer (tests / codec paths on small data only).
  std::vector<uint8_t> ToBytes() const;

  // CRC32C over the full contents, computed without materializing zero runs.
  uint32_t Crc() const;

  friend bool operator==(const Buffer& a, const Buffer& b);

 private:
  struct Chunk {
    std::shared_ptr<const std::vector<uint8_t>> data;  // null => zero run
    uint64_t offset = 0;  // into *data (unused for zero runs)
    uint64_t end = 0;     // buffer offset just past the chunk
  };

  uint64_t ChunkStart(size_t i) const {
    return i == 0 ? 0 : chunks_[i - 1].end;
  }
  // Index of the first chunk ending past `pos` (chunks_.size() if none).
  size_t ChunkAt(uint64_t pos) const;
  // Appends a data chunk at size(), after an explicit zero run for any
  // implicit zeros before it. It merges into the last chunk when both
  // reference contiguous ranges of the same vector (common when a sliced
  // buffer is re-assembled piecewise, e.g. batch encode and journal replay).
  void AppendData(std::shared_ptr<const std::vector<uint8_t>> data,
                  uint64_t offset, uint64_t len);
  // Calls fn(chunk, data_offset, n) for the pieces of [offset, offset+len)
  // in order; `chunk` is null for zeros, else the piece is bytes
  // [data_offset, data_offset+n) of *chunk->data.
  template <typename Fn>
  void VisitRange(uint64_t offset, uint64_t len, Fn&& fn) const;

  std::vector<Chunk> chunks_;
  uint64_t size_ = 0;
};

static_assert(sizeof(Buffer) == 32, "Buffer is a chunk vector and a size");

}  // namespace lsvd

#endif  // SRC_UTIL_BUFFER_H_
