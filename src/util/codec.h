// Little-endian wire codec helpers for on-disk / on-object metadata.
#ifndef SRC_UTIL_CODEC_H_
#define SRC_UTIL_CODEC_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace lsvd {

// Puts write each field in place through a pointer into the output.
// An encoder that knows its final size calls Reserve with it once; its puts
// then never reallocate the output. Reserved bytes are not zero-filled:
// a put zeroes at most 4 KiB ahead of itself before writing it, and
// PutBytes copies a long run straight into the reserved space.
class Encoder {
 public:
  void PutU8(uint8_t v) { *Claim(1) = v; }
  void PutU32(uint32_t v) { StoreLe(Claim(4), v); }
  void PutU64(uint64_t v) { StoreLe(Claim(8), v); }
  void PutBytes(std::span<const uint8_t> bytes) {
    // Fill the zeroed bytes past the position, then append the rest.
    const size_t in_place = std::min(bytes.size(), out_.size() - pos_);
    if (in_place > 0) {
      std::memcpy(out_.data() + pos_, bytes.data(), in_place);
    }
    out_.insert(out_.end(), bytes.begin() + in_place, bytes.end());
    pos_ += bytes.size();
  }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
  // Zero-pads to a multiple of `align`.
  void PadTo(size_t align) {
    Claim((pos_ + align - 1) / align * align - pos_);
  }
  // Makes room for `n` bytes in all without writing them, so puts up to
  // that size never reallocate.
  void Reserve(size_t n) { out_.reserve(n); }
  // Drops the first `n` bytes and moves the rest to the front. The output
  // keeps its capacity, so puts after this do not reallocate it.
  void DropFront(size_t n) {
    std::memmove(out_.data(), out_.data() + n, pos_ - n);
    pos_ -= n;
    out_.resize(pos_);
  }
  // Overwrites 4 bytes at `pos` (for CRC backpatching).
  void PatchU32(size_t pos, uint32_t v) { StoreLe(out_.data() + pos, v); }

  size_t size() const { return pos_; }
  std::span<const uint8_t> bytes() const { return {out_.data(), pos_}; }
  std::vector<uint8_t> Take() {
    out_.resize(pos_);
    pos_ = 0;
    return std::move(out_);
  }

 private:
  // Advances the write position by `n` bytes and returns where they start.
  // The output's bytes past the position are always zero (resize
  // zero-fills, puts only write below the position and DropFront cuts the
  // output at it), which is what PadTo relies on. Growing zero-fills up to
  // kZeroAhead bytes ahead within the capacity, so a run of small puts pays
  // one resize per 4 KiB (a journal or object header, one) while the bytes
  // it zeroes are still in cache when the puts overwrite them.
  uint8_t* Claim(size_t n) {
    if (pos_ + n > out_.size()) {
      out_.resize(std::max(pos_ + n,
                           std::min(out_.capacity(), pos_ + kZeroAhead)));
    }
    uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }
  static constexpr size_t kZeroAhead = 4096;
  template <typename T>
  static void StoreLe(uint8_t* p, T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); i++) {
        p[i] = static_cast<uint8_t>(v >> (8 * i));
      }
    }
  }

  std::vector<uint8_t> out_;
  size_t pos_ = 0;
};

class Decoder {
 public:
  explicit Decoder(std::span<const uint8_t> in) : in_(in) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return in_.size() - pos_; }
  size_t position() const { return pos_; }

  uint8_t GetU8() {
    if (!Need(1)) {
      return 0;
    }
    return in_[pos_++];
  }
  uint32_t GetU32() {
    if (!Need(4)) {
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; i++) {
      v |= static_cast<uint32_t>(in_[pos_++]) << (8 * i);
    }
    return v;
  }
  uint64_t GetU64() {
    if (!Need(8)) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; i++) {
      v |= static_cast<uint64_t>(in_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::string GetString() {
    const uint32_t n = GetU32();
    if (!Need(n)) {
      return "";
    }
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  void Skip(size_t n) {
    if (Need(n)) {
      pos_ += n;
    }
  }

 private:
  bool Need(size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace lsvd

#endif  // SRC_UTIL_CODEC_H_
