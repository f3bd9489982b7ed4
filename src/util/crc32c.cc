#include "src/util/crc32c.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define LSVD_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define LSVD_CRC32C_ARM 1
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace lsvd {
namespace {

// Generates the 8 slicing tables at static-initialization time.
struct Tables {
  uint32_t t[8][256];

  Tables() {
    constexpr uint32_t kPoly = 0x82F63B78;  // reflected 0x1EDC6F41
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

// Extend-by-zeros support. Feeding one zero byte advances the (inverted)
// CRC register by the GF(2)-linear map s -> (s >> 8) ^ T0[s & 0xff], so a
// run of n zero bytes applies that matrix to the n-th power. Precomputing
// the 64 repeated squarings M^(2^k) lets any n be applied as O(popcount(n))
// 32x32 bit-matrix multiplies — independent of which byte-level
// implementation (hardware or software) produced `crc`.
struct ZeroMatrices {
  // mat[k][j] = column j of M^(2^k), i.e. the image of basis state 1<<j.
  uint32_t mat[64][32];

  ZeroMatrices() {
    const auto& tb = GetTables();
    for (uint32_t j = 0; j < 32; j++) {
      const uint32_t s = uint32_t{1} << j;
      mat[0][j] = (s >> 8) ^ tb.t[0][s & 0xFF];
    }
    for (int k = 1; k < 64; k++) {
      for (uint32_t j = 0; j < 32; j++) {
        mat[k][j] = Apply(mat[k - 1], mat[k - 1][j]);
      }
    }
  }

  static uint32_t Apply(const uint32_t (&m)[32], uint32_t s) {
    uint32_t r = 0;
    while (s != 0) {
      r ^= m[std::countr_zero(s)];
      s &= s - 1;
    }
    return r;
  }
};

const ZeroMatrices& GetZeroMatrices() {
  static const ZeroMatrices zm;
  return zm;
}

#if defined(LSVD_CRC32C_X86)

__attribute__((target("sse4.2")))
uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // Head: bring the pointer to 8-byte alignment.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    n--;
  }
  // Body: 8 bytes per instruction, unrolled 4x to keep the three-cycle
  // crc32 latency chains overlapped with loads.
  uint64_t crc64 = crc;
  while (n >= 32) {
    uint64_t a;
    uint64_t b;
    uint64_t c;
    uint64_t d;
    std::memcpy(&a, p, 8);
    std::memcpy(&b, p + 8, 8);
    std::memcpy(&c, p + 16, 8);
    std::memcpy(&d, p + 24, 8);
    crc64 = _mm_crc32_u64(crc64, a);
    crc64 = _mm_crc32_u64(crc64, b);
    crc64 = _mm_crc32_u64(crc64, c);
    crc64 = _mm_crc32_u64(crc64, d);
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (n-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return ~crc;
}

bool HardwareSupported() { return __builtin_cpu_supports("sse4.2") != 0; }
constexpr const char* kHardwareName = "sse4.2";

#elif defined(LSVD_CRC32C_ARM)

uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = __crc32cb(crc, *p++);
    n--;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = __crc32cd(crc, word);
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = __crc32cb(crc, *p++);
  }
  return ~crc;
}

bool HardwareSupported() {
#if defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  return true;  // compiled with +crc, assume the target has it
#endif
}
constexpr const char* kHardwareName = "armv8";

#endif

struct Dispatch {
  internal::Crc32cFn fn;
  const char* name;
};

Dispatch PickImpl() {
#if defined(LSVD_CRC32C_X86) || defined(LSVD_CRC32C_ARM)
  if (HardwareSupported()) {
    return {&ExtendHardware, kHardwareName};
  }
#endif
  return {&internal::Crc32cExtendSoftware, "software"};
}

const Dispatch& GetDispatch() {
  static const Dispatch dispatch = PickImpl();
  return dispatch;
}

}  // namespace

namespace internal {

uint32_t Crc32cExtendSoftware(uint32_t crc, const void* data, size_t n) {
  const auto& tb = GetTables();
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // Process 8 bytes at a time with slicing-by-8.
  while (n >= 8) {
    uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                         (static_cast<uint32_t>(p[1]) << 8) |
                         (static_cast<uint32_t>(p[2]) << 16) |
                         (static_cast<uint32_t>(p[3]) << 24));
    crc = tb.t[7][lo & 0xFF] ^ tb.t[6][(lo >> 8) & 0xFF] ^
          tb.t[5][(lo >> 16) & 0xFF] ^ tb.t[4][lo >> 24] ^ tb.t[3][p[4]] ^
          tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

Crc32cFn Crc32cHardwareImpl() {
#if defined(LSVD_CRC32C_X86) || defined(LSVD_CRC32C_ARM)
  if (HardwareSupported()) {
    return &ExtendHardware;
  }
#endif
  return nullptr;
}

}  // namespace internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return GetDispatch().fn(crc, data, n);
}

uint32_t Crc32cExtendZeros(uint32_t crc, uint64_t n) {
  if (n == 0) {
    return crc;
  }
  // The composed operator M^n of the last few n, so a repeated length (a
  // journal header's zero tail, a record payload) costs one 32-column
  // application instead of one per set bit of n. Direct-mapped by a hash of
  // n; thread-local, so threads share nothing. n == 0 marks an empty slot.
  struct Composed {
    uint64_t n;
    uint32_t mat[32];
  };
  static constexpr int kSlotBits = 7;
  thread_local Composed cache[1 << kSlotBits];
  Composed& slot = cache[(n * 0x9E3779B97F4A7C15ULL) >> (64 - kSlotBits)];
  if (slot.n != n) {
    const auto& zm = GetZeroMatrices();
    for (uint32_t j = 0; j < 32; j++) {
      uint32_t s = uint32_t{1} << j;
      uint64_t left = n;
      for (int k = 0; left != 0; left >>= 1, k++) {
        if (left & 1) {
          s = ZeroMatrices::Apply(zm.mat[k], s);
        }
      }
      slot.mat[j] = s;
    }
    slot.n = n;
  }
  return ~ZeroMatrices::Apply(slot.mat, ~crc);
}

const char* Crc32cImplName() { return GetDispatch().name; }

}  // namespace lsvd
