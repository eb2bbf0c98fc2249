#include "common/checksum.h"

#include <cstring>

namespace vista {
namespace {

/// CRC32C reflected polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table,
/// table[k] advances a byte that sits k positions deeper in the message.
/// Built once at first use (cheap: 8*256 iterations).
struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

/// Portable slice-by-8: consumes 8 bytes per iteration through the eight
/// tables, then finishes byte-at-a-time. `crc` is pre-inverted state.
uint32_t CrcSw(uint32_t crc, const uint8_t* p, size_t size) {
  const Tables& tb = tables();
  while (size >= 8) {
    uint32_t lo;
    std::memcpy(&lo, p, 4);
    lo ^= crc;
    uint32_t hi;
    std::memcpy(&hi, p + 4, 4);
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VISTA_CRC32C_HW 1

/// SSE4.2 path: one crc32q per 8 bytes. The target attribute scopes the
/// instruction to this function, keeping the binary portable to baseline
/// x86-64 — same pattern as the GEMM micro-kernel's ISA clones, with an
/// explicit one-time CPU check instead of an ifunc because the two bodies
/// differ (instruction vs tables).
__attribute__((target("sse4.2")))
uint32_t CrcHw(uint32_t crc, const uint8_t* p, size_t size) {
  uint64_t c = crc;
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c = __builtin_ia32_crc32di(c, chunk);
    p += 8;
    size -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (size-- > 0) {
    c32 = __builtin_ia32_crc32qi(c32, *p++);
  }
  return c32;
}

bool DetectHw() { return __builtin_cpu_supports("sse4.2"); }
#else
#define VISTA_CRC32C_HW 0
bool DetectHw() { return false; }
#endif

/// Resolved once; every call after the first is a direct indirect call.
using CrcFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

CrcFn ResolveCrcFn() {
#if VISTA_CRC32C_HW
  if (DetectHw()) return &CrcHw;
#endif
  return &CrcSw;
}

CrcFn crc_fn() {
  static const CrcFn kFn = ResolveCrcFn();
  return kFn;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
  return ~crc_fn()(~crc, static_cast<const uint8_t*>(data), size);
}

bool Crc32cIsHardwareAccelerated() {
#if VISTA_CRC32C_HW
  return DetectHw();
#else
  return false;
#endif
}

}  // namespace vista
