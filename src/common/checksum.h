#ifndef VISTA_COMMON_CHECKSUM_H_
#define VISTA_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace vista {

/// CRC32C (Castagnoli, polynomial 0x1EDC6F41) over `size` bytes starting at
/// `data`. This is the checksum guarding every durable block and serialized
/// partition blob: unlike CRC32 (IEEE) it has a hardware instruction on
/// every x86-64-v2 machine, and unlike a simple sum it detects all 1- and
/// 2-bit errors and all burst errors up to 32 bits — the bit-rot and
/// torn-write shapes the integrity plane exists to catch.
///
/// Dispatch mirrors the GEMM micro-kernel's ISA pattern (tensor/gemm_kernel):
/// an SSE4.2 `crc32q` path selected once at runtime via CPU detection, with
/// a portable slice-by-8 table fallback for other compilers/architectures.
/// The hardware path runs at tens of GB/s, so verify-on-read is effectively
/// free next to decode and disk I/O.
uint32_t Crc32c(const void* data, size_t size);

/// Incremental form: extends `crc` (a previous Crc32c/Crc32cExtend result,
/// or 0 for an empty prefix) with `size` more bytes. Crc32cExtend(0, d, n)
/// == Crc32c(d, n), and checksumming a buffer in chunks gives the same
/// result as one shot.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

/// True when the SSE4.2 hardware path is in use (informational; exported so
/// tests can force-compare both paths and benches can report which ran).
bool Crc32cIsHardwareAccelerated();

/// Data-integrity counters read from the obs registry ("integrity.*"
/// instruments) into EngineStats, next to RecoveryStats.
/// The invariant the corruption-chaos suite pins: under injected faults,
/// checksum_failures equals the number of corrupt blocks read back, and
/// every failure either triggered a lineage recompute (recomputes_triggered)
/// or surfaced to the caller as kDataLoss — never a silent wrong result.
struct IntegrityStats {
  /// Blocks whose checksum was verified successfully on read.
  int64_t blocks_verified = 0;
  /// Verification failures of any kind (bit rot, torn write, stale block).
  int64_t checksum_failures = 0;
  /// The subset of failures that were truncated/half-written frames — a
  /// crash mid-write that the atomic-rename protocol should make
  /// impossible outside fault injection.
  int64_t torn_writes_detected = 0;
  /// Lineage recomputations triggered specifically by kDataLoss (corrupt
  /// data), as opposed to lost/unreadable blocks.
  int64_t recomputes_triggered = 0;
};

}  // namespace vista

#endif  // VISTA_COMMON_CHECKSUM_H_
