#ifndef VISTA_TENSOR_SCRATCH_H_
#define VISTA_TENSOR_SCRATCH_H_

#include <cstddef>
#include <cstdint>

namespace vista {

/// Reusable, cache-line-aligned scratch buffers for the tensor kernels.
///
/// A KernelScratch owns one growable buffer per slot (packed A panel,
/// packed B panel, ...). Acquire() returns a pointer with at least the
/// requested capacity, growing to exactly the request on miss and reusing
/// the existing allocation on hit. Slots never shrink, so a slot holds the
/// largest request it has seen, and a CNN forward pass performs a fixed
/// number of allocations on the first image (the warm-up) and zero on every
/// image after it. The alloc/reuse counters make that claim testable.
///
/// Thread-safety contract: a KernelScratch is single-threaded state. Kernels
/// never share one across threads; each thread uses its own arena via
/// ThreadLocal(). Buffers returned by Acquire() stay valid until the next
/// Acquire() of the *same* slot (a grow may reallocate), so a kernel may
/// hold one slot's buffer while packing into another.
class KernelScratch {
 public:
  enum class Slot : int {
    kPackA = 0,
    kPackB = 1,
    // Int8 inference plane: packed int8 A/B panels and per-row combined
    // dequant scales.
    kPackAInt8 = 2,
    kPackBInt8 = 3,
    kScales = 4,
    // Batched fully connected layers: the stacked (fp32) or quantized
    // (int8) in x n input matrix, and the out x n GEMM result.
    kFcInput = 5,
    kFcOutput = 6,
    kNumSlots = 7,
  };

  KernelScratch() = default;
  ~KernelScratch();

  KernelScratch(const KernelScratch&) = delete;
  KernelScratch& operator=(const KernelScratch&) = delete;

  /// Returns a 64-byte-aligned buffer holding at least `num_floats` floats.
  /// Contents are unspecified (kernels fully overwrite what they use).
  float* Acquire(Slot slot, size_t num_floats);

  /// Byte-typed view of a slot for the int8 kernels: a 64-byte-aligned
  /// buffer holding at least `num_bytes` bytes (backed by the same float
  /// storage, rounded up).
  void* AcquireBytes(Slot slot, size_t num_bytes) {
    return Acquire(slot, (num_bytes + sizeof(float) - 1) / sizeof(float));
  }

  /// Frees every slot (counters are kept). Mainly for tests that measure
  /// cold-start behavior.
  void Release();

  /// Number of Acquire() calls that had to (re)allocate.
  int64_t allocations() const { return allocations_; }
  /// Number of Acquire() calls served entirely from an existing buffer.
  int64_t reuses() const { return reuses_; }
  /// Total float capacity currently held across slots.
  int64_t capacity_floats() const;
  /// Total bytes currently held across slots.
  int64_t capacity_bytes() const { return capacity_floats() * 4; }
  /// High-water mark of capacity_bytes() over this arena's lifetime
  /// (Release() resets capacity but never the peak): the arena's true
  /// scratch footprint, the number the estimator's ConvTempBytes predicts.
  int64_t peak_bytes() const { return peak_bytes_; }

  /// Process-wide aggregates over every arena (all threads): bytes
  /// currently held, and the high-water mark of that total — the single
  /// source of the measured kernel Temp footprint.
  static int64_t TotalBytes();
  static int64_t GlobalPeakBytes();

  /// The calling thread's arena. One arena per thread for the process
  /// lifetime: pack buffers are reused across layers, images, and engine
  /// map tasks scheduled on the same worker thread.
  static KernelScratch& ThreadLocal();

 private:
  static constexpr int kNumSlots = static_cast<int>(Slot::kNumSlots);

  struct Buffer {
    float* data = nullptr;
    size_t capacity = 0;  // In floats.
  };

  /// Adjusts this arena's held-byte count by `delta` bytes and folds the
  /// result into the per-arena and process-wide high-water marks.
  void TrackBytes(int64_t delta);

  Buffer buffers_[kNumSlots];
  int64_t allocations_ = 0;
  int64_t reuses_ = 0;
  int64_t held_bytes_ = 0;
  int64_t peak_bytes_ = 0;
};

}  // namespace vista

#endif  // VISTA_TENSOR_SCRATCH_H_
