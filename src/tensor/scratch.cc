#include "tensor/scratch.h"

#include <algorithm>
#include <atomic>
#include <new>

namespace vista {

namespace {
constexpr size_t kAlignment = 64;

/// Process-wide footprint accounting across every arena. The current total
/// moves with grow/release; the peak only ratchets up (CAS-max), so the
/// gauge mirrors a true high-water mark even under concurrent growth.
std::atomic<int64_t> g_total_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void RaiseGlobalPeak(int64_t candidate) {
  int64_t seen = g_peak_bytes.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !g_peak_bytes.compare_exchange_weak(seen, candidate,
                                             std::memory_order_relaxed)) {
  }
}
}  // namespace

KernelScratch::~KernelScratch() { Release(); }

void KernelScratch::TrackBytes(int64_t delta) {
  held_bytes_ += delta;
  peak_bytes_ = std::max(peak_bytes_, held_bytes_);
  const int64_t total =
      g_total_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (delta > 0) RaiseGlobalPeak(total);
}

float* KernelScratch::Acquire(Slot slot, size_t num_floats) {
  Buffer& buf = buffers_[static_cast<int>(slot)];
  if (num_floats <= buf.capacity) {
    ++reuses_;
    return buf.data;
  }
  // Grow to exactly the request: a slot still only grows, so alternating
  // layer shapes converge to the largest request after one pass, and no
  // worker holds more than the widest block it has actually used.
  const size_t capacity = num_floats;
  if (buf.data != nullptr) {
    ::operator delete[](buf.data, std::align_val_t(kAlignment));
  }
  buf.data = static_cast<float*>(::operator new[](
      capacity * sizeof(float), std::align_val_t(kAlignment)));
  TrackBytes(static_cast<int64_t>(capacity - buf.capacity) *
             static_cast<int64_t>(sizeof(float)));
  buf.capacity = capacity;
  ++allocations_;
  return buf.data;
}

void KernelScratch::Release() {
  for (Buffer& buf : buffers_) {
    if (buf.data != nullptr) {
      ::operator delete[](buf.data, std::align_val_t(kAlignment));
      TrackBytes(-static_cast<int64_t>(buf.capacity) *
                 static_cast<int64_t>(sizeof(float)));
      buf.data = nullptr;
      buf.capacity = 0;
    }
  }
}

int64_t KernelScratch::capacity_floats() const {
  int64_t n = 0;
  for (const Buffer& buf : buffers_) {
    n += static_cast<int64_t>(buf.capacity);
  }
  return n;
}

int64_t KernelScratch::TotalBytes() {
  return g_total_bytes.load(std::memory_order_relaxed);
}

int64_t KernelScratch::GlobalPeakBytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

KernelScratch& KernelScratch::ThreadLocal() {
  thread_local KernelScratch scratch;
  return scratch;
}

}  // namespace vista
