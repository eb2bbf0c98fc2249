#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace vista {
namespace {

/// splitmix64 finalizer: the repo-wide stable hash.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool DefaultRetryable(const Status& status) {
  // kDataLoss is deliberately absent: a checksum-verified corrupt block
  // stays corrupt on re-read, so the retry budget would be wasted — the
  // engine routes data loss to lineage recomputation instead.
  return status.IsUnavailable() || status.IsIOError();
}

bool IsRetryable(const RetryPolicy& policy, const Status& status) {
  if (status.ok()) return false;
  return policy.retryable != nullptr ? policy.retryable(status)
                                     : DefaultRetryable(status);
}

double BackoffMs(const RetryPolicy& policy, uint64_t key, int attempt) {
  double backoff = policy.base_backoff_ms;
  for (int i = 0; i < attempt; ++i) backoff *= policy.backoff_multiplier;
  backoff = std::min(backoff, policy.max_backoff_ms);
  if (policy.jitter_fraction > 0) {
    const uint64_t h = Mix64(key * 0x100000001b3ULL + static_cast<uint64_t>(attempt));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    backoff *= 1.0 + policy.jitter_fraction * (2.0 * u - 1.0);
  }
  return std::max(backoff, 0.0);
}

void SleepForBackoff(const RetryPolicy& policy, uint64_t key, int attempt) {
  const double ms = BackoffMs(policy, key, attempt);
  if (ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

Status RunWithRetry(const RetryPolicy& policy, uint64_t key,
                    const std::function<Status()>& fn,
                    std::atomic<int64_t>* retries) {
  for (int attempt = 0;; ++attempt) {
    Status st = fn();
    if (st.ok()) return st;
    if (attempt + 1 >= policy.max_attempts || !IsRetryable(policy, st)) {
      return st;
    }
    if (retries != nullptr) retries->fetch_add(1);
    SleepForBackoff(policy, key, attempt);
  }
}

}  // namespace vista
