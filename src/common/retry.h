#ifndef VISTA_COMMON_RETRY_H_
#define VISTA_COMMON_RETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/status.h"

namespace vista {

/// Bounded-attempt retry with exponential backoff and deterministic jitter.
///
/// Production dataflow systems treat task failure as routine; this policy
/// is the knob set the engine applies to map-partition tasks, shuffle
/// sends, and spill I/O. Backoff jitter is a pure function of (task key,
/// attempt), never wall-clock or a global RNG, so a given failure schedule
/// always produces the same retry schedule — the whole fault-tolerance
/// layer stays exactly reproducible.
struct RetryPolicy {
  /// Total tries including the first one. 1 disables retries.
  int max_attempts = 3;
  /// Backoff before retry k (1-based) is
  ///   base_backoff_ms * multiplier^(k-1) * (1 +- jitter)
  /// capped at max_backoff_ms. The local engine defaults are tiny: we model
  /// the *policy*, not datacenter latencies, and tests must stay fast.
  double base_backoff_ms = 0.5;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 20.0;
  /// Jitter fraction in [0, 1): the backoff is scaled by a deterministic
  /// factor drawn from [1 - jitter, 1 + jitter).
  double jitter_fraction = 0.5;
  /// Which codes are worth retrying. Transient faults (kUnavailable) and
  /// flaky storage (kIOError) are; budget violations (kResourceExhausted)
  /// are not — those need plan degradation, not persistence.
  bool (*retryable)(const Status&) = nullptr;
};

/// Default retryable predicate: kUnavailable and kIOError.
bool DefaultRetryable(const Status& status);

/// True when `status` should be retried under `policy`.
bool IsRetryable(const RetryPolicy& policy, const Status& status);

/// Deterministic jittered backoff (milliseconds) before retry `attempt`
/// (0-based index of the attempt that just failed). Pure in (policy, key,
/// attempt).
double BackoffMs(const RetryPolicy& policy, uint64_t key, int attempt);

/// Sleeps for BackoffMs(...). Split out so tests can compute without
/// sleeping.
void SleepForBackoff(const RetryPolicy& policy, uint64_t key, int attempt);

/// Counters describing how much recovery work an engine performed, read
/// into EngineStats so tests and benches can assert on recovery behavior.
struct RecoveryStats {
  /// Failed attempts that were retried (tasks, shuffle reads, spill I/O).
  int64_t retries = 0;
  /// Partitions rebuilt from lineage after their data was unreadable.
  int64_t recomputed_partitions = 0;
  /// Faults the FaultInjector actually fired.
  int64_t injected_faults = 0;
};

/// Runs `fn` under `policy`: up to max_attempts tries, sleeping the
/// jittered backoff between them. `key` seeds the jitter (use a stable task
/// id). Each retried failure increments `*retries` when non-null.
Status RunWithRetry(const RetryPolicy& policy, uint64_t key,
                    const std::function<Status()>& fn,
                    std::atomic<int64_t>* retries = nullptr);

}  // namespace vista

#endif  // VISTA_COMMON_RETRY_H_
