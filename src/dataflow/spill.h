#ifndef VISTA_DATAFLOW_SPILL_H_
#define VISTA_DATAFLOW_SPILL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault_injector.h"
#include "common/retry.h"
#include "common/status.h"
#include "dataflow/memory.h"
#include "obs/metrics.h"

namespace vista::df {

/// Writes evicted partition blobs to real files in a scratch directory and
/// reads them back on demand. Disk spills are a first-class cost in the
/// paper's trade-off space, so the engine both performs and meters them.
///
/// Durability & integrity protocol (see dataflow/block_format.h and
/// DESIGN.md "Data integrity & durability"): every blob is written as a
/// framed durable block — magic + version + per-key sequence number +
/// length + payload CRC32C + header CRC + footer sentinel — to a temp file
/// that is fflush'd, fsync'd, closed, and atomically renamed over the final
/// path (followed by a directory fsync), so a crash mid-write can never
/// leave a readable half-block: the old generation survives intact or the
/// new one is durably complete. Read-back verifies the whole frame plus the
/// expected sequence number before any byte reaches the engine; failures
/// return kDataLoss — deliberately non-retryable, because a corrupt block
/// stays corrupt on re-read — which the engine routes to per-partition
/// lineage recomputation. Verification outcomes are metered as
/// "integrity.*" counters.
///
/// Spill I/O is where transient storage faults surface, so the manager owns
/// its own retry loop: each Write/Read attempt first consults the optional
/// FaultInjector (sites kSpillWrite / kSpillNoSpace / kSpillRead), then
/// performs the real file operation; retryable failures are re-attempted
/// under the RetryPolicy, and exhausted retries surface as IOError to the
/// caller (where lineage recomputation can take over). The injector's
/// mutation sites (kSpillBitFlip, kSpillTornWrite, kSpillStaleRead) corrupt
/// durably-written blocks after the write reports success — the silent
/// failure shapes only verify-on-read catches.
///
/// Writes come in two flavors:
///  - Write: synchronous — returns after the blob is durably on disk (or
///    the retry budget is exhausted).
///  - WriteAsync: hands the blob to a background writer thread through a
///    bounded queue (double buffering), overlapping serialization on the
///    caller with disk I/O. Errors are sticky and latched per key: a key
///    whose async write failed surfaces that same error on every later
///    Read of the key (never a silent NotFound, and never the stale
///    previous generation) until the key is successfully rewritten or
///    removed, and the first error since the previous Flush also surfaces
///    at Flush(). Read/Remove/Write on a key with a pending async write
///    first wait for that write to land, so read-after-write ordering is
///    preserved per key.
///
/// Reads have a symmetric async half — the prefetch plane (the read-side
/// mirror of the double-buffered writer):
///  - Prefetch: a non-blocking hint that `key` will be read soon. Accepted
///    hints enter a bounded queue drained by a background reader thread
///    that runs the exact same verified-read path as Read (same fault
///    draws, same integrity counters), latching the outcome — payload or
///    error — in a per-key slot.
///  - Read first consumes the key's slot: a ready outcome is returned
///    without touching the disk (a hit, including latched kDataLoss — a
///    corrupt prefetched block is dropped and surfaces exactly like a
///    corrupt sync read, so integrity accounting is identical whether the
///    read ran ahead or inline); an in-flight read is waited for (per-key
///    latch, never a second read of the same bytes); a still-queued hint
///    is claimed back and the read runs synchronously. Keys without a slot
///    fall through to the plain sync path — prefetching is purely an
///    overlap optimization and never changes results.
///  - Hints are dropped (counted, never an error) when the queue is at
///    capacity, the key has no spill or a latched async-write error, or
///    the optional memory budget has no headroom. Write/Remove invalidate
///    any slot for the key, so a prefetched previous generation can never
///    be served after an overwrite.
class SpillManager {
 public:
  /// `dir` is created if missing; files are removed on destruction.
  /// Counters and I/O latency histograms report into `metrics` ("spill.*"
  /// and "prefetch.*" instruments, resolved once here), as do the
  /// "spill.queue_depth" / "prefetch.queue_depth" gauges (their max_value
  /// is the high-water mark — > 0 proves the I/O actually overlapped) and
  /// the shared "integrity.*" verification counters. `metrics` must
  /// outlive the manager: the writer thread bumps counters until the
  /// destructor joins it. `async_queue_capacity` bounds the writer queue
  /// (backpressure beyond it): 2 gives classic double buffering.
  SpillManager(std::string dir, obs::Registry& metrics,
               int async_queue_capacity = 2);
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Optional deterministic fault injection; `injector` must outlive the
  /// manager. Null disables injection.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// Persists `blob` under `key` (overwrites any previous spill of `key`,
  /// bumping the key's block generation). Short writes and flush/fsync/
  /// close-time errors are detected and reported; the spill is recorded
  /// (size entry + counters) only after the file is durably on disk.
  Status Write(int64_t key, const std::vector<uint8_t>& blob);

  /// Enqueues `blob` for the background writer (started lazily on first
  /// use). Blocks only when the bounded queue is full. The write itself
  /// runs under the same fault-injection + retry loop as Write; failures
  /// surface at Flush() and on every Read of the failed key.
  Status WriteAsync(int64_t key, std::vector<uint8_t> blob);

  /// Waits until every queued async write has landed, then returns (and
  /// clears) the first async write error since the previous Flush. The
  /// engine calls this at the end of Persist so a failed spill fails the
  /// operation that caused it. Per-key error latches survive Flush — they
  /// clear only when the key is rewritten successfully or removed.
  Status Flush();

  /// Reads back the blob spilled under `key`, verifying the durable-block
  /// frame (checksums, footer, expected generation) before returning it.
  /// Corruption returns kDataLoss without retrying; a key whose async
  /// write failed returns that write's latched error. Consumes the key's
  /// prefetched outcome when one is ready or in flight (see the class
  /// comment); otherwise reads synchronously.
  Result<std::vector<uint8_t>> Read(int64_t key);

  /// Non-blocking read-ahead hint: enqueue `key` for the background reader
  /// (started lazily on first use). Best-effort — dropped (and counted)
  /// when the bounded queue is full, the key has no spill entry or a
  /// latched async-write error, or the optional prefetch memory budget is
  /// out of headroom. Safe to hint the same key repeatedly (deduped while
  /// a slot exists).
  void Prefetch(int64_t key);

  /// Bounds outstanding prefetch slots (queued + reading + ready); hints
  /// beyond it are dropped. Reconfigure before issuing hints.
  void set_prefetch_capacity(int capacity);

  /// Optional budget gate: when set, each accepted hint charges the
  /// payload's bytes against `region` until its slot is consumed or
  /// invalidated, and hints with no headroom are dropped. `memory` must
  /// outlive the manager; null (the default) disables the gate — the
  /// bounded queue is then the only over-buffering control.
  void set_prefetch_memory(MemoryManager* memory, MemoryRegion region);

  /// Deletes the spill file for `key`, if any. The size entry and the file
  /// are removed under one lock so no reader can observe the entry without
  /// the file. Also clears the key's async-error latch.
  void Remove(int64_t key);

  /// Counters, read from the registry instruments named alongside. They
  /// total every component reporting into that registry, so with a shared
  /// registry they aggregate over all managers. Accessors first drain any
  /// in-flight async writes so callers always observe settled totals. Byte
  /// counters meter payload bytes (frame overhead excluded), so they stay
  /// comparable across format versions.
  int64_t bytes_written() const;  // "spill.bytes_written"
  int64_t bytes_read() const;     // "spill.bytes_read"
  int64_t num_spills() const;     // "spill.writes"
  /// Failed spill I/O attempts that were retried ("spill.io_retries").
  int64_t io_retries() const;
  /// Verify-on-read outcomes. These read the shared "integrity.*"
  /// counters, which the engine, StorageCache and FeatureViewCache bump
  /// too; they are this manager's own only under a registry it alone
  /// reports into.
  int64_t blocks_verified() const;
  int64_t checksum_failures() const;
  int64_t torn_writes_detected() const;
  /// Prefetch-plane outcomes ("prefetch.*"): accepted hints, reads served
  /// from a prefetched outcome, still-queued hints claimed back by a sync
  /// read, hints/slots dropped unconsumed, and prefetched blocks that
  /// failed verification (dropped; the read surfaces kDataLoss exactly
  /// like the sync path, so lineage heals it).
  int64_t prefetch_requests() const { return c_pf_requests_->value(); }
  int64_t prefetch_hits() const { return c_pf_hits_->value(); }
  int64_t prefetch_claimed() const { return c_pf_claimed_->value(); }
  int64_t prefetch_dropped() const { return c_pf_dropped_->value(); }
  int64_t prefetch_corrupt_dropped() const {
    return c_pf_corrupt_dropped_->value();
  }

 private:
  struct PendingWrite {
    int64_t key = 0;
    std::vector<uint8_t> blob;
  };

  /// Index entry for one durably-written key: payload size (for byte
  /// accounting) and the expected block generation (stale-read detection).
  struct SpillEntry {
    int64_t payload_bytes = 0;
    uint64_t seq = 0;
  };

  /// One latched read-ahead: lifecycle kQueued -> kReading -> kReady,
  /// guarded by pf_mu_. `charged_bytes` is the optional budget charge,
  /// released by whoever erases the slot.
  struct PrefetchSlot {
    enum State { kQueued, kReading, kReady };
    State state = kQueued;
    Status status;
    std::vector<uint8_t> payload;
    int64_t charged_bytes = 0;
  };

  std::string PathFor(int64_t key) const;
  /// Durable write of one encoded frame: temp file + fsync + atomic
  /// rename + directory fsync.
  Status WriteOnce(const std::string& path, const std::vector<uint8_t>& frame);
  /// Reads the whole file at `path` (whatever its length — torn files are
  /// shorter than the frame they should hold).
  Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);
  /// The shared injection + retry + framing + bookkeeping loop behind both
  /// Write flavors. Thread-safe (called from the caller thread or the
  /// writer).
  Status WriteWithRetry(int64_t key, const std::vector<uint8_t>& blob);
  /// The shared verified-read loop behind the sync path and the prefetch
  /// reader: per-attempt kSpillRead / kSpillReadDelay injection, retry,
  /// frame decode against `entry.seq`, and all integrity/byte counters.
  /// Fault draws and counter bumps are identical wherever the read runs,
  /// which is what keeps prefetched and sync schedules bit-identical in
  /// their accounting.
  Result<std::vector<uint8_t>> ReadVerifiedWithRetry(int64_t key,
                                                     const SpillEntry& entry);
  void WriterLoop();
  /// The prefetch reader: pops hints, orders after any pending write of
  /// the key (WaitForKey), runs ReadVerifiedWithRetry, latches the outcome
  /// in the key's slot (discarded if the slot was invalidated mid-read).
  void ReaderLoop();
  /// Erases a slot, releasing its budget charge. Requires pf_mu_.
  void EraseSlotLocked(int64_t key);
  /// Drops any queued or ready slot for `key` (counted); blocks while the
  /// reader is mid-read of it so an overwrite can never race the read.
  /// Called by Write/WriteAsync/Remove before touching the key's file.
  void InvalidatePrefetch(int64_t key);
  void CountPrefetchDrop();
  /// True while `key` has a queued or in-flight async write. Requires qmu_.
  bool KeyPendingLocked(int64_t key) const;
  /// Blocks until no async write of `key` is pending.
  void WaitForKey(int64_t key);
  /// Blocks until the async queue is empty and the writer is idle.
  void WaitDrained() const;

  std::string dir_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  std::mutex mu_;
  std::unordered_map<int64_t, SpillEntry> entries_;

  /// Async writer state, all guarded by qmu_. The writer thread starts
  /// lazily on the first WriteAsync and is joined in the destructor (after
  /// draining its queue).
  mutable std::mutex qmu_;
  mutable std::condition_variable work_cv_;
  mutable std::condition_variable space_cv_;
  mutable std::condition_variable drained_cv_;
  std::deque<PendingWrite> queue_;
  size_t queue_capacity_;
  std::thread writer_;
  bool writer_started_ = false;
  bool shutdown_ = false;
  bool writing_ = false;
  int64_t writing_key_ = 0;
  Status async_error_;
  /// Sticky per-key async-write errors: set by the writer on failure,
  /// cleared by a successful rewrite or Remove. Read() consults this
  /// first so a failed overwrite can never silently serve the previous
  /// generation (satellite: the silent-failure window between the last
  /// WriteAsync and Flush).
  std::unordered_map<int64_t, Status> failed_keys_;

  /// Prefetch-plane state, guarded by pf_mu_. The reader thread starts
  /// lazily on the first accepted hint and is joined in the destructor
  /// (before the writer, so no read can race file removal).
  mutable std::mutex pf_mu_;
  std::condition_variable pf_work_cv_;   // Reader wake-up.
  std::condition_variable pf_state_cv_;  // Slot state transitions.
  std::deque<int64_t> pf_queue_;
  std::unordered_map<int64_t, PrefetchSlot> pf_slots_;
  size_t pf_capacity_ = 4;
  std::thread reader_;
  bool reader_started_ = false;
  bool pf_shutdown_ = false;
  MemoryManager* pf_memory_ = nullptr;
  MemoryRegion pf_region_ = MemoryRegion::kStorage;

  /// Registry instruments, resolved once in the constructor.
  obs::Counter* c_writes_ = nullptr;
  obs::Counter* c_reads_ = nullptr;
  obs::Counter* c_bytes_written_ = nullptr;
  obs::Counter* c_bytes_read_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_blocks_verified_ = nullptr;
  obs::Counter* c_checksum_failures_ = nullptr;
  obs::Counter* c_torn_writes_ = nullptr;
  obs::Counter* c_pf_requests_ = nullptr;
  obs::Counter* c_pf_hits_ = nullptr;
  obs::Counter* c_pf_claimed_ = nullptr;
  obs::Counter* c_pf_dropped_ = nullptr;
  obs::Counter* c_pf_corrupt_dropped_ = nullptr;
  obs::Histogram* h_write_ms_ = nullptr;
  obs::Histogram* h_read_ms_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Gauge* g_pf_queue_depth_ = nullptr;
};

}  // namespace vista::df

#endif  // VISTA_DATAFLOW_SPILL_H_
