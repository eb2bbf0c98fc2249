#ifndef VISTA_DATAFLOW_CACHE_H_
#define VISTA_DATAFLOW_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/status.h"
#include "dataflow/memory.h"
#include "dataflow/partition.h"
#include "dataflow/spill.h"
#include "obs/metrics.h"

namespace vista::df {

/// LRU-managed Storage Memory for cached partitions.
///
/// Inserted partitions charge their footprint against the MemoryManager's
/// Storage region. Under pressure, least-recently-used partitions are
/// evicted to the SpillManager (if spilling is allowed — Spark-like) or the
/// insert fails with ResourceExhausted (memory-only, Ignite-like), which is
/// exactly the paper's Eager-on-Ignite crash mode.
class StorageCache {
 public:
  /// `metrics` receives "cache.*" counters, a resident-bytes gauge and
  /// the shared "integrity.*" counters. `injector` (optional, may be null)
  /// lets seeded transient memory spikes reject inserts: Insert returns
  /// Unavailable, which the engine's retry policy treats as retryable —
  /// unlike a genuine budget violation. Both must outlive the cache.
  StorageCache(MemoryManager* memory, SpillManager* spill, bool allow_spill,
               obs::Registry& metrics, FaultInjector* injector = nullptr);

  StorageCache(const StorageCache&) = delete;
  StorageCache& operator=(const StorageCache&) = delete;

  /// Places `partition` under cache management, evicting LRU entries as
  /// needed. If it cannot fit even after evictions, the partition itself is
  /// spilled (when allowed) or ResourceExhausted is returned.
  Status Insert(const std::shared_ptr<Partition>& partition);

  /// Reads the records of a managed partition, faulting it in from disk if
  /// it was spilled, and marks it most-recently-used. Also works for
  /// partitions that are not under management (plain read). Serialized
  /// resident blobs are CRC-verified before any record is decoded from
  /// them; a mismatch returns kDataLoss (counted under "integrity.*") so
  /// the engine recomputes from lineage instead of decoding rotted bytes.
  Result<std::vector<Record>> ReadThrough(
      const std::shared_ptr<Partition>& partition);

  /// Removes a partition from management, releasing memory and any spill.
  void Remove(const std::shared_ptr<Partition>& partition);

  /// Non-blocking read-ahead hint: if `partition` is managed and currently
  /// spilled, asks the SpillManager to start reading its block in the
  /// background so a near-future ReadThrough finds the verified bytes
  /// already latched. No-op for resident or unmanaged partitions; purely
  /// an overlap optimization (results and fault accounting are identical
  /// with or without the hint — see SpillManager::Prefetch).
  void Prefetch(const std::shared_ptr<Partition>& partition);

  int64_t num_managed() const;
  int64_t num_spilled() const;

 private:
  struct Entry {
    int64_t key = 0;
    std::shared_ptr<Partition> partition;
    /// Bytes charged to Storage while resident.
    int64_t charged_bytes = 0;
    std::list<Partition*>::iterator lru_it;
    bool in_lru = false;
  };

  /// Evicts LRU partitions until `bytes` of Storage are available.
  /// Requires mu_ held. Returns ResourceExhausted when nothing is left to
  /// evict (or spilling is disallowed) and the space still is not there.
  Status EvictUntilAvailable(int64_t bytes);

  /// Requires mu_ held.
  Status FaultIn(Entry* entry);

  /// CRC-verifies `partition`'s resident serialized blob (no-op for other
  /// representations), updating the integrity counters either way.
  Status VerifyResident(const Partition& partition);

  MemoryManager* memory_;
  SpillManager* spill_;
  bool allow_spill_;
  FaultInjector* injector_;
  /// Registry instruments, resolved once in the constructor.
  obs::Counter* c_inserts_ = nullptr;
  obs::Counter* c_read_hits_ = nullptr;
  obs::Counter* c_read_misses_ = nullptr;
  obs::Counter* c_fault_ins_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_blocks_verified_ = nullptr;
  obs::Counter* c_checksum_failures_ = nullptr;
  obs::Gauge* g_resident_bytes_ = nullptr;

  mutable std::mutex mu_;
  std::unordered_map<Partition*, Entry> entries_;
  /// Most-recently-used at the front.
  std::list<Partition*> lru_;
  int64_t next_key_ = 0;
  /// Monotone per-Insert-call sequence seeding memory-spike draws: each
  /// retry of a rejected insert gets a fresh, deterministic draw.
  int64_t insert_seq_ = 0;
};

}  // namespace vista::df

#endif  // VISTA_DATAFLOW_CACHE_H_
