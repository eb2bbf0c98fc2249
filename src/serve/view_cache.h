#ifndef VISTA_SERVE_VIEW_CACHE_H_
#define VISTA_SERVE_VIEW_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "dataflow/engine.h"
#include "dataflow/memory.h"
#include "dl/primitive.h"
#include "obs/metrics.h"

namespace vista::serve {

/// Cheap structural fingerprint of a dataset table: an order-insensitive
/// hash over every record's id, modality shapes, and a few sampled image
/// bytes. Two registrations of the same dataset — possibly by different
/// tenants, possibly partitioned differently — fingerprint identically, so
/// views materialized for one satisfy the other; distinct datasets collide
/// only with hash probability. Reads partitions directly (no engine), so
/// every partition must be resident.
Result<uint64_t> DatasetFingerprint(const df::Table& table);

/// One materialized visual view: layer `layer`'s tensors for a whole
/// dataset, carried in TensorList slot 0 of `table`'s records.
struct MaterializedView {
  df::Table table;
  int layer = -1;
};

/// Shared cross-query cache of partial-inference results — DeepLens's "CNN
/// features as materialized visual views" applied to Vista's Staged plan:
/// f̂_{1→l} computed for one query satisfies any later query whose base
/// layer l' >= l of the same model on the same dataset (the executor
/// resumes from the cached layer instead of raw image bytes).
///
/// Entries are keyed by (model, dataset fingerprint, precision, layer) and
/// charge their footprint against the MemoryManager's Storage region, the
/// same
/// accounting engine-persisted partitions live under. Eviction is
/// cost-aware rather than purely LRU: the victim is the entry with the
/// lowest recompute-FLOPs-saved per resident byte (ties broken by
/// recency), so a small deep view outlives a huge shallow one. Evicting
/// only drops the cache's reference — in-flight queries resuming from the
/// view hold the partitions alive via shared_ptr until they finish.
///
/// Thread-safe; Lookup/Insert take one mutex (the expensive work — actual
/// inference — happens outside).
class FeatureViewCache {
 public:
  /// `metrics` receives "serve.view_cache.*" instruments and the shared
  /// "integrity.*" counters; it and `memory` must outlive the cache.
  /// `capacity_bytes` additionally caps the cache's own footprint below
  /// the Storage budget (-1: bounded by the Storage region alone).
  FeatureViewCache(df::MemoryManager* memory, obs::Registry& metrics,
                   int64_t capacity_bytes = -1);
  ~FeatureViewCache();

  FeatureViewCache(const FeatureViewCache&) = delete;
  FeatureViewCache& operator=(const FeatureViewCache&) = delete;

  /// Deepest cached view of (model, fingerprint) materialized at
  /// `precision` with layer <= max_layer; nullopt on miss. Views produced
  /// at a different precision never satisfy the lookup — int8 features are
  /// numerically different tensors, and resuming an fp32 query from them
  /// (or vice versa) would silently change results. Hits refresh the
  /// entry's recency. Before a view is
  /// handed out for resume, every serialized-resident partition is
  /// CRC-verified; an entry that fails is dropped (counted under
  /// "serve.view_cache.corrupt_drops" and "integrity.checksum_failures")
  /// and the lookup falls back to the next-deepest intact view — a query
  /// must never resume inference from rotted features.
  std::optional<MaterializedView> Lookup(
      const std::string& model, uint64_t fingerprint, int max_layer,
      dl::Precision precision = dl::Precision::kFp32);

  /// Caches `view` under (model, fingerprint, precision, view.layer),
  /// evicting
  /// lower-value entries as needed. `recompute_flops` is the total FLOPs a
  /// future query saves by resuming here instead of from raw images
  /// (cumulative FLOPs through view.layer x record count) — the benefit
  /// side of the eviction score. Returns false (without error) when the
  /// view cannot fit even after evicting everything else; the query that
  /// produced it simply proceeds uncached.
  bool Insert(const std::string& model, uint64_t fingerprint,
              MaterializedView view, int64_t recompute_flops,
              dl::Precision precision = dl::Precision::kFp32);

  /// Drops every entry and releases all Storage charges.
  void Clear();

  int64_t num_views() const;
  int64_t resident_bytes() const;

 private:
  struct Entry {
    MaterializedView view;
    /// Bytes charged to the Storage region while cached.
    int64_t charged_bytes = 0;
    int64_t recompute_flops = 0;
    /// Monotone use sequence; larger = more recent.
    int64_t last_use = 0;
    /// Eviction score: FLOPs saved per resident byte.
    double value() const {
      return static_cast<double>(recompute_flops) /
             static_cast<double>(charged_bytes > 0 ? charged_bytes : 1);
    }
  };
  /// (model, fingerprint, precision, layer) — layer last so Lookup's
  /// "deepest view <= max_layer" scan stays a contiguous key range within
  /// one precision.
  using Key = std::tuple<std::string, uint64_t, int, int>;

  /// Evicts lowest-value entries until `bytes` fit under both the Storage
  /// region and capacity_bytes_. Returns false when impossible. Requires
  /// mu_ held.
  bool MakeRoom(int64_t bytes);

  df::MemoryManager* memory_;
  const int64_t capacity_bytes_;
  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_inserts_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_insert_overflows_ = nullptr;
  obs::Counter* c_corrupt_drops_ = nullptr;
  obs::Counter* c_blocks_verified_ = nullptr;
  obs::Counter* c_checksum_failures_ = nullptr;
  obs::Gauge* g_resident_bytes_ = nullptr;
  obs::Gauge* g_views_ = nullptr;

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  int64_t charged_total_ = 0;
  int64_t use_seq_ = 0;
};

}  // namespace vista::serve

#endif  // VISTA_SERVE_VIEW_CACHE_H_
