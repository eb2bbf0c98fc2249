#ifndef VISTA_SERVE_SERVICE_H_
#define VISTA_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "dl/cnn.h"
#include "serve/view_cache.h"
#include "vista/real_executor.h"
#include "vista/roster.h"

namespace vista::serve {

/// One tenant query against the service: explore `workload.layers` of the
/// registered model `model` on the registered dataset `dataset`. The
/// workload's `cnn` tag is ignored — the registered model's architecture is
/// authoritative (custom/micro architectures serve fine).
struct ServeRequest {
  std::string tenant = "default";
  std::string model;
  std::string dataset;
  TransferWorkload workload;
  /// False turns the query into pure feature materialization (no
  /// downstream training / test metrics) — the feature-serving shape.
  bool train_models = true;
  /// Queueing deadline in seconds; 0 disables it. A query still waiting in
  /// the admission queue when its deadline lapses completes with
  /// kDeadlineExceeded instead of executing pointlessly — the client
  /// stopped waiting, so running it would only burn shared inference
  /// capacity. Checked at dequeue time (before any work starts); negative
  /// values are rejected as InvalidArgument at submission.
  double deadline_seconds = 0;
};

/// Outcome of one query. Failures of an individual query surface here as a
/// non-OK status; they never take the service down.
struct ServeResult {
  Status status = Status::OK();
  uint64_t query_id = 0;
  std::string tenant;
  /// True when the shared view cache supplied a usable materialized view
  /// (exact base layer or a shallower layer to resume from).
  bool cache_hit = false;
  /// Layer the query's base materialization resumed from: the base layer
  /// itself (exact hit, zero materialization compute), a shallower cached
  /// layer, or -1 (computed from raw image bytes).
  int resumed_from_layer = -1;
  /// CNN FLOPs this query actually executed: base materialization (after
  /// any cache resume) plus the plan's inference steps. Cross-query reuse
  /// shows up as this number shrinking for identical requests.
  int64_t inference_flops = 0;
  /// Seconds spent queued behind admission, and executing.
  double queue_seconds = 0;
  double exec_seconds = 0;
  /// The underlying executor result (per-layer metrics, stage seconds,
  /// spans). Note: stage_seconds/spans come from the engine's shared
  /// tracer, so under concurrency they may include overlapping queries.
  RealRunResult run;
};

/// Completion handle for an async submission. Wait() blocks until the
/// query finishes (or is abandoned at shutdown, surfacing an Unavailable
/// result).
class ServeTicket {
 public:
  const ServeResult& Wait();
  bool Done() const;

 private:
  friend class FeatureTransferService;
  void Fulfill(ServeResult result);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  ServeResult result_;
};

struct ServiceConfig {
  /// Service executor threads. Each runs one query at a time end to end;
  /// intra-query parallelism still comes from the engine's pool
  /// (ParallelFor is caller-inclusive, so service threads participate).
  int num_workers = 2;
  /// Total queued queries across all tenants; submissions beyond this are
  /// shed with Unavailable (backpressure).
  int max_queue_depth = 64;
  /// Queued queries per tenant — one noisy tenant cannot occupy the whole
  /// queue.
  int max_queued_per_tenant = 16;
  /// Reject queries whose estimated per-partition inference footprint
  /// exceeds the User region's current headroom, instead of letting them
  /// crash mid-flight with ResourceExhausted.
  bool admission_memory_check = true;
  /// View-cache footprint cap below the Storage budget (-1: Storage
  /// region only). 0 disables cross-query reuse entirely.
  int64_t view_cache_bytes = -1;
  /// Physical configuration shared by every query's executor run.
  RealExecutorConfig executor;

  /// Rejects nonsensical service configs (zero workers, zero queue, a
  /// view-cache budget that cannot fit under the Storage budget it charges
  /// against) and validates the nested executor config.
  Status Validate(const df::MemoryBudgets& budgets) const;
};

/// Point-in-time service counters, read from the obs registry (the same
/// instruments ProfileJson exports).
struct ServiceStats {
  int64_t queries_submitted = 0;
  int64_t queries_completed = 0;
  int64_t queries_failed = 0;
  int64_t cache_hits = 0;
  int64_t admission_rejects = 0;
  /// Queries dropped at dequeue because their deadline lapsed in the queue.
  int64_t deadline_rejects = 0;
  int64_t view_cache_evictions = 0;
  int64_t view_cache_resident_bytes = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
};

/// Long-running multi-tenant feature-transfer service: Vista's Staged plan
/// generalized across queries (ROADMAP "millions of users" item).
///
/// Wraps RealExecutor behind a concurrent front-end: a bounded, per-tenant
/// fair query scheduler with admission control keyed off the engine's
/// MemoryManager budgets, plus a shared FeatureViewCache so partial
/// inference done for one query is never redone for another. Queries run
/// the Staged plan from a pre-materialized base layer: the service resolves
/// the base from the view cache (exact hit / resume / cold), executes, and
/// publishes the base view for future queries.
///
/// Lifecycle: construct over an engine, register models and datasets, then
/// Submit/Execute from any thread. Drain() stops admission and waits for
/// in-flight work; Shutdown() (also run by the destructor) drains and joins
/// the workers. The engine, models, and registry must outlive the service.
class FeatureTransferService {
 public:
  /// Fails (InvalidArgument) on a nonsensical config — the service
  /// validates once here so per-query validation never trips.
  static Result<std::unique_ptr<FeatureTransferService>> Create(
      df::Engine* engine, ServiceConfig config);

  ~FeatureTransferService();

  FeatureTransferService(const FeatureTransferService&) = delete;
  FeatureTransferService& operator=(const FeatureTransferService&) = delete;

  /// Registers `model` under `name`. The model must outlive the service.
  Status RegisterModel(const std::string& name, const dl::CnnModel* model);

  /// Registers a dataset (structured side + image side) under `name` and
  /// fingerprints the image table for view-cache keying. Tables are cheap
  /// shared-partition handles; records must be resident.
  Status RegisterDataset(const std::string& name, df::Table t_str,
                         df::Table t_img);

  /// Admission-controlled async submission. A non-OK status means the
  /// query was rejected (shed), not enqueued: Unavailable on queue/tenant
  /// backpressure, ResourceExhausted when memory headroom is gone,
  /// FailedPrecondition while draining, InvalidArgument for malformed
  /// requests. Rejections are counted in serve.admission_rejects.
  Result<std::shared_ptr<ServeTicket>> Submit(ServeRequest request);

  /// Callback form: `callback` runs on the worker thread that finished the
  /// query. Same admission semantics as Submit.
  Status Submit(ServeRequest request,
                std::function<void(const ServeResult&)> callback);

  /// Synchronous convenience: Submit + Wait. The admission rejection comes
  /// back as the error status.
  Result<ServeResult> Execute(ServeRequest request);

  /// Stops admission and blocks until every queued and in-flight query has
  /// completed. Subsequent submissions fail with FailedPrecondition;
  /// workers stay alive (tests drain between phases).
  void Drain();

  /// Re-opens admission after a Drain (no-op if not draining).
  void Resume();

  /// Drain + join workers. Idempotent; the destructor calls it.
  void Shutdown();

  FeatureViewCache& view_cache() { return *view_cache_; }
  df::Engine& engine() { return *engine_; }

  ServiceStats stats() const;

 private:
  struct DatasetEntry {
    df::Table t_str;
    df::Table t_img;
    uint64_t fingerprint = 0;
  };

  struct Query {
    ServeRequest request;
    const dl::CnnModel* model = nullptr;
    const DatasetEntry* dataset = nullptr;
    uint64_t id = 0;
    std::shared_ptr<ServeTicket> ticket;
    std::function<void(const ServeResult&)> callback;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  FeatureTransferService(df::Engine* engine, ServiceConfig config);

  /// Admission checks + enqueue; the shared tail of both Submit forms.
  Status Enqueue(std::unique_ptr<Query> query);

  /// Scheduler: pops the next query round-robin across tenants with
  /// non-empty queues. Requires mu_ held. Null when no work is queued.
  std::unique_ptr<Query> NextQuery();

  void WorkerLoop();

  /// Executes one query end to end (view-cache probe, base
  /// materialization, Staged plan run, view publication).
  ServeResult RunQuery(const Query& query);

  void Finish(Query* query, ServeResult result);

  df::Engine* engine_;
  const ServiceConfig config_;
  std::unique_ptr<FeatureViewCache> view_cache_;

  obs::Counter* c_queries_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
  obs::Counter* c_rejects_ = nullptr;
  obs::Counter* c_deadline_rejects_ = nullptr;
  /// Bumped by the view cache, which reports into the same registry.
  obs::Counter* c_view_evictions_ = nullptr;
  obs::Histogram* h_query_ms_ = nullptr;
  obs::Histogram* h_queue_ms_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Gauge* g_active_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  std::map<std::string, const dl::CnnModel*> models_;
  std::map<std::string, DatasetEntry> datasets_;
  /// Per-tenant FIFO queues plus a stable round-robin cursor over tenant
  /// names: each scheduling decision serves the next tenant (in name
  /// order) after the last served one that has queued work.
  std::map<std::string, std::deque<std::unique_ptr<Query>>> queues_;
  std::string last_served_tenant_;
  int total_queued_ = 0;
  int in_flight_ = 0;
  bool draining_ = false;
  bool shutdown_ = false;
  uint64_t next_query_id_ = 1;
  std::vector<std::thread> workers_;
};

}  // namespace vista::serve

#endif  // VISTA_SERVE_SERVICE_H_
