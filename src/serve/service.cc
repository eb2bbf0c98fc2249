#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/stopwatch.h"
#include "obs/trace.h"
#include "vista/plans.h"

namespace vista::serve {

namespace {

/// Conservative estimate of the User-region scratch one query needs while
/// its inference UDFs run: the largest requested layer's per-record output,
/// batched per partition, across the partitions the engine can run at
/// once. Mirrors the charge RunInference actually reserves.
int64_t EstimateUserBytes(const dl::CnnArchitecture& arch,
                          const std::vector<int>& layers,
                          int64_t num_records, int num_partitions,
                          int parallelism) {
  int64_t per_record = 0;
  for (int l : layers) {
    per_record = std::max(per_record, arch.layer(l).output_shape.num_bytes());
  }
  const int64_t per_partition_records =
      (num_records + num_partitions - 1) / std::max(num_partitions, 1);
  const int64_t concurrent =
      std::min<int64_t>(parallelism, num_partitions);
  return per_record * per_partition_records * std::max<int64_t>(concurrent, 1);
}

}  // namespace

// ---------------------------------------------------------------- ticket

const ServeResult& ServeTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool ServeTicket::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void ServeTicket::Fulfill(ServeResult result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(result);
    done_ = true;
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------- config

Status ServiceConfig::Validate(const df::MemoryBudgets& budgets) const {
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (max_queue_depth < 1) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (max_queued_per_tenant < 1) {
    return Status::InvalidArgument("max_queued_per_tenant must be >= 1");
  }
  if (view_cache_bytes < -1) {
    return Status::InvalidArgument(
        "view_cache_bytes must be -1 (Storage-bounded) or >= 0");
  }
  if (budgets.storage >= 0 && view_cache_bytes > budgets.storage) {
    return Status::InvalidArgument(
        "view_cache_bytes exceeds the Storage budget it charges against "
        "(the budgets do not sum)");
  }
  return executor.Validate();
}

// --------------------------------------------------------------- service

Result<std::unique_ptr<FeatureTransferService>> FeatureTransferService::Create(
    df::Engine* engine, ServiceConfig config) {
  VISTA_RETURN_IF_ERROR(config.Validate(engine->config().budgets));
  return std::unique_ptr<FeatureTransferService>(
      new FeatureTransferService(engine, std::move(config)));
}

FeatureTransferService::FeatureTransferService(df::Engine* engine,
                                               ServiceConfig config)
    : engine_(engine), config_(std::move(config)) {
  obs::Registry& metrics = engine_->metrics();
  view_cache_ = std::make_unique<FeatureViewCache>(
      &engine_->memory(), metrics, config_.view_cache_bytes);
  c_queries_ = metrics.counter("serve.queries");
  c_completed_ = metrics.counter("serve.queries_completed");
  c_failed_ = metrics.counter("serve.queries_failed");
  c_cache_hits_ = metrics.counter("serve.cache_hits");
  c_rejects_ = metrics.counter("serve.admission_rejects");
  c_deadline_rejects_ = metrics.counter("serve.deadline_rejects");
  c_view_evictions_ = metrics.counter("serve.view_cache.evictions");
  h_query_ms_ = metrics.histogram("serve.query_ms");
  h_queue_ms_ = metrics.histogram("serve.queue_ms");
  g_queue_depth_ = metrics.gauge("serve.queue_depth");
  g_active_ = metrics.gauge("serve.active_queries");
  workers_.reserve(config_.num_workers);
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

FeatureTransferService::~FeatureTransferService() { Shutdown(); }

Status FeatureTransferService::RegisterModel(const std::string& name,
                                             const dl::CnnModel* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (models_.count(name) > 0) {
    return Status::AlreadyExists("model '" + name + "' already registered");
  }
  models_.emplace(name, model);
  return Status::OK();
}

Status FeatureTransferService::RegisterDataset(const std::string& name,
                                               df::Table t_str,
                                               df::Table t_img) {
  VISTA_ASSIGN_OR_RETURN(const uint64_t fingerprint,
                         DatasetFingerprint(t_img));
  std::lock_guard<std::mutex> lock(mu_);
  if (datasets_.count(name) > 0) {
    return Status::AlreadyExists("dataset '" + name + "' already registered");
  }
  DatasetEntry entry;
  entry.t_str = std::move(t_str);
  entry.t_img = std::move(t_img);
  entry.fingerprint = fingerprint;
  datasets_.emplace(name, std::move(entry));
  return Status::OK();
}

Result<std::shared_ptr<ServeTicket>> FeatureTransferService::Submit(
    ServeRequest request) {
  auto query = std::make_unique<Query>();
  query->request = std::move(request);
  query->ticket = std::make_shared<ServeTicket>();
  std::shared_ptr<ServeTicket> ticket = query->ticket;
  VISTA_RETURN_IF_ERROR(Enqueue(std::move(query)));
  return ticket;
}

Status FeatureTransferService::Submit(
    ServeRequest request, std::function<void(const ServeResult&)> callback) {
  if (!callback) {
    return Status::InvalidArgument("callback must not be empty");
  }
  auto query = std::make_unique<Query>();
  query->request = std::move(request);
  query->callback = std::move(callback);
  return Enqueue(std::move(query));
}

Result<ServeResult> FeatureTransferService::Execute(ServeRequest request) {
  VISTA_ASSIGN_OR_RETURN(std::shared_ptr<ServeTicket> ticket,
                         Submit(std::move(request)));
  ServeResult result = ticket->Wait();
  VISTA_RETURN_IF_ERROR(result.status);
  return result;
}

Status FeatureTransferService::Enqueue(std::unique_ptr<Query> query) {
  const ServeRequest& req = query->request;
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || draining_) {
    return Status::FailedPrecondition("service is draining");
  }
  // Request validation (client errors; not counted as shed load).
  auto model_it = models_.find(req.model);
  if (model_it == models_.end()) {
    return Status::NotFound("model '" + req.model + "' is not registered");
  }
  auto data_it = datasets_.find(req.dataset);
  if (data_it == datasets_.end()) {
    return Status::NotFound("dataset '" + req.dataset +
                            "' is not registered");
  }
  const dl::CnnArchitecture& arch = model_it->second->arch();
  const std::vector<int>& layers = req.workload.layers;
  if (layers.empty()) {
    return Status::InvalidArgument("workload requests no layers");
  }
  for (size_t i = 0; i < layers.size(); ++i) {
    if (layers[i] < 0 || layers[i] >= arch.num_layers()) {
      return Status::InvalidArgument("requested layer out of range");
    }
    if (i > 0 && layers[i] <= layers[i - 1]) {
      return Status::InvalidArgument(
          "workload layers must be strictly ascending");
    }
  }
  if (req.workload.training_iterations < 0) {
    return Status::InvalidArgument("training_iterations must be >= 0");
  }
  if (req.deadline_seconds < 0) {
    return Status::InvalidArgument("deadline_seconds must be >= 0");
  }

  // Backpressure: bounded total queue, bounded per-tenant share.
  if (total_queued_ >= config_.max_queue_depth) {
    c_rejects_->Add(1);
    return Status::Unavailable("query queue is full");
  }
  std::deque<std::unique_ptr<Query>>& tenant_queue = queues_[req.tenant];
  if (static_cast<int>(tenant_queue.size()) >=
      config_.max_queued_per_tenant) {
    c_rejects_->Add(1);
    return Status::Unavailable("tenant '" + req.tenant +
                               "' has reached its queue share");
  }

  // Shed when the User region's headroom cannot hold this query's
  // inference scratch — the alternative is admitting work destined for a
  // mid-flight ResourceExhausted crash.
  if (config_.admission_memory_check) {
    const int64_t needed = EstimateUserBytes(
        arch, layers, data_it->second.t_img.num_records(),
        config_.executor.num_partitions, engine_->parallelism());
    if (engine_->memory().Available(df::MemoryRegion::kUser) < needed) {
      c_rejects_->Add(1);
      return Status::ResourceExhausted(
          "User memory headroom below the query's estimated footprint");
    }
  }

  query->model = model_it->second;
  query->dataset = &data_it->second;
  query->id = next_query_id_++;
  query->enqueued_at = std::chrono::steady_clock::now();
  c_queries_->Add(1);
  tenant_queue.push_back(std::move(query));
  ++total_queued_;
  g_queue_depth_->Set(total_queued_);
  work_cv_.notify_one();
  return Status::OK();
}

std::unique_ptr<FeatureTransferService::Query>
FeatureTransferService::NextQuery() {
  if (total_queued_ == 0) return nullptr;
  // Round-robin across tenant names: first non-empty queue strictly after
  // the last served tenant, wrapping.
  auto take = [this](std::deque<std::unique_ptr<Query>>& queue,
                     const std::string& tenant) {
    std::unique_ptr<Query> q = std::move(queue.front());
    queue.pop_front();
    last_served_tenant_ = tenant;
    --total_queued_;
    g_queue_depth_->Set(total_queued_);
    return q;
  };
  for (auto it = queues_.upper_bound(last_served_tenant_);
       it != queues_.end(); ++it) {
    if (!it->second.empty()) return take(it->second, it->first);
  }
  for (auto it = queues_.begin(); it != queues_.end(); ++it) {
    if (!it->second.empty()) return take(it->second, it->first);
  }
  return nullptr;
}

void FeatureTransferService::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Query> query;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this] { return shutdown_ || total_queued_ > 0; });
      if (shutdown_ && total_queued_ == 0) return;
      query = NextQuery();
      if (query == nullptr) continue;
      ++in_flight_;
      g_active_->Add(1);
    }
    const double queue_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      query->enqueued_at)
            .count();
    ServeResult result;
    const double deadline = query->request.deadline_seconds;
    if (deadline > 0 && queue_seconds > deadline) {
      // The client's deadline lapsed while the query sat in the queue:
      // executing it now would burn shared inference capacity on an answer
      // nobody is waiting for. Fail fast, before any work starts.
      result.query_id = query->id;
      result.tenant = query->request.tenant;
      result.status = Status::DeadlineExceeded(
          "queued for " + std::to_string(queue_seconds) +
          "s, past the request deadline of " + std::to_string(deadline) +
          "s");
      c_deadline_rejects_->Add(1);
    } else {
      result = RunQuery(*query);
    }
    result.queue_seconds = queue_seconds;
    Finish(query.get(), std::move(result));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      g_active_->Add(-1);
      if (total_queued_ == 0 && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

ServeResult FeatureTransferService::RunQuery(const Query& query) {
  ServeResult result;
  result.query_id = query.id;
  result.tenant = query.request.tenant;
  Stopwatch watch;
  obs::ScopedSpan span(&engine_->tracer(), "serve.query", "serve");

  const TransferWorkload& workload = query.request.workload;
  const int base_layer = workload.layers.front();
  const dl::CnnModel* model = query.model;
  const uint64_t fingerprint = query.dataset->fingerprint;
  const bool use_cache = config_.view_cache_bytes != 0;

  RealExecutor executor(engine_, model);
  RealExecutorConfig exec_config = config_.executor;
  exec_config.train_models = query.request.train_models;
  // The query's workload decides the inference precision; the cache below
  // keys on it, so int8 and fp32 queries over the same dataset never share
  // numerically different feature views.
  exec_config.precision = workload.precision;

  // Resolve the base layer: exact cached view, resume from a shallower
  // view, or cold from raw image bytes.
  int64_t materialize_flops = 0;
  df::Table base_table;
  std::optional<MaterializedView> view;
  if (use_cache) {
    view = view_cache_->Lookup(query.request.model, fingerprint, base_layer,
                               workload.precision);
  }
  if (view.has_value()) {
    result.cache_hit = true;
    result.resumed_from_layer = view->layer;
    c_cache_hits_->Add(1);
    if (view->layer == base_layer) {
      base_table = view->table;
    } else {
      obs::ScopedSpan mat_span(&engine_->tracer(), "serve.resume", "serve");
      // A cached view may have been partly evicted to spill by queries
      // served since it was published; hint its partitions back into
      // flight so the resume's partial inference reads overlap the first
      // partitions' GEMMs instead of stalling on cold disk.
      if (exec_config.prefetch_depth != 0) {
        engine_->PrefetchTable(view->table);
      }
      auto resumed =
          executor.MaterializeLayer(view->table, 0, view->layer, base_layer,
                                    exec_config, &materialize_flops);
      if (!resumed.ok()) {
        result.status = resumed.status();
        result.exec_seconds = watch.ElapsedSeconds();
        return result;
      }
      base_table = std::move(resumed).value();
    }
  } else {
    result.resumed_from_layer = -1;
    obs::ScopedSpan mat_span(&engine_->tracer(), "serve.materialize",
                             "serve");
    auto cold = executor.MaterializeLayer(query.dataset->t_img, -1, -1,
                                          base_layer, exec_config,
                                          &materialize_flops);
    if (!cold.ok()) {
      result.status = cold.status();
      result.exec_seconds = watch.ElapsedSeconds();
      return result;
    }
    base_table = std::move(cold).value();
  }

  // Publish the base view for future queries (any query of this model at a
  // base layer >= base_layer resumes from it). The benefit charged to the
  // entry is the full from-raw recompute it saves.
  if (use_cache &&
      !(view.has_value() && view->layer == base_layer)) {
    const int64_t recompute_flops =
        model->arch().layer(base_layer).cumulative_flops *
        base_table.num_records();
    view_cache_->Insert(query.request.model, fingerprint,
                        MaterializedView{base_table, base_layer},
                        recompute_flops, workload.precision);
  }

  // The Staged plan from the pre-materialized base — the paper's Appendix B
  // pipeline, with the base now shared across queries and tenants.
  auto plan = CompilePlan(LogicalPlan::kStaged, workload,
                          /*pre_materialized_base=*/true);
  if (!plan.ok()) {
    result.status = plan.status();
    result.exec_seconds = watch.ElapsedSeconds();
    return result;
  }
  auto run = executor.Run(*plan, workload, query.dataset->t_str, base_table,
                          exec_config);
  if (!run.ok()) {
    result.status = run.status();
  } else {
    result.run = std::move(run).value();
  }
  result.inference_flops = materialize_flops + result.run.inference_flops;
  result.exec_seconds = watch.ElapsedSeconds();
  return result;
}

void FeatureTransferService::Finish(Query* query, ServeResult result) {
  (result.status.ok() ? c_completed_ : c_failed_)->Add(1);
  h_queue_ms_->Record(result.queue_seconds * 1e3);
  h_query_ms_->Record((result.queue_seconds + result.exec_seconds) * 1e3);
  if (query->callback) {
    query->callback(result);
  }
  if (query->ticket != nullptr) {
    query->ticket->Fulfill(std::move(result));
  }
}

void FeatureTransferService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  drain_cv_.wait(lock,
                 [this] { return total_queued_ == 0 && in_flight_ == 0; });
}

void FeatureTransferService::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shutdown_) draining_ = false;
}

void FeatureTransferService::Shutdown() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ServiceStats FeatureTransferService::stats() const {
  ServiceStats s;
  s.queries_submitted = c_queries_->value();
  s.queries_completed = c_completed_->value();
  s.queries_failed = c_failed_->value();
  s.cache_hits = c_cache_hits_->value();
  s.admission_rejects = c_rejects_->value();
  s.deadline_rejects = c_deadline_rejects_->value();
  s.p50_latency_ms = h_query_ms_->Quantile(0.5);
  s.p99_latency_ms = h_query_ms_->Quantile(0.99);
  s.view_cache_evictions = c_view_evictions_->value();
  s.view_cache_resident_bytes = view_cache_->resident_bytes();
  return s;
}

}  // namespace vista::serve
