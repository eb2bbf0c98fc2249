#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "serve/service.h"
#include "serve/view_cache.h"
#include "vista/real_executor.h"

namespace vista::serve {
namespace {

struct Fixture {
  std::unique_ptr<df::Engine> engine;
  std::unique_ptr<dl::CnnModel> model;
  df::Table t_str;
  df::Table t_img;
  TransferWorkload workload;

  static Fixture Make(int num_records = 120, df::EngineConfig ec = {},
                      uint64_t seed = 3) {
    Fixture f;
    if (ec.num_workers == 1 && ec.cpus_per_worker == 2) {
      ec.cpus_per_worker = 4;
    }
    f.engine = std::make_unique<df::Engine>(ec);
    auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
    EXPECT_TRUE(arch.ok());
    auto model =
        dl::CnnModel::Instantiate(*arch, 21, dl::WeightInit::kGaborFirstConv);
    EXPECT_TRUE(model.ok());
    f.model = std::make_unique<dl::CnnModel>(std::move(model).value());

    feat::MultimodalDatasetSpec spec;
    spec.num_records = num_records;
    spec.num_struct_features = 12;
    spec.image_size = 32;
    spec.seed = seed;
    auto data = feat::GenerateMultimodal(spec);
    EXPECT_TRUE(data.ok());
    f.t_str = f.engine->MakeTable(std::move(data->t_str), 6).value();
    f.t_img = f.engine->MakeTable(std::move(data->t_img), 6).value();

    f.workload.cnn = dl::KnownCnn::kAlexNet;
    f.workload.layers = arch->TopLayers(3).value();
    f.workload.model = DownstreamModel::kLogisticRegression;
    f.workload.training_iterations = 5;
    return f;
  }
};

ServiceConfig FastServiceConfig(int num_workers = 2) {
  ServiceConfig config;
  config.num_workers = num_workers;
  config.executor.num_partitions = 6;
  config.executor.lr.iterations = 5;
  return config;
}

ServeRequest RequestFor(const Fixture& f, const std::string& tenant = "t0") {
  ServeRequest req;
  req.tenant = tenant;
  req.model = "alexnet";
  req.dataset = "foods";
  req.workload = f.workload;
  return req;
}

std::unique_ptr<FeatureTransferService> MakeService(Fixture* f,
                                                    ServiceConfig config) {
  auto service = FeatureTransferService::Create(f->engine.get(), config);
  EXPECT_TRUE(service.ok()) << service.status().message();
  EXPECT_TRUE((*service)->RegisterModel("alexnet", f->model.get()).ok());
  EXPECT_TRUE((*service)->RegisterDataset("foods", f->t_str, f->t_img).ok());
  return std::move(service).value();
}

int64_t TotalDlFlops(const df::Engine& engine) {
  int64_t total = 0;
  for (const obs::Counter* c : engine.metrics().counters()) {
    if (c->name().rfind("dl.flops.", 0) == 0) total += c->value();
  }
  return total;
}

// -------------------------------------------------------- config validation

TEST(ServeConfigTest, RejectsNonsensicalServiceConfigs) {
  Fixture f = Fixture::Make(40);

  ServiceConfig bad = FastServiceConfig();
  bad.num_workers = 0;
  EXPECT_TRUE(FeatureTransferService::Create(f.engine.get(), bad)
                  .status()
                  .IsInvalidArgument());

  bad = FastServiceConfig();
  bad.max_queue_depth = 0;
  EXPECT_TRUE(FeatureTransferService::Create(f.engine.get(), bad)
                  .status()
                  .IsInvalidArgument());

  bad = FastServiceConfig();
  bad.executor.num_partitions = 0;
  EXPECT_TRUE(FeatureTransferService::Create(f.engine.get(), bad)
                  .status()
                  .IsInvalidArgument());
}

TEST(ServeConfigTest, ViewCacheMustFitUnderStorageBudget) {
  df::EngineConfig ec;
  ec.budgets.storage = 1 << 20;
  Fixture f = Fixture::Make(40, ec);
  ServiceConfig config = FastServiceConfig();
  config.view_cache_bytes = (1 << 20) + 1;
  EXPECT_TRUE(FeatureTransferService::Create(f.engine.get(), config)
                  .status()
                  .IsInvalidArgument());
  config.view_cache_bytes = 1 << 19;
  EXPECT_TRUE(FeatureTransferService::Create(f.engine.get(), config).ok());
}

TEST(RealExecutorConfigTest, ValidateRejectsNonsense) {
  RealExecutorConfig config;
  EXPECT_TRUE(config.Validate().ok());

  config = {};
  config.num_partitions = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = {};
  config.pooling_grid = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = {};
  config.test_fraction = 1.0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = {};
  config.driver_memory_bytes = -2;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = {};
  config.lr.learning_rate = 0.0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  // The same config is fine when no training happens.
  config.train_models = false;
  EXPECT_TRUE(config.Validate().ok());

  config = {};
  config.lr.elastic_net_alpha = 1.5;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST(RealExecutorConfigTest, RunRejectsInvalidConfig) {
  Fixture f = Fixture::Make(40);
  RealExecutor executor(f.engine.get(), f.model.get());
  auto plan = CompilePlan(LogicalPlan::kStaged, f.workload);
  ASSERT_TRUE(plan.ok());
  RealExecutorConfig config;
  config.num_partitions = -3;
  EXPECT_TRUE(executor.Run(*plan, f.workload, f.t_str, f.t_img, config)
                  .status()
                  .IsInvalidArgument());
}

// ----------------------------------------------------------- basic serving

TEST(ServiceTest, ServedQueryMatchesDirectExecutor) {
  Fixture f = Fixture::Make();
  auto service = MakeService(&f, FastServiceConfig());

  auto served = service->Execute(RequestFor(f));
  ASSERT_TRUE(served.ok()) << served.status().message();
  EXPECT_FALSE(served->cache_hit);
  EXPECT_EQ(served->resumed_from_layer, -1);
  ASSERT_EQ(served->run.per_layer.size(), 3u);

  RealExecutor executor(f.engine.get(), f.model.get());
  RealExecutorConfig config = FastServiceConfig().executor;
  auto plan = CompilePlan(LogicalPlan::kStaged, f.workload);
  ASSERT_TRUE(plan.ok());
  auto direct = executor.Run(*plan, f.workload, f.t_str, f.t_img, config);
  ASSERT_TRUE(direct.ok());

  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(served->run.per_layer[i].test_metrics.true_positives,
              direct->per_layer[i].test_metrics.true_positives);
    EXPECT_EQ(served->run.per_layer[i].test_metrics.false_positives,
              direct->per_layer[i].test_metrics.false_positives);
    EXPECT_DOUBLE_EQ(served->run.per_layer[i].test_f1,
                     direct->per_layer[i].test_f1);
  }
  // Same total CNN work as the direct staged run: base materialization plus
  // the plan's incremental steps.
  EXPECT_EQ(served->inference_flops, direct->inference_flops);
}

TEST(ServiceTest, RejectsUnknownModelDatasetAndBadWorkloads) {
  Fixture f = Fixture::Make(40);
  auto service = MakeService(&f, FastServiceConfig());

  ServeRequest req = RequestFor(f);
  req.model = "resnet";
  EXPECT_TRUE(service->Execute(req).status().IsNotFound());

  req = RequestFor(f);
  req.dataset = "amazon";
  EXPECT_TRUE(service->Execute(req).status().IsNotFound());

  req = RequestFor(f);
  req.workload.layers.clear();
  EXPECT_TRUE(service->Execute(req).status().IsInvalidArgument());

  req = RequestFor(f);
  req.workload.layers = {2, 1};
  EXPECT_TRUE(service->Execute(req).status().IsInvalidArgument());

  req = RequestFor(f);
  req.workload.layers = {999};
  EXPECT_TRUE(service->Execute(req).status().IsInvalidArgument());

  // Client errors are not shed load.
  EXPECT_EQ(service->stats().admission_rejects, 0);
}

// ------------------------------------------------------- cross-query reuse

TEST(ServiceTest, SecondIdenticalQuerySkipsBaseRecompute) {
  Fixture f = Fixture::Make();
  f.model->EnableProfiling(&f.engine->metrics());
  auto service = MakeService(&f, FastServiceConfig());
  const int base_layer = f.workload.layers.front();
  const int64_t base_flops =
      f.model->arch().layer(base_layer).cumulative_flops *
      f.t_img.num_records();

  const int64_t flops0 = TotalDlFlops(*f.engine);
  auto cold = service->Execute(RequestFor(f, "tenant_a"));
  ASSERT_TRUE(cold.ok());
  const int64_t cold_flops = TotalDlFlops(*f.engine) - flops0;

  auto warm = service->Execute(RequestFor(f, "tenant_b"));
  ASSERT_TRUE(warm.ok());
  const int64_t warm_flops = TotalDlFlops(*f.engine) - flops0 - cold_flops;

  EXPECT_FALSE(cold->cache_hit);
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->resumed_from_layer, base_layer);
  // The saving is exact: the warm query skips the full from-raw base
  // materialization, both in its own accounting and in the kernel-level
  // dl.flops counters.
  EXPECT_EQ(cold->inference_flops - warm->inference_flops, base_flops);
  EXPECT_EQ(cold_flops - warm_flops, base_flops);
  EXPECT_GT(base_flops, 0);

  // Identical downstream models either way.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(warm->run.per_layer[i].test_metrics.true_positives,
              cold->run.per_layer[i].test_metrics.true_positives);
    EXPECT_DOUBLE_EQ(warm->run.per_layer[i].test_f1,
                     cold->run.per_layer[i].test_f1);
  }
  EXPECT_EQ(service->stats().cache_hits, 1);
}

TEST(ServiceTest, DeeperQueryResumesFromShallowerView) {
  Fixture f = Fixture::Make();
  auto service = MakeService(&f, FastServiceConfig());
  const auto& arch = f.model->arch();
  const int shallow = f.workload.layers[0];
  const int deep = f.workload.layers[1];

  auto first = service->Execute(RequestFor(f));
  ASSERT_TRUE(first.ok());

  ServeRequest deeper = RequestFor(f);
  deeper.workload.layers = {deep, f.workload.layers[2]};
  auto second = service->Execute(deeper);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->resumed_from_layer, shallow);

  // Cold reference for the deeper workload on a fresh fixture (same seed =>
  // same data): bit-identical models, more FLOPs.
  Fixture g = Fixture::Make();
  auto service2 = MakeService(&g, FastServiceConfig());
  ServeRequest deeper2 = deeper;
  auto cold = service2->Execute(deeper2);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  ASSERT_EQ(second->run.per_layer.size(), cold->run.per_layer.size());
  for (size_t i = 0; i < cold->run.per_layer.size(); ++i) {
    EXPECT_EQ(second->run.per_layer[i].test_metrics.true_positives,
              cold->run.per_layer[i].test_metrics.true_positives);
    EXPECT_DOUBLE_EQ(second->run.per_layer[i].test_f1,
                     cold->run.per_layer[i].test_f1);
  }
  const int64_t resume_saving =
      arch.layer(shallow).cumulative_flops * f.t_img.num_records();
  EXPECT_EQ(cold->inference_flops - second->inference_flops, resume_saving);
}

TEST(ServiceTest, ZeroCacheBytesDisablesReuse) {
  Fixture f = Fixture::Make(60);
  ServiceConfig config = FastServiceConfig();
  config.view_cache_bytes = 0;
  auto service = MakeService(&f, config);
  ASSERT_TRUE(service->Execute(RequestFor(f)).ok());
  auto second = service->Execute(RequestFor(f));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(service->view_cache().num_views(), 0);
}

// --------------------------------------------------------- concurrency

TEST(ServiceTest, ConcurrentMixedTenantQueriesMatchSerial) {
  Fixture f = Fixture::Make();
  df::EngineConfig ec;
  auto service = MakeService(&f, FastServiceConfig(/*num_workers=*/3));

  // Serial reference, which also warms the view cache so the concurrent
  // phase is deterministic.
  auto reference = service->Execute(RequestFor(f, "warm"));
  ASSERT_TRUE(reference.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2;
  std::vector<std::future<Result<ServeResult>>> futures;
  for (int t = 0; t < kThreads; ++t) {
    futures.push_back(std::async(std::launch::async, [&, t] {
      Result<ServeResult> last =
          Status::Internal("no query ran");
      for (int i = 0; i < kPerThread; ++i) {
        last = service->Execute(
            RequestFor(f, "tenant_" + std::to_string(t)));
        if (!last.ok()) break;
      }
      return last;
    }));
  }
  int hits = 0;
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().message();
    if (result->cache_hit) ++hits;
    ASSERT_EQ(result->run.per_layer.size(),
              reference->run.per_layer.size());
    for (size_t i = 0; i < reference->run.per_layer.size(); ++i) {
      EXPECT_EQ(result->run.per_layer[i].test_metrics.true_positives,
                reference->run.per_layer[i].test_metrics.true_positives);
      EXPECT_EQ(result->run.per_layer[i].test_metrics.false_positives,
                reference->run.per_layer[i].test_metrics.false_positives);
      EXPECT_EQ(result->run.per_layer[i].test_metrics.false_negatives,
                reference->run.per_layer[i].test_metrics.false_negatives);
      EXPECT_DOUBLE_EQ(result->run.per_layer[i].test_f1,
                       reference->run.per_layer[i].test_f1);
    }
    // With the cache warmed, every concurrent query resumes from the
    // cached base and does strictly less CNN work than the cold run.
    EXPECT_TRUE(result->cache_hit);
    EXPECT_LT(result->inference_flops, reference->inference_flops);
  }
  EXPECT_EQ(hits, kThreads);

  service->Drain();
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.queries_completed, 1 + kThreads * kPerThread);
  EXPECT_EQ(stats.queries_failed, 0);
  EXPECT_GE(stats.cache_hits, kThreads);
}

TEST(ServiceTest, BackpressureShedsLoadDeterministically) {
  Fixture f = Fixture::Make(40);
  ServiceConfig config = FastServiceConfig(/*num_workers=*/1);
  config.max_queue_depth = 2;
  config.max_queued_per_tenant = 1;
  config.executor.train_models = false;
  auto service = MakeService(&f, config);

  // Park the single worker inside a blocking completion callback so the
  // queue state is fully deterministic while we probe admission.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ServeRequest blocker = RequestFor(f, "blocker");
  blocker.train_models = false;
  ASSERT_TRUE(service
                  ->Submit(blocker,
                           [&entered, release_future](const ServeResult& r) {
                             EXPECT_TRUE(r.status.ok());
                             entered.set_value();
                             release_future.wait();
                           })
                  .ok());
  entered.get_future().wait();

  // Worker busy, queue empty: one query per tenant fits...
  auto a1 = service->Submit(RequestFor(f, "tenant_a"));
  ASSERT_TRUE(a1.ok());
  // ...a second from the same tenant trips its share...
  EXPECT_TRUE(service->Submit(RequestFor(f, "tenant_a"))
                  .status()
                  .IsUnavailable());
  auto b1 = service->Submit(RequestFor(f, "tenant_b"));
  ASSERT_TRUE(b1.ok());
  // ...and with the global depth (2) reached, every tenant is shed.
  EXPECT_TRUE(service->Submit(RequestFor(f, "tenant_c"))
                  .status()
                  .IsUnavailable());

  release.set_value();
  service->Drain();
  EXPECT_TRUE((*a1)->Wait().status.ok());
  EXPECT_TRUE((*b1)->Wait().status.ok());
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.admission_rejects, 2);
  EXPECT_EQ(stats.queries_completed, 3);
}

TEST(ServiceTest, QueueDeadlineRejectsStaleQueriesAtDequeue) {
  Fixture f = Fixture::Make(40);
  ServiceConfig config = FastServiceConfig(/*num_workers=*/1);
  config.executor.train_models = false;
  auto service = MakeService(&f, config);

  // Negative deadlines are malformed, rejected at submission.
  ServeRequest bad = RequestFor(f);
  bad.deadline_seconds = -1.0;
  EXPECT_TRUE(service->Submit(bad).status().IsInvalidArgument());

  // Park the single worker (same harness as the backpressure test) so the
  // queue wait is deterministic and strictly positive.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ServeRequest blocker = RequestFor(f, "blocker");
  blocker.train_models = false;
  ASSERT_TRUE(service
                  ->Submit(blocker,
                           [&entered, release_future](const ServeResult& r) {
                             EXPECT_TRUE(r.status.ok());
                             entered.set_value();
                             release_future.wait();
                           })
                  .ok());
  entered.get_future().wait();

  // Queued behind the parked worker with an unmeetable deadline: the
  // service must fail it at dequeue instead of executing pointlessly.
  ServeRequest doomed = RequestFor(f, "doomed");
  doomed.deadline_seconds = 1e-9;
  auto doomed_ticket = service->Submit(doomed);
  ASSERT_TRUE(doomed_ticket.ok());
  // A generous deadline queued at the same moment still executes.
  ServeRequest patient = RequestFor(f, "patient");
  patient.deadline_seconds = 3600.0;
  auto patient_ticket = service->Submit(patient);
  ASSERT_TRUE(patient_ticket.ok());

  release.set_value();
  const ServeResult& doomed_result = (*doomed_ticket)->Wait();
  EXPECT_TRUE(doomed_result.status.IsDeadlineExceeded())
      << doomed_result.status;
  EXPECT_TRUE(doomed_result.run.per_layer.empty());  // Never executed.
  EXPECT_GT(doomed_result.queue_seconds, 0.0);
  EXPECT_TRUE((*patient_ticket)->Wait().status.ok());
  service->Drain();
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.deadline_rejects, 1);
  EXPECT_EQ(stats.queries_failed, 1);
  EXPECT_EQ(stats.queries_completed, 2);
  // A deadline shed is not an admission reject — it was accepted, queued,
  // and failed at dequeue.
  EXPECT_EQ(stats.admission_rejects, 0);
}

TEST(ServiceTest, MemoryAdmissionControlShedsOversizedQueries) {
  df::EngineConfig ec;
  ec.budgets.user = 4 << 10;  // Far below any real inference footprint.
  Fixture f = Fixture::Make(60, ec);
  auto service = MakeService(&f, FastServiceConfig());

  auto result = service->Execute(RequestFor(f));
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(service->stats().admission_rejects, 1);
  EXPECT_EQ(service->stats().queries_completed, 0);

  // The shed is an admission decision, not a crash: a service over an
  // unconstrained engine accepts the identical query.
  Fixture g = Fixture::Make(60);
  auto roomy = MakeService(&g, FastServiceConfig());
  EXPECT_TRUE(roomy->Execute(RequestFor(g)).ok());
}

TEST(ServiceTest, DrainStopsAdmissionAndResumeReopens) {
  Fixture f = Fixture::Make(40);
  auto service = MakeService(&f, FastServiceConfig());
  ASSERT_TRUE(service->Execute(RequestFor(f)).ok());
  service->Drain();
  EXPECT_EQ(service->Submit(RequestFor(f)).status().code(),
            StatusCode::kFailedPrecondition);
  service->Resume();
  EXPECT_TRUE(service->Execute(RequestFor(f)).ok());
}

// ------------------------------------------------------------- view cache

df::Table SmallTable(df::Engine* engine, int num_records, uint64_t seed) {
  feat::MultimodalDatasetSpec spec;
  spec.num_records = num_records;
  spec.num_struct_features = 4;
  spec.num_informative_struct = 2;
  spec.image_size = 8;
  spec.seed = seed;
  auto data = feat::GenerateMultimodal(spec);
  EXPECT_TRUE(data.ok());
  return engine->MakeTable(std::move(data->t_img), 2).value();
}

TEST(ViewCacheTest, FingerprintIgnoresPartitioningButNotContent) {
  df::Engine engine({});
  feat::MultimodalDatasetSpec spec;
  spec.num_records = 24;
  spec.num_struct_features = 4;
  spec.num_informative_struct = 2;
  spec.image_size = 8;
  spec.seed = 11;
  auto data1 = feat::GenerateMultimodal(spec);
  auto data2 = feat::GenerateMultimodal(spec);
  ASSERT_TRUE(data1.ok() && data2.ok());
  auto coarse = engine.MakeTable(std::move(data1->t_img), 2).value();
  auto fine = engine.MakeTable(std::move(data2->t_img), 7).value();
  auto fp_coarse = DatasetFingerprint(coarse);
  auto fp_fine = DatasetFingerprint(fine);
  ASSERT_TRUE(fp_coarse.ok() && fp_fine.ok());
  EXPECT_EQ(*fp_coarse, *fp_fine);

  spec.seed = 12;
  auto other = feat::GenerateMultimodal(spec);
  ASSERT_TRUE(other.ok());
  auto different =
      DatasetFingerprint(engine.MakeTable(std::move(other->t_img), 2).value());
  ASSERT_TRUE(different.ok());
  EXPECT_NE(*fp_coarse, *different);
}

TEST(ViewCacheTest, EvictsLowestFlopsPerByteUnderPressure) {
  df::Engine engine({});
  df::Table big = SmallTable(&engine, 40, 1);
  df::Table small = SmallTable(&engine, 8, 2);
  const int64_t capacity = big.memory_bytes() + small.memory_bytes() / 2;

  FeatureViewCache cache(&engine.memory(), engine.metrics(), capacity);
  // A huge shallow view saving few FLOPs per byte...
  ASSERT_TRUE(cache.Insert("m", 1, MaterializedView{big, 0},
                           /*recompute_flops=*/100));
  // ...loses to a small deep view saving many.
  ASSERT_TRUE(cache.Insert("m", 1, MaterializedView{small, 2},
                           /*recompute_flops=*/1000000));
  EXPECT_EQ(cache.num_views(), 1);
  EXPECT_FALSE(cache.Lookup("m", 1, 0).has_value());
  auto survivor = cache.Lookup("m", 1, 5);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->layer, 2);
  EXPECT_LE(cache.resident_bytes(), capacity);

  cache.Clear();
  EXPECT_EQ(cache.num_views(), 0);
  EXPECT_EQ(engine.memory().Used(df::MemoryRegion::kStorage), 0);
}

TEST(ViewCacheTest, LookupReturnsDeepestUsableLayer) {
  df::Engine engine({});
  df::Table t = SmallTable(&engine, 8, 3);
  FeatureViewCache cache(&engine.memory(), engine.metrics());
  ASSERT_TRUE(cache.Insert("m", 7, MaterializedView{t, 1}, 10));
  ASSERT_TRUE(cache.Insert("m", 7, MaterializedView{t, 3}, 30));
  ASSERT_TRUE(cache.Insert("m", 7, MaterializedView{t, 5}, 50));

  EXPECT_FALSE(cache.Lookup("m", 7, 0).has_value());
  EXPECT_EQ(cache.Lookup("m", 7, 1)->layer, 1);
  EXPECT_EQ(cache.Lookup("m", 7, 4)->layer, 3);
  EXPECT_EQ(cache.Lookup("m", 7, 9)->layer, 5);
  // Other models / datasets never match.
  EXPECT_FALSE(cache.Lookup("other", 7, 9).has_value());
  EXPECT_FALSE(cache.Lookup("m", 8, 9).has_value());
}

TEST(ViewCacheTest, PrecisionsNeverShareViews) {
  // Int8 and fp32 feature views are numerically different tensors, so a
  // lookup must only ever see views of its own precision.
  df::Engine engine({});
  df::Table t = SmallTable(&engine, 8, 3);
  FeatureViewCache cache(&engine.memory(), engine.metrics());
  ASSERT_TRUE(cache.Insert("m", 7, MaterializedView{t, 3}, 30,
                           dl::Precision::kFp32));
  ASSERT_TRUE(cache.Insert("m", 7, MaterializedView{t, 1}, 10,
                           dl::Precision::kInt8));

  EXPECT_EQ(cache.Lookup("m", 7, 9)->layer, 3);  // fp32 default.
  EXPECT_EQ(cache.Lookup("m", 7, 9, dl::Precision::kInt8)->layer, 1);
  // The fp32 layer-3 view must not satisfy an int8 lookup, and vice versa.
  EXPECT_FALSE(cache.Lookup("m", 7, 2).has_value());
  EXPECT_FALSE(
      cache.Lookup("m", 7, 2, dl::Precision::kInt8).has_value() &&
      cache.Lookup("m", 7, 2, dl::Precision::kInt8)->layer != 1);
  EXPECT_EQ(cache.Lookup("m", 7, 2, dl::Precision::kInt8)->layer, 1);
}

TEST(ViewCacheTest, RejectsViewThatCannotEverFit) {
  df::MemoryBudgets budgets;
  budgets.storage = 64;
  df::MemoryManager mem(budgets);
  df::Engine engine({});
  df::Table t = SmallTable(&engine, 20, 4);
  FeatureViewCache cache(&mem, engine.metrics());
  EXPECT_FALSE(cache.Insert("m", 1, MaterializedView{t, 0}, 100));
  EXPECT_EQ(cache.num_views(), 0);
  EXPECT_EQ(mem.Used(df::MemoryRegion::kStorage), 0);
}

}  // namespace
}  // namespace vista::serve
