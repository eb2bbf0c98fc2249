#include <map>

#include <gtest/gtest.h>

#include "common/random.h"

#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "vista/real_executor.h"

namespace vista {
namespace {

struct Fixture {
  std::unique_ptr<df::Engine> engine;
  std::unique_ptr<dl::CnnModel> model;
  df::Table t_str;
  df::Table t_img;
  TransferWorkload workload;

  static Fixture Make(dl::KnownCnn cnn = dl::KnownCnn::kAlexNet,
                      int num_layers = 3, int num_records = 300,
                      df::EngineConfig engine_config = {}) {
    Fixture f;
    if (engine_config.num_workers == 1 &&
        engine_config.cpus_per_worker == 2) {
      engine_config.cpus_per_worker = 4;
    }
    f.engine = std::make_unique<df::Engine>(engine_config);
    auto arch = dl::BuildMicroArch(cnn);
    EXPECT_TRUE(arch.ok());
    auto model =
        dl::CnnModel::Instantiate(*arch, 21, dl::WeightInit::kGaborFirstConv);
    EXPECT_TRUE(model.ok());
    f.model = std::make_unique<dl::CnnModel>(std::move(model).value());

    feat::MultimodalDatasetSpec spec;
    spec.num_records = num_records;
    spec.num_struct_features = 12;
    spec.image_size = 32;
    spec.seed = 3;
    auto data = feat::GenerateMultimodal(spec);
    EXPECT_TRUE(data.ok());
    f.t_str = f.engine->MakeTable(std::move(data->t_str), 6).value();
    f.t_img = f.engine->MakeTable(std::move(data->t_img), 6).value();

    f.workload.cnn = cnn;
    f.workload.layers = arch->TopLayers(num_layers).value();
    f.workload.model = DownstreamModel::kLogisticRegression;
    f.workload.training_iterations = 5;
    return f;
  }
};

RealExecutorConfig FastConfig() {
  RealExecutorConfig config;
  config.num_partitions = 6;
  config.lr.iterations = 5;
  return config;
}

TEST(RealExecutorTest, StagedPlanRunsEndToEnd) {
  Fixture f = Fixture::Make();
  RealExecutor executor(f.engine.get(), f.model.get());
  auto plan = CompilePlan(LogicalPlan::kStaged, f.workload);
  ASSERT_TRUE(plan.ok());
  auto result = executor.Run(*plan, f.workload, f.t_str, f.t_img,
                             FastConfig());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_layer.size(), 3u);
  for (const auto& layer : result->per_layer) {
    EXPECT_GT(layer.test_metrics.total(), 0);
    EXPECT_GE(layer.test_f1, 0.0);
    EXPECT_FALSE(layer.layer_name.empty());
  }
  EXPECT_GT(result->inference_flops, 0);
}

std::vector<Tensor> CalibrationBatch(const dl::CnnModel& model, int count) {
  Rng rng(77);
  std::vector<Tensor> images;
  for (int i = 0; i < count; ++i) {
    images.push_back(Tensor::RandomGaussian(model.arch().input_shape(), &rng));
  }
  return images;
}

TEST(RealExecutorTest, ValidateRejectsInt8WithoutCalibration) {
  Fixture f = Fixture::Make();
  RealExecutorConfig config = FastConfig();
  config.precision = dl::Precision::kInt8;
  Status st = config.Validate(f.model.get());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("calibration"), std::string::npos) << st;

  ASSERT_TRUE(f.model->CalibrateInt8(CalibrationBatch(*f.model, 2)).ok());
  EXPECT_TRUE(config.Validate(f.model.get()).ok());
}

TEST(RealExecutorTest, RunRejectsPlanConfigPrecisionMismatch) {
  Fixture f = Fixture::Make();
  ASSERT_TRUE(f.model->CalibrateInt8(CalibrationBatch(*f.model, 2)).ok());
  RealExecutor executor(f.engine.get(), f.model.get());

  // Plan compiled fp32, executor configured int8.
  auto plan = CompilePlan(LogicalPlan::kStaged, f.workload);
  ASSERT_TRUE(plan.ok());
  RealExecutorConfig config = FastConfig();
  config.precision = dl::Precision::kInt8;
  auto result = executor.Run(*plan, f.workload, f.t_str, f.t_img, config);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("compiled"), std::string::npos);

  // And the reverse: int8 plan, fp32 executor.
  TransferWorkload w8 = f.workload;
  w8.precision = dl::Precision::kInt8;
  auto plan8 = CompilePlan(LogicalPlan::kStaged, w8);
  ASSERT_TRUE(plan8.ok());
  auto result8 =
      executor.Run(*plan8, w8, f.t_str, f.t_img, FastConfig());
  ASSERT_FALSE(result8.ok());
  EXPECT_TRUE(result8.status().IsInvalidArgument());
}

TEST(RealExecutorTest, Int8StagedRunMetersQuantizedOps) {
  Fixture f = Fixture::Make();
  ASSERT_TRUE(f.model->CalibrateInt8(CalibrationBatch(*f.model, 2)).ok());
  f.model->EnableProfiling(&f.engine->metrics());
  RealExecutor executor(f.engine.get(), f.model.get());

  TransferWorkload w8 = f.workload;
  w8.precision = dl::Precision::kInt8;
  auto plan = CompilePlan(LogicalPlan::kStaged, w8);
  ASSERT_TRUE(plan.ok());
  RealExecutorConfig config = FastConfig();
  config.precision = dl::Precision::kInt8;
  auto result = executor.Run(*plan, w8, f.t_str, f.t_img, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_layer.size(), 3u);
  for (const auto& layer : result->per_layer) {
    EXPECT_GT(layer.test_metrics.total(), 0);
  }
  // The analytic accounting and the per-layer profiling counters both see
  // the quantized work.
  EXPECT_GT(result->inference_int8_ops, 0);
  EXPECT_GT(f.engine->stats().dl_int8_ops, 0);

  // An fp32 run of the same workload meters no int8 ops.
  auto plan32 = CompilePlan(LogicalPlan::kStaged, f.workload);
  ASSERT_TRUE(plan32.ok());
  auto result32 =
      executor.Run(*plan32, f.workload, f.t_str, f.t_img, FastConfig());
  ASSERT_TRUE(result32.ok());
  EXPECT_EQ(result32->inference_int8_ops, 0);
}

// The paper's Section 5.2 invariant: every logical plan trains identical
// downstream models for a given layer. With deterministic training, the
// test metrics must be bit-identical across plans, joins, and formats.
class PlanEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<LogicalPlan, df::JoinStrategy, df::PersistenceFormat>> {
};

TEST_P(PlanEquivalenceTest, SameModelsAsLazyBaseline) {
  const auto [logical, join, persistence] = GetParam();
  Fixture f = Fixture::Make(dl::KnownCnn::kAlexNet, 3, 200);
  RealExecutor executor(f.engine.get(), f.model.get());

  RealExecutorConfig config = FastConfig();
  auto baseline_plan = CompilePlan(LogicalPlan::kLazy, f.workload);
  ASSERT_TRUE(baseline_plan.ok());
  auto baseline =
      executor.Run(*baseline_plan, f.workload, f.t_str, f.t_img, config);
  ASSERT_TRUE(baseline.ok());

  config.join = join;
  config.persistence = persistence;
  auto plan = CompilePlan(logical, f.workload);
  ASSERT_TRUE(plan.ok());
  auto result = executor.Run(*plan, f.workload, f.t_str, f.t_img, config);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(result->per_layer.size(), baseline->per_layer.size());
  for (size_t i = 0; i < result->per_layer.size(); ++i) {
    EXPECT_EQ(result->per_layer[i].layer_index,
              baseline->per_layer[i].layer_index);
    EXPECT_EQ(result->per_layer[i].test_metrics.true_positives,
              baseline->per_layer[i].test_metrics.true_positives);
    EXPECT_EQ(result->per_layer[i].test_metrics.false_positives,
              baseline->per_layer[i].test_metrics.false_positives);
    EXPECT_EQ(result->per_layer[i].test_metrics.false_negatives,
              baseline->per_layer[i].test_metrics.false_negatives);
    EXPECT_DOUBLE_EQ(result->per_layer[i].test_f1,
                     baseline->per_layer[i].test_f1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlansJoinsFormats, PlanEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(LogicalPlan::kLazyReordered, LogicalPlan::kEager,
                          LogicalPlan::kEagerReordered, LogicalPlan::kStaged,
                          LogicalPlan::kStagedReordered),
        ::testing::Values(df::JoinStrategy::kShuffleHash,
                          df::JoinStrategy::kBroadcast),
        ::testing::Values(df::PersistenceFormat::kDeserialized,
                          df::PersistenceFormat::kSerialized)));

TEST(RealExecutorTest, LazyDoesRedundantInference) {
  Fixture f = Fixture::Make(dl::KnownCnn::kAlexNet, 3, 100);
  RealExecutor executor(f.engine.get(), f.model.get());
  RealExecutorConfig config = FastConfig();
  config.train_models = false;

  std::map<LogicalPlan, int64_t> flops;
  for (LogicalPlan p : {LogicalPlan::kLazy, LogicalPlan::kEager,
                        LogicalPlan::kStaged}) {
    auto plan = CompilePlan(p, f.workload);
    ASSERT_TRUE(plan.ok());
    auto result = executor.Run(*plan, f.workload, f.t_str, f.t_img, config);
    ASSERT_TRUE(result.ok());
    flops[p] = result->inference_flops;
  }
  // Staged and Eager never recompute; Lazy recomputes lower layers.
  EXPECT_EQ(flops[LogicalPlan::kStaged], flops[LogicalPlan::kEager]);
  EXPECT_GT(flops[LogicalPlan::kLazy], flops[LogicalPlan::kStaged]);
}

TEST(RealExecutorTest, RedundancyGrowsWithHigherLayers) {
  // The deeper into the top of the CNN L reaches, the more Lazy recomputes
  // relative to Staged (Section 5.1: "the more of the higher layers are
  // tried, ... the faster Vista will be").
  Fixture two = Fixture::Make(dl::KnownCnn::kAlexNet, 2, 50);
  Fixture four = Fixture::Make(dl::KnownCnn::kAlexNet, 4, 50);
  RealExecutorConfig config = FastConfig();
  config.train_models = false;
  auto ratio = [&](Fixture& f) {
    RealExecutor executor(f.engine.get(), f.model.get());
    auto lazy = executor.Run(*CompilePlan(LogicalPlan::kLazy, f.workload),
                             f.workload, f.t_str, f.t_img, config);
    auto staged = executor.Run(
        *CompilePlan(LogicalPlan::kStaged, f.workload), f.workload, f.t_str,
        f.t_img, config);
    EXPECT_TRUE(lazy.ok());
    EXPECT_TRUE(staged.ok());
    return static_cast<double>(lazy->inference_flops) /
           static_cast<double>(staged->inference_flops);
  };
  EXPECT_GT(ratio(four), ratio(two));
}

TEST(RealExecutorTest, PreMaterializedBaseSkipsLowLayerCompute) {
  Fixture f = Fixture::Make(dl::KnownCnn::kAlexNet, 3, 100);
  RealExecutor executor(f.engine.get(), f.model.get());
  RealExecutorConfig config = FastConfig();
  config.train_models = false;

  auto base = executor.PreMaterializeBase(f.workload, f.t_img, config);
  ASSERT_TRUE(base.ok());
  auto plan = CompilePlan(LogicalPlan::kStaged, f.workload, true);
  ASSERT_TRUE(plan.ok());
  auto pre = executor.Run(*plan, f.workload, f.t_str, *base, config);
  ASSERT_TRUE(pre.ok());

  auto full_plan = CompilePlan(LogicalPlan::kStaged, f.workload);
  auto full =
      executor.Run(*full_plan, f.workload, f.t_str, f.t_img, config);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(pre->inference_flops, full->inference_flops);
}

TEST(RealExecutorTest, PreMaterializedResultsMatchFullRun) {
  Fixture f = Fixture::Make(dl::KnownCnn::kAlexNet, 3, 150);
  RealExecutor executor(f.engine.get(), f.model.get());
  RealExecutorConfig config = FastConfig();

  auto base = executor.PreMaterializeBase(f.workload, f.t_img, config);
  ASSERT_TRUE(base.ok());
  auto pre = executor.Run(*CompilePlan(LogicalPlan::kStaged, f.workload, true),
                          f.workload, f.t_str, *base, config);
  auto full = executor.Run(*CompilePlan(LogicalPlan::kStaged, f.workload),
                           f.workload, f.t_str, f.t_img, config);
  ASSERT_TRUE(pre.ok());
  ASSERT_TRUE(full.ok());
  for (size_t i = 0; i < pre->per_layer.size(); ++i) {
    EXPECT_DOUBLE_EQ(pre->per_layer[i].test_f1, full->per_layer[i].test_f1);
  }
}

TEST(RealExecutorTest, UserMemoryExhaustionSurfacesAsCrash) {
  df::EngineConfig engine_config;
  engine_config.cpus_per_worker = 4;
  engine_config.budgets.user = 10 * 1024;  // Absurdly small UDF budget.
  Fixture f =
      Fixture::Make(dl::KnownCnn::kAlexNet, 2, 200, engine_config);
  RealExecutor executor(f.engine.get(), f.model.get());
  auto plan = CompilePlan(LogicalPlan::kEager, f.workload);
  ASSERT_TRUE(plan.ok());
  auto result =
      executor.Run(*plan, f.workload, f.t_str, f.t_img, FastConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(RealExecutorTest, WorksWithSpillingStorage) {
  df::EngineConfig engine_config;
  engine_config.cpus_per_worker = 4;
  engine_config.budgets.storage = 64 * 1024;  // Forces eviction churn.
  Fixture f =
      Fixture::Make(dl::KnownCnn::kAlexNet, 3, 200, engine_config);
  RealExecutor executor(f.engine.get(), f.model.get());
  auto plan = CompilePlan(LogicalPlan::kStaged, f.workload);
  auto result =
      executor.Run(*plan, f.workload, f.t_str, f.t_img, FastConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(f.engine->stats().num_spills, 0);
  EXPECT_EQ(result->per_layer.size(), 3u);
}

TEST(RealExecutorTest, MicroResNetAndVggAlsoRun) {
  for (auto cnn : {dl::KnownCnn::kResNet50, dl::KnownCnn::kVgg16}) {
    Fixture f = Fixture::Make(cnn, 3, 120);
    RealExecutor executor(f.engine.get(), f.model.get());
    auto plan = CompilePlan(LogicalPlan::kStaged, f.workload);
    ASSERT_TRUE(plan.ok());
    auto result =
        executor.Run(*plan, f.workload, f.t_str, f.t_img, FastConfig());
    ASSERT_TRUE(result.ok()) << dl::KnownCnnToString(cnn) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->per_layer.size(), 3u);
  }
}

TEST(RealExecutorTest, DownstreamDecisionTreeAndMlp) {
  Fixture f = Fixture::Make(dl::KnownCnn::kAlexNet, 2, 150);
  RealExecutor executor(f.engine.get(), f.model.get());
  for (DownstreamModel m :
       {DownstreamModel::kDecisionTree, DownstreamModel::kMlp}) {
    TransferWorkload workload = f.workload;
    workload.model = m;
    workload.training_iterations = 3;
    auto plan = CompilePlan(LogicalPlan::kStaged, workload);
    ASSERT_TRUE(plan.ok());
    auto result =
        executor.Run(*plan, workload, f.t_str, f.t_img, FastConfig());
    ASSERT_TRUE(result.ok()) << DownstreamModelToString(m);
    EXPECT_EQ(result->per_layer.size(), 2u);
  }
}

TEST(RealExecutorTest, TrainStageIsThreadCountInvariantAndReleasesUserMemory) {
  df::EngineConfig serial;
  serial.cpus_per_worker = 1;
  Fixture one = Fixture::Make(dl::KnownCnn::kAlexNet, 2, 150, serial);
  Fixture four = Fixture::Make(dl::KnownCnn::kAlexNet, 2, 150);
  for (DownstreamModel m :
       {DownstreamModel::kLogisticRegression, DownstreamModel::kMlp,
        DownstreamModel::kDecisionTree}) {
    TransferWorkload workload = one.workload;
    workload.model = m;
    auto plan = CompilePlan(LogicalPlan::kStaged, workload);
    ASSERT_TRUE(plan.ok());
    auto a = RealExecutor(one.engine.get(), one.model.get())
                 .Run(*plan, workload, one.t_str, one.t_img, FastConfig());
    auto b = RealExecutor(four.engine.get(), four.model.get())
                 .Run(*plan, workload, four.t_str, four.t_img, FastConfig());
    ASSERT_TRUE(a.ok() && b.ok()) << DownstreamModelToString(m);
    ASSERT_EQ(a->per_layer.size(), b->per_layer.size());
    for (size_t i = 0; i < a->per_layer.size(); ++i) {
      const ml::BinaryMetrics& x = a->per_layer[i].test_metrics;
      const ml::BinaryMetrics& y = b->per_layer[i].test_metrics;
      EXPECT_GT(x.total(), 0);
      EXPECT_EQ(x.true_positives, y.true_positives);
      EXPECT_EQ(x.false_positives, y.false_positives);
      EXPECT_EQ(x.true_negatives, y.true_negatives);
      EXPECT_EQ(x.false_negatives, y.false_negatives);
    }
    // Every User charge, the featurized rows' included, is released.
    EXPECT_EQ(four.engine->memory().Used(df::MemoryRegion::kUser), 0);
  }
}

TEST(RealExecutorTest, MultiImageRecordsAggregateFeatures) {
  // Multi-image support (paper future work): per-record features are the
  // element-wise mean of the per-image features.
  df::EngineConfig engine_config;
  engine_config.cpus_per_worker = 2;
  df::Engine engine(engine_config);
  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  ASSERT_TRUE(arch.ok());
  auto model = dl::CnnModel::Instantiate(*arch, 21);
  ASSERT_TRUE(model.ok());

  Rng rng(13);
  Tensor a = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  df::Record multi;
  multi.id = 1;
  multi.struct_features = {1.0f};
  multi.images = {a, b};
  auto t_img = engine.MakeTable({multi}, 1).value();

  TransferWorkload workload;
  workload.cnn = dl::KnownCnn::kAlexNet;
  workload.layers = arch->TopLayers(1).value();
  RealExecutor executor(&engine, &*model);
  RealExecutorConfig config;
  config.num_partitions = 1;
  auto features = executor.PreMaterializeBase(workload, t_img, config);
  ASSERT_TRUE(features.ok());
  auto rows = engine.Collect(*features).value();
  ASSERT_EQ(rows.size(), 1u);

  // Expected: mean of per-image layer outputs.
  const int layer = workload.layers[0];
  Tensor fa = model->RunTo(a, layer).value();
  Tensor fb = model->RunTo(b, layer).value();
  Tensor expected = fa.Clone();
  for (int64_t i = 0; i < expected.num_elements(); ++i) {
    expected.set(i, 0.5f * (fa.at(i) + fb.at(i)));
  }
  EXPECT_TRUE(rows[0].features.at(0).AllClose(expected, 1e-5f));
}

TEST(TransferExtractorTest, AssemblesStructAndPooledFeatures) {
  df::Record r;
  r.id = 1;
  r.struct_features = {1.0f, 0.5f, -0.5f};
  r.features.Append(Tensor(Shape{2, 4, 4}));  // Pools to 2x2x2 = 8.
  auto extractor = MakeTransferExtractor(0, 2);
  std::vector<float> x;
  float label = 0;
  ASSERT_TRUE(extractor(r, &x, &label).ok());
  EXPECT_FLOAT_EQ(label, 1.0f);
  EXPECT_EQ(x.size(), 2u + 8u);
  EXPECT_FLOAT_EQ(x[0], 0.5f);
}

TEST(TransferExtractorTest, StructOnlyWhenSlotNegative) {
  df::Record r;
  r.struct_features = {0.0f, 2.0f};
  auto extractor = MakeTransferExtractor(-1, 2);
  std::vector<float> x;
  float label = 0;
  ASSERT_TRUE(extractor(r, &x, &label).ok());
  EXPECT_EQ(x.size(), 1u);
}

TEST(TransferExtractorTest, MissingSlotIsError) {
  df::Record r;
  r.struct_features = {0.0f};
  auto extractor = MakeTransferExtractor(3, 2);
  std::vector<float> x;
  float label = 0;
  EXPECT_FALSE(extractor(r, &x, &label).ok());
}

}  // namespace
}  // namespace vista
