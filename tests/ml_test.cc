#include <atomic>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataflow/engine.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/mlp.h"

namespace vista::ml {
namespace {

// Linearly separable binary data: label = 1 iff w.x > 0.
std::vector<df::Record> LinearData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    const float x0 = static_cast<float>(rng.NextGaussian());
    const float x1 = static_cast<float>(rng.NextGaussian());
    const float label = (2.0f * x0 - x1 > 0) ? 1.0f : 0.0f;
    r.struct_features = {label, x0, x1};
    records.push_back(std::move(r));
  }
  return records;
}

// XOR-style data that no linear model can fit.
std::vector<df::Record> XorData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    const float x0 = rng.NextBool(0.5) ? 1.0f : -1.0f;
    const float x1 = rng.NextBool(0.5) ? 1.0f : -1.0f;
    const float noise0 = static_cast<float>(rng.NextGaussian()) * 0.1f;
    const float noise1 = static_cast<float>(rng.NextGaussian()) * 0.1f;
    const float label = (x0 * x1 > 0) ? 1.0f : 0.0f;
    r.struct_features = {label, x0 + noise0, x1 + noise1};
    records.push_back(std::move(r));
  }
  return records;
}

// `dim` Gaussian features with a noisy linear label: wide enough that a
// partition's gradient partial takes measurable time, so a multi-threaded
// engine finishes partitions in varying order.
std::vector<df::Record> WideData(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features.push_back(0.0f);
    double score = 0.0;
    for (int j = 0; j < dim; ++j) {
      const float v = static_cast<float>(rng.NextGaussian());
      r.struct_features.push_back(v);
      score += (j % 3 == 0 ? 1.0 : -0.5) * v;
    }
    r.struct_features[0] = score + 0.5 * rng.NextGaussian() > 0 ? 1.0f : 0.0f;
    records.push_back(std::move(r));
  }
  return records;
}

Status Extract(const df::Record& r, std::vector<float>* x, float* label) {
  *label = r.struct_features[0];
  x->assign(r.struct_features.begin() + 1, r.struct_features.end());
  return Status::OK();
}

df::EngineConfig Threads(int n) {
  df::EngineConfig config;
  config.num_workers = 1;
  config.cpus_per_worker = n;
  return config;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

int64_t MapTasks(df::Engine& engine) {
  return engine.metrics().counter("engine.map_tasks")->value();
}

double TrainAccuracy(df::Engine* engine, const df::Table& table,
                     const std::function<int(const float*)>& predict) {
  auto rows = engine->Collect(table);
  BinaryMetrics m;
  std::vector<float> x;
  float label = 0;
  for (const df::Record& r : *rows) {
    Extract(r, &x, &label).ok();
    m.Add(predict(x.data()), label > 0.5f ? 1 : 0);
  }
  return m.Accuracy();
}

TEST(MetricsTest, ConfusionCounts) {
  BinaryMetrics m = EvaluateBinary({1, 1, 0, 0, 1}, {1, 0, 0, 1, 1});
  EXPECT_EQ(m.true_positives, 2);
  EXPECT_EQ(m.false_positives, 1);
  EXPECT_EQ(m.true_negatives, 1);
  EXPECT_EQ(m.false_negatives, 1);
  EXPECT_NEAR(m.Accuracy(), 0.6, 1e-9);
  EXPECT_NEAR(m.Precision(), 2.0 / 3, 1e-9);
  EXPECT_NEAR(m.Recall(), 2.0 / 3, 1e-9);
  EXPECT_NEAR(m.F1(), 2.0 / 3, 1e-9);
}

TEST(MetricsTest, DegenerateCasesAreZero) {
  BinaryMetrics m;
  EXPECT_EQ(m.Accuracy(), 0.0);
  EXPECT_EQ(m.F1(), 0.0);
  m.Add(0, 0);
  EXPECT_EQ(m.Precision(), 0.0);
  EXPECT_EQ(m.Recall(), 0.0);
  EXPECT_EQ(m.Accuracy(), 1.0);
}


TEST(MetricsTest, RocAucPerfectAndRandom) {
  // Perfect ranking.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
  // Perfectly wrong ranking.
  EXPECT_DOUBLE_EQ(RocAuc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
  // All-tied scores: AUC 0.5.
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
  // Degenerate single-class input.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.9}, {1, 1}), 0.5);
}

TEST(MetricsTest, RocAucHandComputed) {
  // scores 0.1(neg) 0.4(pos) 0.35(neg) 0.8(pos):
  // pairs: (0.4>0.1)=1, (0.4>0.35)=1, (0.8>0.1)=1, (0.8>0.35)=1 => AUC 1.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.4, 0.35, 0.8}, {0, 1, 0, 1}), 1.0);
  // Swap one: 0.3(pos) < 0.35(neg): 3 of 4 pairs correct => 0.75.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.3, 0.35, 0.8}, {0, 1, 0, 1}), 0.75);
}

TEST(MetricsTest, RocAucTracksModelQuality) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1500, 21), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig config;
  config.iterations = 40;
  config.learning_rate = 1.0;
  config.reg_lambda = 0.0;
  auto model = TrainLogisticRegression(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<float> x;
  float label = 0;
  const std::vector<df::Record> rows = engine.Collect(*table).value();
  for (const df::Record& r : rows) {
    ASSERT_TRUE(Extract(r, &x, &label).ok());
    scores.push_back(model->PredictProbability(x.data()));
    labels.push_back(label > 0.5f ? 1 : 0);
  }
  EXPECT_GT(RocAuc(scores, labels), 0.97);
}

TEST(LogisticRegressionTest, LearnsLinearlySeparableData) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(2000, 1), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig config;
  config.iterations = 60;
  config.learning_rate = 1.0;
  config.reg_lambda = 0.0;
  auto model = TrainLogisticRegression(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.95);
}

TEST(LogisticRegressionTest, ElasticNetShrinksWeights) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1000, 2), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig no_reg;
  no_reg.iterations = 40;
  no_reg.reg_lambda = 0.0;
  LogisticRegressionConfig strong_reg = no_reg;
  strong_reg.reg_lambda = 0.5;
  auto m1 = TrainLogisticRegression(&engine, *table, Extract, no_reg);
  auto m2 = TrainLogisticRegression(&engine, *table, Extract, strong_reg);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  double norm1 = 0, norm2 = 0;
  for (double w : m1->weights()) norm1 += w * w;
  for (double w : m2->weights()) norm2 += w * w;
  EXPECT_LT(norm2, norm1);
}

TEST(LogisticRegressionTest, RejectsEmptyTable) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable({}, 2);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(
      TrainLogisticRegression(&engine, *table, Extract, {}).ok());
}

TEST(LogisticRegressionTest, LogLossDecreasesWithTraining) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1000, 3), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig short_run;
  short_run.iterations = 1;
  LogisticRegressionConfig long_run;
  long_run.iterations = 50;
  auto m1 = TrainLogisticRegression(&engine, *table, Extract, short_run);
  auto m2 = TrainLogisticRegression(&engine, *table, Extract, long_run);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  auto loss1 = LogisticLogLoss(&engine, *table, Extract, *m1);
  auto loss2 = LogisticLogLoss(&engine, *table, Extract, *m2);
  ASSERT_TRUE(loss1.ok());
  ASSERT_TRUE(loss2.ok());
  EXPECT_LT(*loss2, *loss1);
}

TEST(MlpTest, LearnsXor) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(XorData(800, 3), 4);
  ASSERT_TRUE(table.ok());
  MlpConfig config;
  config.hidden_sizes = {16};
  config.iterations = 400;
  config.learning_rate = 0.8;
  auto model = TrainMlp(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.9);
}

TEST(MlpTest, LinearModelCannotFitXorButMlpCan) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(XorData(800, 4), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig lr;
  lr.iterations = 100;
  auto linear = TrainLogisticRegression(&engine, *table, Extract, lr);
  ASSERT_TRUE(linear.ok());
  // The best any linear boundary can do on XOR is 3 of 4 quadrants (75%).
  const double linear_acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return linear->Predict(x); });
  EXPECT_LT(linear_acc, 0.8);
}

TEST(MlpTest, MemoryBytesGrowsWithWidth) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(100, 5), 2);
  MlpConfig narrow;
  narrow.hidden_sizes = {4};
  narrow.iterations = 1;
  MlpConfig wide;
  wide.hidden_sizes = {64, 64};
  wide.iterations = 1;
  auto m1 = TrainMlp(&engine, *table, Extract, narrow);
  auto m2 = TrainMlp(&engine, *table, Extract, wide);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_GT(m2->MemoryBytes(), m1->MemoryBytes());
}

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1000, 6), 4);
  ASSERT_TRUE(table.ok());
  DecisionTreeConfig config;
  config.max_depth = 6;
  auto model = TrainDecisionTree(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->num_nodes(), 1);
  EXPECT_LE(model->depth(), 6);
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.85);
}

TEST(DecisionTreeTest, LearnsXorUnlikeLinearModel) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(XorData(1000, 7), 4);
  ASSERT_TRUE(table.ok());
  DecisionTreeConfig config;
  config.max_depth = 4;
  auto model = TrainDecisionTree(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.9);
}

TEST(DecisionTreeTest, PureLeafStopsSplitting) {
  df::Engine engine(df::EngineConfig{});
  std::vector<df::Record> records;
  for (int i = 0; i < 100; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features = {1.0f, static_cast<float>(i)};
    records.push_back(std::move(r));
  }
  auto table = engine.MakeTable(records, 2);
  auto model = TrainDecisionTree(&engine, *table, Extract, {});
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_nodes(), 1);  // All labels identical: one leaf.
}

TEST(DecisionTreeTest, RespectsMinSamplesLeaf) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(30, 8), 2);
  DecisionTreeConfig config;
  config.min_samples_leaf = 20;  // Cannot split 30 rows into 20+20.
  auto model = TrainDecisionTree(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_nodes(), 1);
}

// Determinism: partials merge in block order, so a model is a function of
// the data alone, not of the thread count or the order tasks finish in.

struct TrainedBits {
  std::vector<uint64_t> lr;  // Weights, then the bias.
  std::vector<uint64_t> mlp;  // P(y = 1 | x) of every row (all weights).
};

TrainedBits TrainWide(int threads) {
  df::Engine engine(Threads(threads));
  const df::Table table = engine.MakeTable(WideData(4000, 64, 11), 16).value();
  LogisticRegressionConfig lr;
  lr.iterations = 40;
  auto linear = TrainLogisticRegression(&engine, table, Extract, lr);
  MlpConfig mlp;
  mlp.hidden_sizes = {16};
  mlp.iterations = 5;
  auto net = TrainMlp(&engine, table, Extract, mlp);
  EXPECT_TRUE(linear.ok() && net.ok());
  TrainedBits out;
  std::vector<double> w = linear->weights();
  w.push_back(linear->bias());
  out.lr = Bits(w);
  std::vector<double> probs;
  const std::vector<df::Record> rows = engine.Collect(table).value();
  for (const df::Record& r : rows) {
    probs.push_back(net->PredictProbability(r.struct_features.data() + 1));
  }
  out.mlp = Bits(probs);
  return out;
}

TEST(DeterminismTest, WeightsAreBitwiseEqualAcrossRunsAndThreadCounts) {
  const TrainedBits serial = TrainWide(1);
  for (int run = 0; run < 20; ++run) {
    const TrainedBits parallel = TrainWide(4);
    ASSERT_EQ(parallel.lr, serial.lr) << "LR, run " << run;
    ASSERT_EQ(parallel.mlp, serial.mlp) << "MLP, run " << run;
  }
}

TEST(DeterminismTest, MapTaskRetriesDoNotChangeTheModel) {
  df::EngineConfig faulty = Threads(4);
  faulty.faults.map_task_failure_rate = 0.3;
  faulty.retry.max_attempts = 10;
  faulty.retry.base_backoff_ms = 0;
  df::Engine clean(Threads(4)), engine(faulty);
  LogisticRegressionConfig config;
  config.iterations = 10;
  auto expected = TrainLogisticRegression(
      &clean, clean.MakeTable(WideData(500, 8, 12), 8).value(), Extract,
      config);
  auto model = TrainLogisticRegression(
      &engine, engine.MakeTable(WideData(500, 8, 12), 8).value(), Extract,
      config);
  ASSERT_TRUE(expected.ok() && model.ok());
  EXPECT_GT(engine.stats().recovery.retries, 0);
  EXPECT_EQ(Bits(model->weights()), Bits(expected->weights()));
}

// Featurize once: the extractor runs once per record and the featurize
// pass is the only map pass, whatever the number of iterations.

TEST(FeaturizeTest, ExtractsEachRecordOnceWhateverTheIterations) {
  for (int iterations : {1, 7, 30}) {
    df::Engine engine(Threads(4));
    const df::Table table = engine.MakeTable(WideData(600, 4, 13), 6).value();
    std::atomic<int64_t> calls{0};
    const FeatureExtractor counting = [&calls](const df::Record& r,
                                               std::vector<float>* x,
                                               float* label) {
      calls.fetch_add(1);
      return Extract(r, x, label);
    };

    int64_t tasks = MapTasks(engine);
    LogisticRegressionConfig lr;
    lr.iterations = iterations;
    ASSERT_TRUE(TrainLogisticRegression(&engine, table, counting, lr).ok());
    EXPECT_EQ(calls.load(), 600) << iterations;
    EXPECT_EQ(MapTasks(engine) - tasks, table.num_partitions()) << iterations;

    calls = 0;
    tasks = MapTasks(engine);
    MlpConfig mlp;
    mlp.hidden_sizes = {4};
    mlp.iterations = iterations;
    ASSERT_TRUE(TrainMlp(&engine, table, counting, mlp).ok());
    EXPECT_EQ(calls.load(), 600) << iterations;
    EXPECT_EQ(MapTasks(engine) - tasks, table.num_partitions()) << iterations;
  }
}

TEST(FeaturizeTest, SplitKeepsPartitionAndRecordOrder) {
  df::Engine engine(Threads(4));
  const df::Table table = engine.MakeTable(LinearData(300, 14), 5).value();
  auto split = Featurize(&engine, table, Extract,
                         [](const df::Record& r) { return r.id % 4 == 0; });
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->train.num_blocks(), 5);
  ASSERT_EQ(split->holdout.num_blocks(), 5);
  EXPECT_EQ(split->train.dim(), 2);
  EXPECT_EQ(split->train.num_rows() + split->holdout.num_rows(), 300);
  for (int b = 0; b < table.num_partitions(); ++b) {
    const std::vector<df::Record>& records =
        *table.partitions[b]->records().value();
    int64_t at[2] = {0, 0};
    for (const df::Record& r : records) {
      const DenseRows& set = r.id % 4 == 0 ? split->holdout : split->train;
      const int64_t row = at[r.id % 4 == 0 ? 1 : 0]++;
      ASSERT_LT(row, set.rows(b));
      EXPECT_EQ(set.label(b, row), r.struct_features[0]);
      EXPECT_EQ(set.x(b, row)[0], r.struct_features[1]);
      EXPECT_EQ(set.x(b, row)[1], r.struct_features[2]);
    }
    EXPECT_EQ(at[0], split->train.rows(b));
    EXPECT_EQ(at[1], split->holdout.rows(b));
  }
}

TEST(FeaturizeTest, ChargesUserMemoryWhileTheRowsLive) {
  df::Engine engine(Threads(2));
  const df::Table table = engine.MakeTable(LinearData(200, 15), 4).value();
  {
    auto rows = Featurize(&engine, table, Extract);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->train.bytes(), 200 * (2 + 1) * 4);
    EXPECT_EQ(engine.memory().Used(df::MemoryRegion::kUser),
              rows->train.bytes());
  }
  EXPECT_EQ(engine.memory().Used(df::MemoryRegion::kUser), 0);

  df::EngineConfig tight = Threads(2);
  tight.budgets.user = 1000;  // Below the 2400 B of rows.
  df::Engine small(tight);
  auto rows = Featurize(&small, small.MakeTable(LinearData(200, 15), 4).value(),
                        Extract);
  EXPECT_TRUE(rows.status().IsResourceExhausted());
  EXPECT_EQ(small.memory().Used(df::MemoryRegion::kUser), 0);
}

TEST(FeaturizeTest, RejectsInconsistentDimensionality) {
  df::Engine engine(Threads(2));
  std::vector<df::Record> records = LinearData(50, 16);
  records[7].struct_features.push_back(1.0f);
  const df::Table table = engine.MakeTable(std::move(records), 1).value();
  EXPECT_FALSE(Featurize(&engine, table, Extract).ok());
}

// Pins the trees grown on the two non-trivial fixtures above, node by node
// (count, and a hash of every field), so any change to the row order or the
// split search that moves a node shows.
uint64_t NodeHash(const DecisionTreeModel& model) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const DecisionTreeModel::Node& n : model.nodes()) {
    uint32_t threshold;
    std::memcpy(&threshold, &n.threshold, sizeof(threshold));
    mix(n.leaf);
    mix(n.prediction);
    mix(n.feature);
    mix(threshold);
    mix(n.left);
    mix(n.right);
    mix(n.node_depth);
  }
  return h;
}

TEST(DecisionTreeTest, NodesArePinnedOnTheFixtures) {
  df::Engine engine(df::EngineConfig{});
  DecisionTreeConfig deep;
  deep.max_depth = 6;
  auto linear = TrainDecisionTree(
      &engine, engine.MakeTable(LinearData(1000, 6), 4).value(), Extract,
      deep);
  DecisionTreeConfig shallow;
  shallow.max_depth = 4;
  auto xor_tree = TrainDecisionTree(
      &engine, engine.MakeTable(XorData(1000, 7), 4).value(), Extract,
      shallow);
  ASSERT_TRUE(linear.ok() && xor_tree.ok());
  EXPECT_EQ(linear->num_nodes(), 45);
  EXPECT_EQ(NodeHash(*linear), 0x195fb79e578a0901ULL);
  EXPECT_EQ(xor_tree->num_nodes(), 19);
  EXPECT_EQ(NodeHash(*xor_tree), 0xfec7f301740dbae9ULL);
}

}  // namespace
}  // namespace vista::ml
