#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/scaler.h"

namespace vista::ml {
namespace {

Status Extract(const df::Record& r, std::vector<float>* x, float* label) {
  *label = r.struct_features[0];
  x->assign(r.struct_features.begin() + 1, r.struct_features.end());
  return Status::OK();
}

df::Table SkewedTable(df::Engine* engine, int n) {
  Rng rng(3);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    // Features on wildly different scales + one constant column.
    r.struct_features = {
        static_cast<float>(i % 2),
        static_cast<float>(1000.0 + 50.0 * rng.NextGaussian()),
        static_cast<float>(0.001 * rng.NextGaussian()),
        3.14f,
    };
    records.push_back(std::move(r));
  }
  return engine->MakeTable(std::move(records), 4).value();
}

TEST(ScalerTest, FitComputesMeansAndStds) {
  df::Engine engine{df::EngineConfig{}};
  df::Table table = SkewedTable(&engine, 2000);
  auto scaler = StandardScaler::Fit(&engine, table, Extract);
  ASSERT_TRUE(scaler.ok());
  ASSERT_EQ(scaler->dim(), 3);
  EXPECT_NEAR(scaler->mean()[0], 1000.0, 5.0);
  EXPECT_NEAR(scaler->stddev()[0], 50.0, 5.0);
  EXPECT_NEAR(scaler->mean()[2], 3.14, 1e-5);
  // Constant feature: unit stddev, not ~0.
  EXPECT_DOUBLE_EQ(scaler->stddev()[2], 1.0);
}

TEST(ScalerTest, TransformedFeaturesAreStandardized) {
  df::Engine engine{df::EngineConfig{}};
  df::Table table = SkewedTable(&engine, 2000);
  auto scaler = StandardScaler::Fit(&engine, table, Extract);
  ASSERT_TRUE(scaler.ok());
  const auto wrapped = scaler->Wrap(Extract);

  auto rows = engine.Collect(table).value();
  std::vector<double> sum(3, 0.0), sum_sq(3, 0.0);
  std::vector<float> x;
  float label = 0;
  for (const df::Record& r : rows) {
    ASSERT_TRUE(wrapped(r, &x, &label).ok());
    for (int i = 0; i < 3; ++i) {
      sum[i] += x[i];
      sum_sq[i] += static_cast<double>(x[i]) * x[i];
    }
  }
  const double n = static_cast<double>(rows.size());
  for (int i = 0; i < 2; ++i) {  // Non-constant features.
    EXPECT_NEAR(sum[i] / n, 0.0, 0.05) << i;
    EXPECT_NEAR(sum_sq[i] / n, 1.0, 0.1) << i;
  }
}

TEST(ScalerTest, TransformValidatesDimension) {
  df::Engine engine{df::EngineConfig{}};
  df::Table table = SkewedTable(&engine, 100);
  auto scaler = StandardScaler::Fit(&engine, table, Extract);
  ASSERT_TRUE(scaler.ok());
  std::vector<float> wrong(7, 0.0f);
  EXPECT_FALSE(scaler->Transform(&wrong).ok());
}

TEST(ScalerTest, EmptyTableRejected) {
  df::Engine engine{df::EngineConfig{}};
  auto table = engine.MakeTable({}, 2).value();
  EXPECT_FALSE(StandardScaler::Fit(&engine, table, Extract).ok());
}

TEST(ScalerTest, StabilizesLogisticRegressionOnSkewedScales) {
  // Without standardization, a feature on a 1000x scale derails plain
  // gradient descent; with the scaler the model recovers the signal.
  df::Engine engine{df::EngineConfig{}};
  Rng rng(9);
  std::vector<df::Record> records;
  for (int i = 0; i < 2000; ++i) {
    df::Record r;
    r.id = i;
    const double signal = rng.NextGaussian();
    const float label = signal > 0 ? 1.0f : 0.0f;
    // The informative feature is buried in a huge offset and scale.
    r.struct_features = {label,
                         static_cast<float>(5000.0 + 2000.0 * signal),
                         static_cast<float>(rng.NextGaussian())};
    records.push_back(std::move(r));
  }
  df::Table table = engine.MakeTable(std::move(records), 4).value();
  LogisticRegressionConfig config;
  config.iterations = 40;

  auto scaler = StandardScaler::Fit(&engine, table, Extract);
  ASSERT_TRUE(scaler.ok());
  auto scaled_model = TrainLogisticRegression(&engine, table,
                                              scaler->Wrap(Extract), config);
  ASSERT_TRUE(scaled_model.ok());

  auto rows = engine.Collect(table).value();
  const auto wrapped = scaler->Wrap(Extract);
  int correct = 0;
  std::vector<float> x;
  float label = 0;
  for (const df::Record& r : rows) {
    ASSERT_TRUE(wrapped(r, &x, &label).ok());
    if (scaled_model->Predict(x.data()) == (label > 0.5f ? 1 : 0)) {
      ++correct;
    }
  }
  EXPECT_GT(correct / 2000.0, 0.95);
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// Per-block sums merge in block order, so the fit is a function of the data
// alone, not of the thread count or the order partitions finish in.
TEST(ScalerTest, FitIsBitwiseEqualAcrossRunsAndThreadCounts) {
  auto fit = [](int threads) {
    df::EngineConfig config;
    config.num_workers = 1;
    config.cpus_per_worker = threads;
    df::Engine engine(config);
    Rng rng(4);
    std::vector<df::Record> records;
    for (int i = 0; i < 4000; ++i) {
      df::Record r;
      r.id = i;
      r.struct_features.push_back(static_cast<float>(i % 2));
      for (int j = 0; j < 64; ++j) {
        r.struct_features.push_back(
            static_cast<float>(j + (j + 1) * rng.NextGaussian()));
      }
      records.push_back(std::move(r));
    }
    auto scaler = StandardScaler::Fit(
        &engine, engine.MakeTable(std::move(records), 16).value(), Extract);
    EXPECT_TRUE(scaler.ok());
    std::vector<uint64_t> bits = Bits(scaler->mean());
    const std::vector<uint64_t> stddev = Bits(scaler->stddev());
    bits.insert(bits.end(), stddev.begin(), stddev.end());
    return bits;
  };
  const std::vector<uint64_t> serial = fit(1);
  for (int run = 0; run < 20; ++run) {
    ASSERT_EQ(fit(4), serial) << "run " << run;
  }
}

}  // namespace
}  // namespace vista::ml
