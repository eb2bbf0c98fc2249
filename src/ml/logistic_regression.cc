#include "ml/logistic_regression.h"

#include <cmath>

namespace vista::ml {
namespace {

double Sign(double v) { return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0); }

}  // namespace

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double LogisticRegressionModel::PredictProbability(const float* x) const {
  double z = bias_;
  for (int64_t i = 0; i < dim(); ++i) z += weights_[i] * x[i];
  return Sigmoid(z);
}

Result<LogisticRegressionModel> TrainLogisticRegression(
    df::Engine* engine, const DenseRows& rows,
    const LogisticRegressionConfig& config) {
  VISTA_RETURN_IF_ERROR(rows.CheckTrainable());
  const int64_t dim = rows.dim();

  std::vector<double> weights(dim, 0.0);
  double bias = 0.0;
  const int64_t n = rows.num_rows();

  for (int iter = 0; iter < config.iterations; ++iter) {
    // The gradient, bias gradient last.
    const std::vector<double> grad =
        SumBlocks(engine, rows, dim + 1, [&](int b, double* local) {
          for (int64_t r = 0; r < rows.rows(b); ++r) {
            const float* x = rows.x(b, r);
            double z = bias;
            for (int64_t i = 0; i < dim; ++i) z += weights[i] * x[i];
            const double err =
                Sigmoid(z) - static_cast<double>(rows.label(b, r));
            for (int64_t i = 0; i < dim; ++i) local[i] += err * x[i];
            local[dim] += err;
          }
        });

    const double scale = 1.0 / static_cast<double>(n);
    const double l1 = config.reg_lambda * config.elastic_net_alpha;
    const double l2 = config.reg_lambda * (1.0 - config.elastic_net_alpha);
    for (int64_t i = 0; i < dim; ++i) {
      const double g =
          grad[i] * scale + l1 * Sign(weights[i]) + l2 * weights[i];
      weights[i] -= config.learning_rate * g;
    }
    bias -= config.learning_rate * grad[dim] * scale;
  }
  return LogisticRegressionModel(std::move(weights), bias);
}

Result<LogisticRegressionModel> TrainLogisticRegression(
    df::Engine* engine, const df::Table& table,
    const FeatureExtractor& extract,
    const LogisticRegressionConfig& config) {
  VISTA_ASSIGN_OR_RETURN(DenseSplit rows, Featurize(engine, table, extract));
  return TrainLogisticRegression(engine, rows.train, config);
}

Result<double> LogisticLogLoss(df::Engine* engine, const df::Table& table,
                               const FeatureExtractor& extract,
                               const LogisticRegressionModel& model) {
  VISTA_ASSIGN_OR_RETURN(DenseSplit split, Featurize(engine, table, extract));
  const DenseRows& rows = split.train;
  VISTA_RETURN_IF_ERROR(rows.CheckTrainable());
  const std::vector<double> loss =
      SumBlocks(engine, rows, 1, [&](int b, double* local) {
        for (int64_t r = 0; r < rows.rows(b); ++r) {
          const double p = model.PredictProbability(rows.x(b, r));
          const double eps = 1e-12;
          *local -= rows.label(b, r) > 0.5f ? std::log(p + eps)
                                            : std::log(1 - p + eps);
        }
      });
  return loss[0] / static_cast<double>(rows.num_rows());
}

}  // namespace vista::ml
