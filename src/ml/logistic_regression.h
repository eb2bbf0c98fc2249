#ifndef VISTA_ML_LOGISTIC_REGRESSION_H_
#define VISTA_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "ml/dense_rows.h"

namespace vista::ml {

/// Configuration for elastic-net logistic regression trained with full-batch
/// gradient descent over a partitioned table (the paper's downstream M,
/// Section 5: "logistic regression with elastic net regularization with
/// α = 0.5 and a regularization value of 0.01", 10 iterations).
struct LogisticRegressionConfig {
  int iterations = 10;
  double learning_rate = 0.3;
  /// Overall regularization strength λ.
  double reg_lambda = 0.01;
  /// Elastic-net mixing α: 1 = pure L1, 0 = pure L2.
  double elastic_net_alpha = 0.5;
};

/// The logistic function 1 / (1 + e^-z), evaluated without overflow.
double Sigmoid(double z);

/// A trained binary logistic regression model.
class LogisticRegressionModel {
 public:
  LogisticRegressionModel() = default;
  LogisticRegressionModel(std::vector<double> weights, double bias)
      : weights_(std::move(weights)), bias_(bias) {}

  int64_t dim() const { return static_cast<int64_t>(weights_.size()); }
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// P(y = 1 | x). `x` must have dim() elements.
  double PredictProbability(const float* x) const;
  int Predict(const float* x) const {
    return PredictProbability(x) >= 0.5 ? 1 : 0;
  }

  /// In-memory footprint of the model (the optimizer's |M|_mem input).
  int64_t MemoryBytes() const { return dim() * 8 + 64; }

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Trains logistic regression on featurized rows: every iteration computes
/// one gradient partial per block on the engine's pool and merges them in
/// block order. Labels must be 0/1.
Result<LogisticRegressionModel> TrainLogisticRegression(
    df::Engine* engine, const DenseRows& rows,
    const LogisticRegressionConfig& config);

/// Featurizes `table` once (see Featurize), then trains on the rows.
Result<LogisticRegressionModel> TrainLogisticRegression(
    df::Engine* engine, const df::Table& table,
    const FeatureExtractor& extract, const LogisticRegressionConfig& config);

/// Evaluates log-loss of a model over a table (diagnostic).
Result<double> LogisticLogLoss(df::Engine* engine, const df::Table& table,
                               const FeatureExtractor& extract,
                               const LogisticRegressionModel& model);

}  // namespace vista::ml

#endif  // VISTA_ML_LOGISTIC_REGRESSION_H_
