#ifndef VISTA_ML_MLP_H_
#define VISTA_ML_MLP_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dataflow/engine.h"
#include "ml/logistic_regression.h"

namespace vista::ml {

/// Multi-layer perceptron for binary classification (ReLU hidden layers,
/// sigmoid output, cross-entropy loss), trained with synchronous
/// partition-parallel full-batch gradient descent — the shape of the
/// paper's TF/Horovod downstream MLP (Section 5.1, Fig. 7(B)).
struct MlpConfig {
  std::vector<int64_t> hidden_sizes = {64, 64};
  int iterations = 10;
  double learning_rate = 0.1;
  uint64_t seed = 42;
};

class MlpModel {
 public:
  MlpModel() = default;

  /// P(y = 1 | x).
  double PredictProbability(const float* x) const;
  int Predict(const float* x) const {
    return PredictProbability(x) >= 0.5 ? 1 : 0;
  }

  int64_t input_dim() const { return input_dim_; }
  /// In-memory footprint (the optimizer's |M|_mem when M is a DL model).
  int64_t MemoryBytes() const;

 private:
  friend Result<MlpModel> TrainMlp(df::Engine*, const DenseRows&,
                                   const MlpConfig&);
  struct Layer {
    // Row-major (out x in) weights and per-unit bias.
    std::vector<double> w;
    std::vector<double> b;
    int64_t in = 0, out = 0;
  };

  /// Forward pass storing per-layer activations (post-ReLU); returns the
  /// output probability.
  double Forward(const float* x,
                 std::vector<std::vector<double>>* activations) const;

  std::vector<Layer> layers_;
  int64_t input_dim_ = 0;
};

/// Trains an MLP on featurized rows: every iteration backpropagates one
/// gradient partial per block on the engine's pool and merges them in block
/// order. Labels must be 0/1.
Result<MlpModel> TrainMlp(df::Engine* engine, const DenseRows& rows,
                          const MlpConfig& config);

/// Featurizes `table` once (see Featurize), then trains on the rows.
Result<MlpModel> TrainMlp(df::Engine* engine, const df::Table& table,
                          const FeatureExtractor& extract,
                          const MlpConfig& config);

}  // namespace vista::ml

#endif  // VISTA_ML_MLP_H_
