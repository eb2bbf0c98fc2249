#ifndef VISTA_ML_SCALER_H_
#define VISTA_ML_SCALER_H_

#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "ml/logistic_regression.h"

namespace vista::ml {

/// Per-feature standardization (zero mean, unit variance), fitted with one
/// featurize pass over a table. CNN feature layers and structured features
/// live on very different scales; standardizing stabilizes the
/// gradient-descent downstream models.
class StandardScaler {
 public:
  /// Fits means and standard deviations over the features produced by
  /// `extract`, featurizing `table` once (see Featurize) and summing one
  /// partial per block in block order. Constant features get a unit
  /// standard deviation so the transform never divides by ~zero.
  static Result<StandardScaler> Fit(df::Engine* engine,
                                    const df::Table& table,
                                    const FeatureExtractor& extract);

  int64_t dim() const { return static_cast<int64_t>(mean_.size()); }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& stddev() const { return stddev_; }

  /// In-place transform: x <- (x - mean) / stddev. `x` must have dim()
  /// elements.
  Status Transform(std::vector<float>* x) const;

  /// Composes this scaler with an extractor: the returned extractor yields
  /// standardized features. The scaler is captured by value.
  FeatureExtractor Wrap(FeatureExtractor inner) const;

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace vista::ml

#endif  // VISTA_ML_SCALER_H_
