#include "ml/scaler.h"

#include <cmath>

namespace vista::ml {

Result<StandardScaler> StandardScaler::Fit(df::Engine* engine,
                                           const df::Table& table,
                                           const FeatureExtractor& extract) {
  VISTA_ASSIGN_OR_RETURN(DenseSplit split, Featurize(engine, table, extract));
  const DenseRows& rows = split.train;
  VISTA_RETURN_IF_ERROR(rows.CheckTrainable());
  const int64_t dim = rows.dim();
  // Per-feature sums, then sums of squares.
  const std::vector<double> sums =
      SumBlocks(engine, rows, 2 * dim, [&](int b, double* local) {
        for (int64_t r = 0; r < rows.rows(b); ++r) {
          const float* x = rows.x(b, r);
          for (int64_t i = 0; i < dim; ++i) {
            local[i] += x[i];
            local[dim + i] += static_cast<double>(x[i]) * x[i];
          }
        }
      });
  const int64_t count = rows.num_rows();
  StandardScaler scaler;
  scaler.mean_.resize(dim);
  scaler.stddev_.resize(dim);
  for (int64_t i = 0; i < dim; ++i) {
    const double mean = sums[i] / static_cast<double>(count);
    const double variance = std::max(
        0.0, sums[dim + i] / static_cast<double>(count) - mean * mean);
    scaler.mean_[i] = mean;
    // Relative floor: the sum-of-squares formula cancels catastrophically
    // for (near-)constant features, so anything within noise of zero is
    // treated as constant.
    const double stddev = std::sqrt(variance);
    scaler.stddev_[i] =
        stddev <= 1e-5 * std::max(1.0, std::fabs(mean)) ? 1.0 : stddev;
  }
  return scaler;
}

Status StandardScaler::Transform(std::vector<float>* x) const {
  if (static_cast<int64_t>(x->size()) != dim()) {
    return Status::InvalidArgument(
        "Transform: feature vector has " + std::to_string(x->size()) +
        " entries, scaler fitted for " + std::to_string(dim()));
  }
  for (size_t i = 0; i < x->size(); ++i) {
    (*x)[i] = static_cast<float>(((*x)[i] - mean_[i]) / stddev_[i]);
  }
  return Status::OK();
}

FeatureExtractor StandardScaler::Wrap(FeatureExtractor inner) const {
  StandardScaler scaler = *this;
  return [scaler, inner = std::move(inner)](const df::Record& r,
                                            std::vector<float>* x,
                                            float* label) -> Status {
    VISTA_RETURN_IF_ERROR(inner(r, x, label));
    return scaler.Transform(x);
  };
}

}  // namespace vista::ml
