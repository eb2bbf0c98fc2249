#include "ml/mlp.h"

#include <cmath>

namespace vista::ml {

double MlpModel::Forward(
    const float* x, std::vector<std::vector<double>>* activations) const {
  std::vector<double> current(input_dim_);
  for (int64_t i = 0; i < input_dim_; ++i) current[i] = x[i];
  if (activations != nullptr) {
    activations->clear();
    activations->push_back(current);
  }
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    std::vector<double> next(layer.out);
    for (int64_t r = 0; r < layer.out; ++r) {
      double acc = layer.b[r];
      const double* wr = layer.w.data() + r * layer.in;
      for (int64_t c = 0; c < layer.in; ++c) acc += wr[c] * current[c];
      // Hidden layers are ReLU; the final layer stays linear (sigmoid is
      // applied to the scalar output below).
      next[r] = li + 1 < layers_.size() ? std::max(0.0, acc) : acc;
    }
    current = std::move(next);
    if (activations != nullptr) activations->push_back(current);
  }
  return Sigmoid(current[0]);
}

double MlpModel::PredictProbability(const float* x) const {
  return Forward(x, nullptr);
}

int64_t MlpModel::MemoryBytes() const {
  int64_t bytes = 64;
  for (const Layer& layer : layers_) {
    bytes += static_cast<int64_t>(layer.w.size() + layer.b.size()) * 8;
  }
  return bytes;
}

Result<MlpModel> TrainMlp(df::Engine* engine, const DenseRows& rows,
                          const MlpConfig& config) {
  VISTA_RETURN_IF_ERROR(rows.CheckTrainable());
  const int64_t dim = rows.dim();

  MlpModel model;
  model.input_dim_ = dim;
  Rng rng(config.seed);
  // The hidden layers, then the output layer's single logit.
  std::vector<int64_t> widths = config.hidden_sizes;
  widths.push_back(1);
  int64_t in_dim = dim;
  for (int64_t width : widths) {
    MlpModel::Layer layer;
    layer.in = in_dim;
    layer.out = width;
    layer.w.resize(in_dim * width);
    layer.b.assign(width, 0.0);
    const double stddev = std::sqrt(2.0 / static_cast<double>(in_dim));
    for (double& v : layer.w) v = rng.NextGaussian() * stddev;
    model.layers_.push_back(std::move(layer));
    in_dim = width;
  }

  const int64_t n = rows.num_rows();
  const size_t num_layers = model.layers_.size();
  // The gradient is one flat vector: layer li's weights at offset[li],
  // then its biases.
  std::vector<int64_t> offset(num_layers + 1, 0);
  for (size_t li = 0; li < num_layers; ++li) {
    const MlpModel::Layer& layer = model.layers_[li];
    offset[li + 1] =
        offset[li] + static_cast<int64_t>(layer.w.size() + layer.b.size());
  }
  const int64_t num_params = offset[num_layers];

  for (int iter = 0; iter < config.iterations; ++iter) {
    const std::vector<double> grad =
        SumBlocks(engine, rows, num_params, [&](int b, double* local) {
          std::vector<std::vector<double>> acts;
          for (int64_t r = 0; r < rows.rows(b); ++r) {
            const double p = model.Forward(rows.x(b, r), &acts);
            const double label = rows.label(b, r);
            // dL/dlogit for sigmoid + cross-entropy.
            std::vector<double> delta{p - label};
            for (int li = static_cast<int>(num_layers) - 1; li >= 0; --li) {
              const MlpModel::Layer& layer = model.layers_[li];
              const std::vector<double>& input = acts[li];
              double* gb = local + offset[li] + layer.w.size();
              std::vector<double> next_delta(layer.in, 0.0);
              for (int64_t r_out = 0; r_out < layer.out; ++r_out) {
                const double d = delta[r_out];
                if (d == 0.0) continue;
                double* gw = local + offset[li] + r_out * layer.in;
                const double* wr = layer.w.data() + r_out * layer.in;
                for (int64_t c = 0; c < layer.in; ++c) {
                  gw[c] += d * input[c];
                  next_delta[c] += d * wr[c];
                }
                gb[r_out] += d;
              }
              if (li > 0) {
                // Gate by the ReLU derivative of the previous activation.
                for (int64_t c = 0; c < layer.in; ++c) {
                  if (acts[li][c] <= 0.0) next_delta[c] = 0.0;
                }
              }
              delta = std::move(next_delta);
            }
          }
        });

    const double scale = config.learning_rate / static_cast<double>(n);
    for (size_t li = 0; li < num_layers; ++li) {
      MlpModel::Layer& layer = model.layers_[li];
      const double* g = grad.data() + offset[li];
      for (size_t i = 0; i < layer.w.size(); ++i) layer.w[i] -= scale * g[i];
      g += layer.w.size();
      for (size_t i = 0; i < layer.b.size(); ++i) layer.b[i] -= scale * g[i];
    }
  }
  return model;
}

Result<MlpModel> TrainMlp(df::Engine* engine, const df::Table& table,
                          const FeatureExtractor& extract,
                          const MlpConfig& config) {
  VISTA_ASSIGN_OR_RETURN(DenseSplit rows, Featurize(engine, table, extract));
  return TrainMlp(engine, rows.train, config);
}

}  // namespace vista::ml
