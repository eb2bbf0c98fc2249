#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>

namespace vista::ml {
namespace {

double GiniFromCounts(int64_t pos, int64_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(pos) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

int DecisionTreeModel::Predict(const float* x) const {
  if (nodes_.empty()) return 0;
  int idx = 0;
  for (;;) {
    const Node& node = nodes_[idx];
    if (node.leaf) return node.prediction;
    idx = x[node.feature] <= node.threshold ? node.left : node.right;
  }
}

int DecisionTreeModel::depth() const {
  int d = 0;
  for (const Node& node : nodes_) d = std::max(d, node.node_depth);
  return d;
}

Result<DecisionTreeModel> TrainDecisionTree(const DenseRows& rows,
                                            const DecisionTreeConfig& config) {
  VISTA_RETURN_IF_ERROR(rows.CheckTrainable());
  // Row r of the training set, in block order.
  std::vector<const float*> x;
  std::vector<int> y;
  x.reserve(rows.num_rows());
  y.reserve(rows.num_rows());
  for (int b = 0; b < rows.num_blocks(); ++b) {
    for (int64_t r = 0; r < rows.rows(b); ++r) {
      x.push_back(rows.x(b, r));
      y.push_back(rows.label(b, r) > 0.5f ? 1 : 0);
    }
  }
  const int64_t dim = rows.dim();

  DecisionTreeModel model;
  // Recursive splitting over index subsets, managed iteratively with an
  // explicit stack of (node index, row indices, depth).
  struct Work {
    int node;
    std::vector<int64_t> rows;
    int depth;
  };
  std::vector<Work> stack;
  model.nodes_.push_back(DecisionTreeModel::Node{});
  {
    std::vector<int64_t> all(x.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
    stack.push_back(Work{0, std::move(all), 0});
  }

  while (!stack.empty()) {
    Work work = std::move(stack.back());
    stack.pop_back();
    DecisionTreeModel::Node& node = model.nodes_[work.node];
    node.node_depth = work.depth;

    int64_t pos = 0;
    for (int64_t row : work.rows) pos += y[row];
    const int64_t total = static_cast<int64_t>(work.rows.size());
    node.prediction = pos * 2 >= total ? 1 : 0;

    const double parent_gini = GiniFromCounts(pos, total);
    if (work.depth >= config.max_depth || parent_gini == 0.0 ||
        total < 2 * config.min_samples_leaf) {
      node.leaf = true;
      continue;
    }

    // Best split search: quantile thresholds per feature.
    double best_gain = 1e-9;
    int best_feature = -1;
    float best_threshold = 0.0f;
    std::vector<float> values(total);
    for (int64_t f = 0; f < dim; ++f) {
      for (int64_t i = 0; i < total; ++i) {
        values[i] = x[work.rows[i]][f];
      }
      std::vector<float> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front() == sorted.back()) continue;  // Constant feature.
      for (int t = 1; t <= config.num_thresholds; ++t) {
        const size_t qi = static_cast<size_t>(
            static_cast<double>(t) /
            static_cast<double>(config.num_thresholds + 1) *
            static_cast<double>(total - 1));
        const float threshold = sorted[qi];
        if (threshold == sorted.back()) continue;
        int64_t left_n = 0, left_pos = 0;
        for (int64_t i = 0; i < total; ++i) {
          if (values[i] <= threshold) {
            ++left_n;
            left_pos += y[work.rows[i]];
          }
        }
        const int64_t right_n = total - left_n;
        if (left_n < config.min_samples_leaf ||
            right_n < config.min_samples_leaf) {
          continue;
        }
        const int64_t right_pos = pos - left_pos;
        const double child_gini =
            (static_cast<double>(left_n) * GiniFromCounts(left_pos, left_n) +
             static_cast<double>(right_n) *
                 GiniFromCounts(right_pos, right_n)) /
            static_cast<double>(total);
        const double gain = parent_gini - child_gini;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = threshold;
        }
      }
    }

    if (best_feature < 0) {
      node.leaf = true;
      continue;
    }

    std::vector<int64_t> left_rows, right_rows;
    for (int64_t row : work.rows) {
      if (x[row][best_feature] <= best_threshold) {
        left_rows.push_back(row);
      } else {
        right_rows.push_back(row);
      }
    }
    node.leaf = false;
    node.feature = best_feature;
    node.threshold = best_threshold;
    const int left_idx = static_cast<int>(model.nodes_.size());
    model.nodes_.push_back(DecisionTreeModel::Node{});
    const int right_idx = static_cast<int>(model.nodes_.size());
    model.nodes_.push_back(DecisionTreeModel::Node{});
    // Note: `node` reference may dangle after push_back; reindex.
    model.nodes_[work.node].left = left_idx;
    model.nodes_[work.node].right = right_idx;
    stack.push_back(Work{left_idx, std::move(left_rows), work.depth + 1});
    stack.push_back(Work{right_idx, std::move(right_rows), work.depth + 1});
  }
  return model;
}

Result<DecisionTreeModel> TrainDecisionTree(
    df::Engine* engine, const df::Table& table,
    const FeatureExtractor& extract, const DecisionTreeConfig& config) {
  VISTA_ASSIGN_OR_RETURN(DenseSplit rows, Featurize(engine, table, extract));
  return TrainDecisionTree(rows.train, config);
}

}  // namespace vista::ml
