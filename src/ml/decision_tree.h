#ifndef VISTA_ML_DECISION_TREE_H_
#define VISTA_ML_DECISION_TREE_H_

#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "ml/logistic_regression.h"

namespace vista::ml {

/// CART binary classification tree with Gini impurity (the paper's
/// "conventional decision tree" downstream model, Section 5.2). Trained
/// driver-side on the featurized rows, as MLlib's single-tree trainer
/// effectively does for moderate data.
struct DecisionTreeConfig {
  int max_depth = 5;
  int min_samples_leaf = 8;
  /// Number of candidate thresholds examined per feature (quantile cuts).
  int num_thresholds = 16;
};

class DecisionTreeModel {
 public:
  DecisionTreeModel() = default;

  struct Node {
    bool leaf = true;
    int prediction = 0;
    int feature = -1;
    float threshold = 0.0f;
    int left = -1;   // x[feature] <= threshold
    int right = -1;  // x[feature] > threshold
    int node_depth = 0;
  };

  int Predict(const float* x) const;
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int depth() const;
  /// Node 0 is the root; children follow their parent.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  friend Result<DecisionTreeModel> TrainDecisionTree(const DenseRows&,
                                                     const DecisionTreeConfig&);

  std::vector<Node> nodes_;
};

/// Trains a decision tree on featurized rows, taken in block order.
Result<DecisionTreeModel> TrainDecisionTree(const DenseRows& rows,
                                            const DecisionTreeConfig& config);

/// Featurizes `table` once (see Featurize), then trains on the rows.
Result<DecisionTreeModel> TrainDecisionTree(df::Engine* engine,
                                            const df::Table& table,
                                            const FeatureExtractor& extract,
                                            const DecisionTreeConfig& config);

}  // namespace vista::ml

#endif  // VISTA_ML_DECISION_TREE_H_
