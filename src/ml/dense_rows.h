#ifndef VISTA_ML_DENSE_ROWS_H_
#define VISTA_ML_DENSE_ROWS_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "tensor/tensor.h"

namespace vista::ml {

/// Maps a dataflow record to a training example: fills `*x` with the
/// feature vector and `*label` with the binary target (0/1). The extractor
/// must produce the same dimensionality for every record.
using FeatureExtractor =
    std::function<Status(const df::Record&, std::vector<float>* x,
                         float* label)>;

struct DenseSplit;

/// The training rows of one table, featurized once: block b holds
/// partition b's rows, in record order, as one dense row-major float
/// matrix whose row r is [label | X | g_l(f̂_l)].
///
/// Every trainer reads these blocks instead of the records: it computes one
/// partial (gradient, sums, confusion counts) per block on the engine's
/// pool, writes it to slot b, and merges the slots in block-index order
/// (SumBlocks), so a trained model is bitwise identical at any thread
/// count. The bytes are charged to the User region (the downstream model's
/// working set, Eq. 10) for as long as any copy of the rows lives, so
/// copies must not outlive the engine that built them.
class DenseRows {
 public:
  int64_t dim() const { return dim_; }
  int64_t num_rows() const { return num_rows_; }
  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  int64_t rows(int b) const { return blocks_[b].shape().dim(0); }
  /// The dim() features of row r of block b.
  const float* x(int b, int64_t r) const {
    return blocks_[b].data() + r * (dim_ + 1) + 1;
  }
  /// The 0/1 label of row r of block b.
  float label(int b, int64_t r) const {
    return blocks_[b].data()[r * (dim_ + 1)];
  }
  /// Bytes held by the blocks (the User-region charge).
  int64_t bytes() const { return num_rows_ * (dim_ + 1) * 4; }
  /// InvalidArgument unless there is at least one row with features.
  Status CheckTrainable() const;

 private:
  friend Result<DenseSplit> Featurize(
      df::Engine*, const df::Table&, const FeatureExtractor&,
      const std::function<bool(const df::Record&)>&);

  std::vector<Tensor> blocks_;
  int64_t dim_ = 0;
  int64_t num_rows_ = 0;
  /// Releases the User-region charge when the last copy goes away.
  std::shared_ptr<void> charge_;
};

/// The two row sets of one featurize pass.
struct DenseSplit {
  DenseRows train;
  DenseRows holdout;
};

/// Featurizes `table` with one Engine::MapPartitions pass: each map task
/// runs `extract` once per record of its partition and emits a single
/// record holding the block, so map-task faults, retries and lineage apply
/// as to any other pass. Records for which `holdout` returns true go to
/// the second row set (a null `holdout` keeps every row in `train`).
/// Fails with ResourceExhausted when the blocks do not fit the User budget.
Result<DenseSplit> Featurize(
    df::Engine* engine, const df::Table& table, const FeatureExtractor& extract,
    const std::function<bool(const df::Record&)>& holdout = nullptr);

/// Runs `partial(b, slot)` for every block on the engine's pool, each
/// adding block b's contribution into its own zeroed slot of `width`
/// doubles, and returns the slots summed in block-index order.
std::vector<double> SumBlocks(
    df::Engine* engine, const DenseRows& rows, int64_t width,
    const std::function<void(int b, double* slot)>& partial);

}  // namespace vista::ml

#endif  // VISTA_ML_DENSE_ROWS_H_
