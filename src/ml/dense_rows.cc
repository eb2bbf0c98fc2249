#include "ml/dense_rows.h"

#include <algorithm>

namespace vista::ml {

Result<DenseSplit> Featurize(
    df::Engine* engine, const df::Table& table, const FeatureExtractor& extract,
    const std::function<bool(const df::Record&)>& holdout) {
  // The UDF captures by value: partition lineage keeps it, and a
  // recomputation must not reach into this frame.
  auto pass = engine->MapPartitions(
      table,
      [extract, holdout](std::vector<df::Record> records)
          -> Result<std::vector<df::Record>> {
        std::vector<int> side(records.size(), 0);
        int64_t count[2] = {0, 0};
        for (size_t i = 0; i < records.size(); ++i) {
          side[i] = holdout && holdout(records[i]) ? 1 : 0;
          ++count[side[i]];
        }
        std::vector<float> data[2];
        std::vector<float> x;
        float label = 0;
        int64_t dim = -1;
        for (size_t i = 0; i < records.size(); ++i) {
          VISTA_RETURN_IF_ERROR(extract(records[i], &x, &label));
          if (dim < 0) {
            dim = static_cast<int64_t>(x.size());
            for (int s = 0; s < 2; ++s) data[s].reserve(count[s] * (dim + 1));
          }
          if (static_cast<int64_t>(x.size()) != dim) {
            return Status::InvalidArgument(
                "inconsistent feature dimensionality within a partition");
          }
          std::vector<float>& out = data[side[i]];
          out.push_back(label);
          out.insert(out.end(), x.begin(), x.end());
        }
        df::Record blocks;
        for (int s = 0; s < 2; ++s) {
          blocks.features.Append(
              Tensor(Shape{count[s], std::max<int64_t>(dim, 0) + 1},
                     std::move(data[s])));
        }
        return std::vector<df::Record>{std::move(blocks)};
      });
  VISTA_RETURN_IF_ERROR(pass.status());

  DenseSplit split;
  DenseRows* const sets[2] = {&split.train, &split.holdout};
  for (const auto& p : pass->partitions) {
    VISTA_ASSIGN_OR_RETURN(const std::vector<df::Record>* records,
                           p->records());
    for (int s = 0; s < 2; ++s) {
      DenseRows& set = *sets[s];
      const Tensor& block = records->front().features.at(s);
      const int64_t rows = block.shape().dim(0);
      const int64_t dim = block.shape().dim(1) - 1;
      if (rows > 0 && set.num_rows_ > 0 && dim != set.dim_) {
        return Status::InvalidArgument(
            "inconsistent feature dimensionality across partitions");
      }
      if (rows > 0) set.dim_ = dim;
      set.num_rows_ += rows;
      set.blocks_.push_back(block);
    }
  }

  df::MemoryManager& memory = engine->memory();
  for (DenseRows* set : sets) {
    const int64_t bytes = set->bytes();
    VISTA_RETURN_IF_ERROR(memory.TryReserve(df::MemoryRegion::kUser, bytes));
    // A null pointer with a deleter: the deleter runs when the last copy
    // of the rows is destroyed.
    set->charge_ = std::shared_ptr<void>(nullptr, [&memory, bytes](void*) {
      memory.Release(df::MemoryRegion::kUser, bytes);
    });
  }
  return split;
}

Status DenseRows::CheckTrainable() const {
  if (num_rows_ == 0) {
    return Status::InvalidArgument("cannot train on an empty table");
  }
  if (dim_ == 0) {
    return Status::InvalidArgument("feature extractor produced no features");
  }
  return Status::OK();
}

std::vector<double> SumBlocks(
    df::Engine* engine, const DenseRows& rows, int64_t width,
    const std::function<void(int b, double* slot)>& partial) {
  std::vector<double> slots(rows.num_blocks() * width, 0.0);
  engine->pool()->ParallelFor(rows.num_blocks(), [&](int64_t b) {
    partial(static_cast<int>(b), slots.data() + b * width);
  });
  std::vector<double> sum(width, 0.0);
  for (int b = 0; b < rows.num_blocks(); ++b) {
    for (int64_t i = 0; i < width; ++i) sum[i] += slots[b * width + i];
  }
  return sum;
}

}  // namespace vista::ml
