#include "dl/cnn.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace vista::dl {

Result<int> CnnArchitecture::FindLayer(const std::string& name) const {
  for (int i = 0; i < num_layers(); ++i) {
    if (stats_[i].name == name) return i;
  }
  return Status::NotFound("no layer named '" + name + "' in " + name_);
}

Result<std::vector<int>> CnnArchitecture::TopLayers(int k) const {
  if (k < 1 || k > num_layers()) {
    return Status::InvalidArgument(
        "TopLayers: k=" + std::to_string(k) + " out of range for " + name_ +
        " with " + std::to_string(num_layers()) + " layers");
  }
  std::vector<int> out;
  out.reserve(k);
  for (int i = num_layers() - k; i < num_layers(); ++i) out.push_back(i);
  return out;
}

int64_t CnnArchitecture::total_params() const {
  int64_t n = 0;
  for (const auto& s : stats_) n += s.param_count;
  return n;
}

int64_t CnnArchitecture::transfer_feature_count(int layer_index,
                                                int grid) const {
  const LayerStat& s = stats_[layer_index];
  if (!s.convolutional) return s.output_shape.num_elements();
  const int64_t h = s.output_shape.dim(1);
  const int64_t w = s.output_shape.dim(2);
  const int64_t gh = std::min<int64_t>(grid, h);
  const int64_t gw = std::min<int64_t>(grid, w);
  return s.output_shape.dim(0) * gh * gw;
}

CnnBuilder::CnnBuilder(std::string name, Shape input_shape) {
  arch_.name_ = std::move(name);
  arch_.input_shape_ = std::move(input_shape);
}

CnnBuilder& CnnBuilder::BeginLayer(std::string name) {
  FinishLayer();
  current_.name = std::move(name);
  layer_open_ = true;
  return *this;
}

void CnnBuilder::FinishLayer() {
  if (layer_open_) {
    arch_.specs_.push_back(std::move(current_));
    current_ = LogicalLayerSpec{};
    layer_open_ = false;
  }
}

CnnBuilder& CnnBuilder::Conv(int64_t filters, int kernel, int stride, int pad,
                             bool relu, int groups) {
  OpSpec op;
  op.kind = OpKind::kConv;
  op.out_channels = filters;
  op.kernel = kernel;
  op.stride = stride;
  op.pad = pad;
  op.relu = relu;
  op.groups = groups;
  current_.ops.push_back(op);
  return *this;
}

CnnBuilder& CnnBuilder::MaxPool(int window, int stride, int pad) {
  OpSpec op;
  op.kind = OpKind::kMaxPool;
  op.window = window;
  op.stride = stride;
  op.pad = pad;
  current_.ops.push_back(op);
  return *this;
}

CnnBuilder& CnnBuilder::AvgPool(int window, int stride, int pad) {
  OpSpec op;
  op.kind = OpKind::kAvgPool;
  op.window = window;
  op.stride = stride;
  op.pad = pad;
  current_.ops.push_back(op);
  return *this;
}

CnnBuilder& CnnBuilder::GlobalAvgPool() {
  OpSpec op;
  op.kind = OpKind::kGlobalAvgPool;
  current_.ops.push_back(op);
  return *this;
}

CnnBuilder& CnnBuilder::Lrn() {
  OpSpec op;
  op.kind = OpKind::kLrn;
  current_.ops.push_back(op);
  return *this;
}

CnnBuilder& CnnBuilder::Fc(int64_t units, bool relu) {
  OpSpec op;
  op.kind = OpKind::kFc;
  op.out_channels = units;
  op.relu = relu;
  current_.ops.push_back(op);
  return *this;
}

CnnBuilder& CnnBuilder::Flatten() {
  OpSpec op;
  op.kind = OpKind::kFlatten;
  current_.ops.push_back(op);
  return *this;
}

CnnBuilder& CnnBuilder::Bottleneck(int64_t mid_channels, int64_t out_channels,
                                   int stride, bool project) {
  OpSpec op;
  op.kind = OpKind::kBottleneck;
  op.mid_channels = mid_channels;
  op.out_channels = out_channels;
  op.stride = stride;
  op.relu = true;
  op.project = project;
  current_.ops.push_back(op);
  return *this;
}

Result<CnnArchitecture> CnnBuilder::Build() {
  FinishLayer();
  if (arch_.specs_.empty()) {
    return Status::InvalidArgument("CNN '" + arch_.name_ + "' has no layers");
  }
  Shape shape = arch_.input_shape_;
  int64_t cumulative = 0;
  arch_.stats_.clear();
  arch_.stats_.reserve(arch_.specs_.size());
  for (const LogicalLayerSpec& layer : arch_.specs_) {
    if (layer.ops.empty()) {
      return Status::InvalidArgument("layer '" + layer.name +
                                     "' has no ops in " + arch_.name_);
    }
    LayerStat stat;
    stat.name = layer.name;
    for (OpSpec op : layer.ops) {
      // FC on a non-vector input implies a flatten, as in the builder API.
      if (op.kind == OpKind::kFc && shape.rank() != 1) {
        shape = Shape{shape.num_elements()};
      }
      VISTA_ASSIGN_OR_RETURN(OpStat op_stat, AnalyzeOp(op, shape));
      stat.flops += op_stat.flops;
      stat.param_count += op_stat.param_count;
      shape = op_stat.output_shape;
    }
    cumulative += stat.flops;
    stat.cumulative_flops = cumulative;
    stat.output_shape = shape;
    stat.convolutional = shape.rank() == 3;
    arch_.stats_.push_back(std::move(stat));
  }
  return std::move(arch_);
}

Result<CnnModel> CnnModel::Instantiate(const CnnArchitecture& arch,
                                       uint64_t seed, WeightInit init) {
  CnnModel model;
  model.arch_ = std::make_shared<CnnArchitecture>(arch);
  Rng rng(seed);
  Shape shape = arch.input_shape();
  bool first_conv = true;
  for (int li = 0; li < arch.num_layers(); ++li) {
    LayerInstance layer;
    int64_t quant_flops = 0;
    for (OpSpec op : arch.layer_spec(li).ops) {
      if (op.kind == OpKind::kFc && shape.rank() != 1) {
        shape = Shape{shape.num_elements()};
      }
      VISTA_ASSIGN_OR_RETURN(
          PrimitiveInstance prim,
          InstantiatePrimitive(op, shape, &rng, init, &first_conv));
      VISTA_ASSIGN_OR_RETURN(OpStat stat, AnalyzeOp(op, shape));
      if (op.kind == OpKind::kConv || op.kind == OpKind::kFc) {
        quant_flops += stat.flops;
      }
      if (op.kind == OpKind::kFc) layer.has_fc = true;
      shape = stat.output_shape;
      layer.primitives.push_back(std::move(prim));
    }
    model.layers_.push_back(std::move(layer));
    model.layer_quant_flops_.push_back(quant_flops);
  }
  return model;
}

Result<Tensor> CnnModel::Run(const Tensor& image) const {
  return RunRange(image, 0, arch_->num_layers() - 1);
}

Result<Tensor> CnnModel::RunRange(const Tensor& input, int from, int to,
                                  const CnnOptions& opts) const {
  VISTA_ASSIGN_OR_RETURN(std::vector<Tensor> out,
                         RunRangeBatch({input}, from, to, opts));
  return std::move(out.front());
}

namespace {

/// Runs `step(i, kernel_pool)` for every image i in [0, n): one pool task
/// per image with serial kernels when the pool has more than one thread and
/// there is more than one image; otherwise in order, with the pool (if any)
/// handed to the image's kernels. Returns the lowest-indexed failure.
/// Failures land in per-image Status slots (pool tasks must not throw).
Status ForEachImage(size_t n, ThreadPool* pool,
                    const std::function<Status(size_t, ThreadPool*)>& step) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) VISTA_RETURN_IF_ERROR(step(i, pool));
    return Status::OK();
  }
  std::vector<Status> statuses(n);
  pool->ParallelFor(static_cast<int64_t>(n), [&](int64_t i) {
    statuses[static_cast<size_t>(i)] = step(static_cast<size_t>(i), nullptr);
  });
  for (const Status& s : statuses) VISTA_RETURN_IF_ERROR(s);
  return Status::OK();
}

}  // namespace

Result<std::vector<Tensor>> CnnModel::RunRangeBatch(
    const std::vector<Tensor>& inputs, int from, int to,
    const CnnOptions& opts) const {
  if (opts.precision == Precision::kInt8 && !int8_calibrated_) {
    return Status::FailedPrecondition(
        "RunRange: int8 precision requested for " + arch_->name() +
        " but the model has no calibration (run CalibrateInt8 first)");
  }
  if (from < 0 || to >= arch_->num_layers() || from > to) {
    return Status::InvalidArgument(
        "RunRange: bad layer range [" + std::to_string(from) + ", " +
        std::to_string(to) + "] for " + arch_->name());
  }
  const Shape& expected = from == 0
                              ? arch_->input_shape()
                              : arch_->layer(from - 1).output_shape;
  std::vector<Tensor> t;
  t.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    if (input.shape() == expected) {
      t.push_back(input);
      continue;
    }
    if (input.num_elements() != expected.num_elements()) {
      return Status::InvalidArgument(
          "RunRange: input shape " + input.shape().ToString() +
          " is not shape-compatible with layer " + std::to_string(from) +
          " of " + arch_->name() + " (expected " + expected.ToString() +
          ")");
    }
    // Flattened inputs (e.g. features stored as vectors in the dataflow
    // engine) are reshaped back to the layer's expected tensor shape.
    t.emplace_back(expected,
                   std::vector<float>(input.data(),
                                      input.data() + input.num_elements()));
  }
  if (t.empty()) return t;  // No work, so no profiling samples.

  const bool int8 = opts.precision == Precision::kInt8;
  const auto latency_of = [this](int li) {
    return layer_forward_ms_.empty() ? nullptr : layer_forward_ms_[li];
  };
  const auto count = [&](int li, int64_t images) {
    if (layer_flops_.empty()) return;
    layer_flops_[li]->Add(arch_->layer(li).flops * images);
    if (int8) layer_int8_ops_[li]->Add(layer_quant_flops_[li] * images);
  };
  int li = from;
  while (li <= to) {
    if (!layers_[li].has_fc) {
      // A maximal run of FC-free layers: each image runs the whole run as
      // its own chain, so only one activation per image is live at a time.
      int end = li;
      while (end < to && !layers_[end + 1].has_fc) ++end;
      VISTA_RETURN_IF_ERROR(ForEachImage(
          t.size(), opts.pool, [&](size_t i, ThreadPool* kernels) -> Status {
            for (int l = li; l <= end; ++l) {
              obs::ScopedLatency latency(latency_of(l));
              count(l, 1);
              for (const PrimitiveInstance& prim : layers_[l].primitives) {
                VISTA_ASSIGN_OR_RETURN(
                    t[i], ApplyPrimitive(prim, t[i], kernels,
                                         opts.precision));
              }
            }
            return Status::OK();
          }));
      li = end + 1;
      continue;
    }
    // A layer with an FC primitive advances the batch together: every kFc
    // primitive runs as packed GEMMs over blocks of images, and any other
    // primitive in the layer runs per image.
    obs::ScopedLatency latency(latency_of(li));
    count(li, static_cast<int64_t>(t.size()));
    for (const PrimitiveInstance& prim : layers_[li].primitives) {
      if (prim.spec.kind == OpKind::kFc) {
        VISTA_ASSIGN_OR_RETURN(
            t, ApplyFcBatch(prim, t, opts.pool, opts.precision));
        continue;
      }
      VISTA_RETURN_IF_ERROR(ForEachImage(
          t.size(), opts.pool, [&](size_t i, ThreadPool* kernels) -> Status {
            VISTA_ASSIGN_OR_RETURN(
                t[i], ApplyPrimitive(prim, t[i], kernels, opts.precision));
            return Status::OK();
          }));
    }
    ++li;
  }
  return t;
}

void CnnModel::EnableProfiling(obs::Registry* registry) {
  layer_forward_ms_.clear();
  layer_flops_.clear();
  layer_int8_ops_.clear();
  if (registry == nullptr) return;
  layer_forward_ms_.reserve(arch_->num_layers());
  layer_flops_.reserve(arch_->num_layers());
  layer_int8_ops_.reserve(arch_->num_layers());
  for (int i = 0; i < arch_->num_layers(); ++i) {
    const std::string suffix = arch_->name() + "." + arch_->layer(i).name;
    layer_forward_ms_.push_back(
        registry->histogram("dl.forward_ms." + suffix));
    layer_flops_.push_back(registry->counter("dl.flops." + suffix));
    layer_int8_ops_.push_back(registry->counter("dl.int8_ops." + suffix));
  }
}

std::vector<const Tensor*> CnnModel::weight_tensors() const {
  std::vector<const Tensor*> out;
  for (const LayerInstance& layer : layers_) {
    for (const PrimitiveInstance& prim : layer.primitives) {
      for (const Tensor& w : prim.weights) out.push_back(&w);
    }
  }
  return out;
}

Status CnnModel::SetWeights(const std::vector<Tensor>& weights) {
  size_t at = 0;
  for (LayerInstance& layer : layers_) {
    for (PrimitiveInstance& prim : layer.primitives) {
      for (Tensor& w : prim.weights) {
        if (at >= weights.size()) {
          return Status::InvalidArgument(
              "SetWeights: too few tensors (" +
              std::to_string(weights.size()) + ")");
        }
        if (weights[at].shape() != w.shape()) {
          return Status::InvalidArgument(
              "SetWeights: shape mismatch at tensor " + std::to_string(at) +
              ": " + weights[at].shape().ToString() + " vs " +
              w.shape().ToString());
        }
        w = weights[at++];
      }
      // Quantized copies and scales were derived from the old weights.
      prim.quant = PrimitiveInstance::QuantState{};
    }
  }
  if (at != weights.size()) {
    return Status::InvalidArgument("SetWeights: too many tensors");
  }
  int8_calibrated_ = false;
  return Status::OK();
}

Status CnnModel::CalibrateInt8(const std::vector<Tensor>& images) {
  if (images.empty()) {
    return Status::InvalidArgument(
        "CalibrateInt8: empty calibration batch for " + arch_->name());
  }
  // Pass 1: fp32 forward over the batch, recording the max-abs of every
  // kConv/kFc primitive's input — the per-tensor symmetric activation
  // scale. (kFc flattens, which does not change the max-abs.)
  std::vector<std::vector<float>> max_abs(layers_.size());
  for (size_t li = 0; li < layers_.size(); ++li) {
    max_abs[li].assign(layers_[li].primitives.size(), 0.0f);
  }
  const Shape& expected = arch_->input_shape();
  for (const Tensor& image : images) {
    if (image.shape() != expected &&
        image.num_elements() != expected.num_elements()) {
      return Status::InvalidArgument(
          "CalibrateInt8: image shape " + image.shape().ToString() +
          " is not shape-compatible with " + arch_->name() + " input " +
          expected.ToString());
    }
    Tensor t = image.shape() == expected
                   ? image
                   : Tensor(expected,
                            std::vector<float>(
                                image.data(),
                                image.data() + image.num_elements()));
    for (size_t li = 0; li < layers_.size(); ++li) {
      for (size_t pi = 0; pi < layers_[li].primitives.size(); ++pi) {
        const PrimitiveInstance& prim = layers_[li].primitives[pi];
        if (prim.spec.kind == OpKind::kConv ||
            prim.spec.kind == OpKind::kFc) {
          max_abs[li][pi] = std::max(
              max_abs[li][pi], MaxAbs(t.data(), t.num_elements()));
        }
        VISTA_ASSIGN_OR_RETURN(t, ApplyPrimitive(prim, t));
      }
    }
  }
  // Pass 2: quantize each kConv/kFc weight tensor per output channel and
  // bind the calibrated activation scale.
  for (size_t li = 0; li < layers_.size(); ++li) {
    for (size_t pi = 0; pi < layers_[li].primitives.size(); ++pi) {
      PrimitiveInstance& prim = layers_[li].primitives[pi];
      if (prim.spec.kind != OpKind::kConv && prim.spec.kind != OpKind::kFc) {
        continue;
      }
      VISTA_ASSIGN_OR_RETURN(QuantizedWeights qw,
                             QuantizeWeightsPerChannel(prim.weights[0]));
      prim.quant.weights = std::move(qw);
      prim.quant.act_scale = SymmetricScale(max_abs[li][pi]);
      prim.quant.ready = true;
    }
  }
  int8_calibrated_ = true;
  return Status::OK();
}

Result<Tensor> TransferFeaturize(const Tensor& layer_output, int grid) {
  if (layer_output.shape().rank() == 3) {
    VISTA_ASSIGN_OR_RETURN(Tensor pooled, GridMaxPool(layer_output, grid));
    return pooled.Flatten();
  }
  return layer_output.Flatten();
}

}  // namespace vista::dl
