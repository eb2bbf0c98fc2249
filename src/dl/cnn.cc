#include "dl/cnn.h"

#include <algorithm>
#include <cmath>

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
  ThreadPool* pool = opts.pool;
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
  if (input.shape() != expected &&
      input.num_elements() != expected.num_elements()) {
    return Status::InvalidArgument(
        "RunRange: input shape " + input.shape().ToString() +
        " is not shape-compatible with layer " + std::to_string(from) +
        " of " + arch_->name() + " (expected " + expected.ToString() + ")");
  }
  // Flattened inputs (e.g. features stored as vectors in the dataflow
  // engine) are reshaped back to the layer's expected tensor shape.
  Tensor t = input.shape() == expected
                 ? input
                 : Tensor(expected, std::vector<float>(
                                        input.data(),
                                        input.data() + input.num_elements()));
  const bool int8 = opts.precision == Precision::kInt8;
  for (int li = from; li <= to; ++li) {
    obs::ScopedLatency latency(
        layer_forward_ms_.empty() ? nullptr : layer_forward_ms_[li]);
    if (!layer_flops_.empty()) layer_flops_[li]->Add(arch_->layer(li).flops);
    if (int8 && !layer_int8_ops_.empty()) {
      layer_int8_ops_[li]->Add(layer_quant_flops_[li]);
    }
    for (const PrimitiveInstance& prim : layers_[li].primitives) {
      VISTA_ASSIGN_OR_RETURN(t, ApplyPrimitive(prim, t, pool,
                                               opts.precision));
    }
  }
  return t;
}

Result<std::vector<Tensor>> CnnModel::RunRangeBatch(
    const std::vector<Tensor>& inputs, int from, int to,
    const CnnOptions& opts) const {
  std::vector<Tensor> out(inputs.size());
  if (inputs.empty()) return out;
  ThreadPool* pool = opts.pool;
  if (pool == nullptr || pool->num_threads() <= 1 || inputs.size() == 1) {
    // Serial over images; a non-null pool is spent inside each kernel.
    for (size_t i = 0; i < inputs.size(); ++i) {
      VISTA_ASSIGN_OR_RETURN(out[i], RunRange(inputs[i], from, to, opts));
    }
    return out;
  }
  // One task per image, each with serial kernels; failures land in
  // per-image Status slots (pool tasks must not throw).
  CnnOptions per_image = opts;
  per_image.pool = nullptr;
  std::vector<Status> statuses(inputs.size());
  pool->ParallelFor(static_cast<int64_t>(inputs.size()), [&](int64_t i) {
    auto run = RunRange(inputs[i], from, to, per_image);
    if (run.ok()) {
      out[i] = std::move(run).value();
    } else {
      statuses[i] = run.status();
    }
  });
  for (const Status& s : statuses) {
    VISTA_RETURN_IF_ERROR(s);
  }
  return out;
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
