#ifndef VISTA_DL_CNN_H_
#define VISTA_DL_CNN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dl/op_spec.h"
#include "dl/primitive.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace vista {
class ThreadPool;
}

namespace vista::dl {

/// Threading and precision choices for RunRange/RunRangeBatch. Null pool =
/// serial everything.
struct CnnOptions {
  ThreadPool* pool = nullptr;
  /// Numeric precision of the forward pass. kInt8 requires the model to be
  /// calibrated first (CnnModel::CalibrateInt8); kConv/kFc primitives then
  /// run on the quantized packed GEMM with fp32 layer boundaries.
  Precision precision = Precision::kFp32;
};

/// Analytic statistics of one logical layer (a paper-sense CNN layer f_i).
struct LayerStat {
  std::string name;
  Shape output_shape;
  /// FLOPs of this logical layer alone.
  int64_t flops = 0;
  /// FLOPs of f̂_i = f_i ∘ ... ∘ f_1 (inference from the raw image through
  /// this layer). This is what makes Lazy's redundancy quantifiable.
  int64_t cumulative_flops = 0;
  int64_t param_count = 0;
  /// True if the output is a CHW feature map (the paper then applies grid
  /// max pooling before flattening, footnote 4).
  bool convolutional = false;
};

/// Declarative description of one logical layer: a named run of primitives.
struct LogicalLayerSpec {
  std::string name;
  std::vector<OpSpec> ops;
};

/// A CNN architecture: input shape + ordered logical layers, with all
/// statistics (shapes, FLOPs, parameters) computed analytically. Building an
/// architecture allocates no weights, so the full-size AlexNet/VGG16/ResNet50
/// definitions are cheap; they power the optimizer and the simulator.
class CnnArchitecture {
 public:
  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }

  int num_layers() const { return static_cast<int>(stats_.size()); }
  const LayerStat& layer(int i) const { return stats_[i]; }
  const std::vector<LayerStat>& layers() const { return stats_; }
  const LogicalLayerSpec& layer_spec(int i) const { return specs_[i]; }

  /// Index of the layer named `name`, or NotFound.
  Result<int> FindLayer(const std::string& name) const;

  /// Indices of the top `k` logical layers, ordered bottom-up (the paper's
  /// L, "starting from the top most layer"). E.g. k=4 on AlexNet yields
  /// {conv5, fc6, fc7, fc8}.
  Result<std::vector<int>> TopLayers(int k) const;

  int64_t total_params() const;
  int64_t total_flops() const { return stats_.back().cumulative_flops; }
  /// Size of the serialized model file (float32 weights).
  int64_t serialized_bytes() const { return total_params() * 4; }

  /// Number of features g_l(f̂_l(I)) contributes after the paper's
  /// dimensionality reduction: conv layers are grid-max-pooled to
  /// grid x grid x depth, others flattened as-is.
  int64_t transfer_feature_count(int layer_index, int grid = 2) const;

 private:
  friend class CnnBuilder;
  std::string name_;
  Shape input_shape_;
  std::vector<LogicalLayerSpec> specs_;
  std::vector<LayerStat> stats_;
};

/// Fluent builder for CnnArchitecture.
///
///   CnnBuilder b("AlexNet", Shape{3, 227, 227});
///   b.BeginLayer("conv1").Conv(96, 11, 4, 0).Lrn().MaxPool(3, 2);
///   ...
///   VISTA_ASSIGN_OR_RETURN(auto arch, b.Build());
class CnnBuilder {
 public:
  CnnBuilder(std::string name, Shape input_shape);

  CnnBuilder& BeginLayer(std::string name);
  /// Convolution with fused ReLU (pass relu=false for linear convs);
  /// `groups` > 1 selects grouped convolution (AlexNet conv2/4/5).
  CnnBuilder& Conv(int64_t filters, int kernel, int stride, int pad,
                   bool relu = true, int groups = 1);
  CnnBuilder& MaxPool(int window, int stride, int pad = 0);
  CnnBuilder& AvgPool(int window, int stride, int pad = 0);
  CnnBuilder& GlobalAvgPool();
  CnnBuilder& Lrn();
  /// Fully connected with fused ReLU by default; an implicit flatten is
  /// applied if the running shape is not rank-1.
  CnnBuilder& Fc(int64_t units, bool relu = true);
  CnnBuilder& Flatten();
  /// ResNet bottleneck block; `project` selects a projected shortcut.
  CnnBuilder& Bottleneck(int64_t mid_channels, int64_t out_channels,
                         int stride, bool project);

  /// Validates every op against the propagated shapes and produces the
  /// architecture. The builder is consumed.
  Result<CnnArchitecture> Build();

 private:
  void FinishLayer();

  CnnArchitecture arch_;
  LogicalLayerSpec current_;
  bool layer_open_ = false;
};

/// An instantiated, runnable CNN: architecture + weights.
///
/// This is the DL-system substrate: Vista's executors call RunRange to
/// perform *partial CNN inference* f̂_{i→j} (Definition 3.7).
class CnnModel {
 public:
  /// Allocates and initializes weights for `arch` deterministically from
  /// `seed`. Memory cost is arch.serialized_bytes(); callers instantiate
  /// micro variants in tests and full models only when truly running them.
  static Result<CnnModel> Instantiate(const CnnArchitecture& arch,
                                      uint64_t seed,
                                      WeightInit init = WeightInit::kHe);

  const CnnArchitecture& arch() const { return *arch_; }

  /// Full inference f(t): raw image through the last logical layer.
  Result<Tensor> Run(const Tensor& image) const;

  /// Partial inference f̂_{from→to}: `input` must be the output of logical
  /// layer `from - 1` (or the raw image iff from == 0); runs logical layers
  /// [from, to] inclusive. This is RunRangeBatch over a batch of one, so
  /// its bits equal that image's output in any batch. A non-null
  /// `opts.pool` parallelizes each conv and FC GEMM across its row tiles,
  /// and `opts.precision` selects the numeric path. FailedPrecondition
  /// when int8 is requested without calibration.
  Result<Tensor> RunRange(const Tensor& input, int from, int to,
                          const CnnOptions& opts = {}) const;

  /// Batched partial inference over every tensor in `inputs` — a Spark
  /// partition handed to the DL system whole. Each maximal run of layers
  /// without an FC primitive runs per image: with a multi-thread
  /// `opts.pool` and more than one image each image is one pool task with
  /// serial kernels; otherwise images run in order and the pool, if any,
  /// goes to each image's kernels. A layer with an FC primitive advances
  /// the batch together: each kFc primitive is one packed GEMM per block of
  /// up to kFcBlockColumns images (ApplyFcBatch, with the pool splitting
  /// its row blocks), so the layer's weights stream once per block; any
  /// other primitive in it runs per image as above. Convs never run over
  /// the batch, so only one conv activation per image is live at a time.
  /// Every output is bit-identical at any batch size, with or without a
  /// pool. Results are positionally aligned with `inputs`; the first
  /// failure aborts the batch.
  Result<std::vector<Tensor>> RunRangeBatch(const std::vector<Tensor>& inputs,
                                            int from, int to,
                                            const CnnOptions& opts = {}) const;

  /// f̂_l: raw image through logical layer `to`.
  Result<Tensor> RunTo(const Tensor& image, int to) const {
    return RunRange(image, 0, to);
  }

  /// All weight tensors in instantiation order (layer-major,
  /// primitive-major). Used by dl/weights_io.h.
  std::vector<const Tensor*> weight_tensors() const;

  /// Replaces every weight with the tensors in `weights` (must match
  /// weight_tensors() in count and shapes). Used when loading serialized
  /// models. Invalidates any int8 calibration (scales were computed for
  /// the old weights).
  Status SetWeights(const std::vector<Tensor>& weights);

  /// Calibrates the model for int8 inference: one fp32 forward pass per
  /// calibration image (ApplyPrimitive, so FC layers take the batched GEMM
  /// path at n = 1, with the same bits as any partition) records each
  /// kConv/kFc primitive's input max-abs (per-tensor symmetric activation
  /// scale), then every such primitive's weight tensor is quantized per
  /// output channel. Idempotent;
  /// recalibrating replaces the scales. The batch must be non-empty and
  /// shape-compatible with the architecture's input.
  Status CalibrateInt8(const std::vector<Tensor>& images);

  /// True once CalibrateInt8 has succeeded (and the weights have not been
  /// replaced since).
  bool has_int8_calibration() const { return int8_calibrated_; }

  /// Turns on per-layer forward profiling: every subsequent RunRange /
  /// RunRangeBatch records each logical layer's wall time into a
  /// "dl.forward_ms.<arch>.<layer>" histogram and adds the layer's analytic
  /// FLOPs, once per image, to a "dl.flops.<arch>.<layer>" counter in
  /// `registry` (instruments resolved here, once) — the counters divide
  /// into the histograms' sums for achieved per-layer GFLOP/s. One
  /// histogram sample is one image's pass through an FC-free layer, but
  /// one whole batch's pass through a layer with an FC primitive (its
  /// counter then adds FLOPs x batch size in one step). Int8 runs
  /// additionally add the layer's quantizable (kConv/kFc) ops per image to
  /// a "dl.int8_ops.<arch>.<layer>" counter. Null disables profiling
  /// again. The registry must outlive the model.
  void EnableProfiling(obs::Registry* registry);

  /// Analytic ops of logical layer `i` that run on the quantized kernel
  /// under int8 (its kConv/kFc primitives; kBottleneck stays fp32). This
  /// is what the dl.int8_ops counters add per int8 forward.
  int64_t layer_int8_ops(int i) const { return layer_quant_flops_[i]; }

 private:
  struct LayerInstance {
    std::vector<PrimitiveInstance> primitives;
    /// True when a kFc primitive makes this layer a batch step.
    bool has_fc = false;
  };

  std::shared_ptr<const CnnArchitecture> arch_;
  std::vector<LayerInstance> layers_;
  /// Per-layer analytic ops attributable to kConv/kFc primitives — the
  /// part an int8 run executes on the quantized kernel.
  std::vector<int64_t> layer_quant_flops_;
  bool int8_calibrated_ = false;
  /// One histogram + FLOP counter per logical layer when profiling is
  /// enabled; empty otherwise (RunRange then skips all timing work).
  std::vector<obs::Histogram*> layer_forward_ms_;
  std::vector<obs::Counter*> layer_flops_;
  std::vector<obs::Counter*> layer_int8_ops_;
};

/// The paper's g_l ∘ (optional pooling): reduces a convolutional layer
/// output to a grid x grid x depth tensor via max pooling, then flattens;
/// non-convolutional outputs are flattened directly.
Result<Tensor> TransferFeaturize(const Tensor& layer_output, int grid = 2);

}  // namespace vista::dl

#endif  // VISTA_DL_CNN_H_
