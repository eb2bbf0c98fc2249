#include "dl/primitive.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace vista::dl {
namespace {

/// Builds a bank of Gabor filters: `filters` orientations x frequencies over
/// `channels` input channels, each kernel x kernel. The documented stand-in
/// for the oriented edge/texture detectors of pretrained first conv layers.
Tensor GaborFilterBank(int64_t filters, int64_t channels, int kernel,
                       Rng* rng) {
  Tensor w(Shape{filters, channels, kernel, kernel});
  float* data = w.mutable_data();
  const double pi = 3.14159265358979323846;
  const int orientations = 8;
  for (int64_t f = 0; f < filters; ++f) {
    const double theta = pi * static_cast<double>(f % orientations) /
                         static_cast<double>(orientations);
    // Wavelengths cycle through a small set of scales per orientation.
    const double lambda =
        2.0 + 2.0 * static_cast<double>((f / orientations) % 3);
    const double sigma = 0.5 * lambda;
    const double gamma = 0.75;
    const double phase = rng->NextDouble(0.0, pi);
    const double center = (kernel - 1) / 2.0;
    for (int64_t c = 0; c < channels; ++c) {
      // Small per-channel weighting so color carries some signal too.
      const double cw = 0.5 + rng->NextDouble();
      for (int y = 0; y < kernel; ++y) {
        for (int x = 0; x < kernel; ++x) {
          const double xr = (x - center) * std::cos(theta) +
                            (y - center) * std::sin(theta);
          const double yr = -(x - center) * std::sin(theta) +
                            (y - center) * std::cos(theta);
          const double envelope = std::exp(
              -(xr * xr + gamma * gamma * yr * yr) / (2.0 * sigma * sigma));
          const double carrier = std::cos(2.0 * pi * xr / lambda + phase);
          data[((f * channels + c) * kernel + y) * kernel + x] =
              static_cast<float>(cw * envelope * carrier);
        }
      }
    }
  }
  return w;
}

Tensor HeInit(Shape shape, int64_t fan_in, Rng* rng) {
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(std::max<int64_t>(1, fan_in)));
  return Tensor::RandomGaussian(std::move(shape), rng, stddev);
}

}  // namespace

const char* PrecisionName(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

Result<PrimitiveInstance> InstantiatePrimitive(const OpSpec& op,
                                               const Shape& shape, Rng* rng,
                                               WeightInit init,
                                               bool* first_conv) {
  PrimitiveInstance prim;
  prim.spec = op;
  prim.input_shape = shape;
  const int64_t c_in = shape.rank() == 3 ? shape.dim(0) : 0;
  switch (op.kind) {
    case OpKind::kConv: {
      const int64_t c_per_group = c_in / std::max(1, op.groups);
      const int64_t fan_in = c_per_group * op.kernel * op.kernel;
      if (*first_conv && init == WeightInit::kGaborFirstConv) {
        prim.weights.push_back(
            GaborFilterBank(op.out_channels, c_per_group, op.kernel, rng));
      } else {
        prim.weights.push_back(HeInit(
            Shape{op.out_channels, c_per_group, op.kernel, op.kernel},
            fan_in, rng));
      }
      prim.weights.push_back(Tensor::Zeros(Shape{op.out_channels}));
      *first_conv = false;
      break;
    }
    case OpKind::kFc: {
      const int64_t in_dim = shape.num_elements();
      prim.weights.push_back(
          HeInit(Shape{op.out_channels, in_dim}, in_dim, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{op.out_channels}));
      break;
    }
    case OpKind::kBottleneck: {
      const int64_t mid = op.mid_channels;
      const int64_t out = op.out_channels;
      // conv1 1x1 (c_in -> mid) + bn.
      prim.weights.push_back(HeInit(Shape{mid, c_in, 1, 1}, c_in, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      prim.weights.push_back(Tensor::Full(Shape{mid}, 1.0f));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      // conv2 3x3 (mid -> mid) + bn.
      prim.weights.push_back(HeInit(Shape{mid, mid, 3, 3}, mid * 9, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      prim.weights.push_back(Tensor::Full(Shape{mid}, 1.0f));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      // conv3 1x1 (mid -> out) + bn. The final BN scale starts small so
      // residual variance does not compound across blocks (the usual
      // residual-branch down-scaling at initialization).
      prim.weights.push_back(HeInit(Shape{out, mid, 1, 1}, mid, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{out}));
      prim.weights.push_back(Tensor::Full(Shape{out}, 0.2f));
      prim.weights.push_back(Tensor::Zeros(Shape{out}));
      if (op.project) {
        prim.weights.push_back(HeInit(Shape{out, c_in, 1, 1}, c_in, rng));
        prim.weights.push_back(Tensor::Zeros(Shape{out}));
        prim.weights.push_back(Tensor::Full(Shape{out}, 1.0f));
        prim.weights.push_back(Tensor::Zeros(Shape{out}));
      }
      *first_conv = false;
      break;
    }
    default:
      break;  // No weights.
  }
  return prim;
}

namespace {

/// True when `prim` runs on the quantized GEMM at `precision`;
/// FailedPrecondition when it should but was never calibrated.
Result<bool> RunsInt8(const PrimitiveInstance& prim, Precision precision) {
  const OpKind kind = prim.spec.kind;
  const bool int8 = precision == Precision::kInt8 &&
                    (kind == OpKind::kConv || kind == OpKind::kFc);
  if (int8 && !prim.quant.ready) {
    return Status::FailedPrecondition(
        "int8 inference requested but primitive '" +
        std::string(OpKindToString(kind)) +
        "' has no calibration (run CnnModel::CalibrateInt8 first)");
  }
  return int8;
}

}  // namespace

Result<std::vector<Tensor>> ApplyFcBatch(const PrimitiveInstance& prim,
                                         const std::vector<Tensor>& inputs,
                                         ThreadPool* pool,
                                         Precision precision) {
  if (prim.spec.kind != OpKind::kFc) {
    return Status::InvalidArgument("ApplyFcBatch: primitive is not FC");
  }
  VISTA_ASSIGN_OR_RETURN(const bool int8, RunsInt8(prim, precision));
  // ReLU rides the GEMM epilogue in both precisions.
  if (int8) {
    return FullyConnectedGemmInt8(inputs, prim.quant.weights,
                                  prim.weights[1], prim.spec.relu,
                                  prim.quant.act_scale, pool);
  }
  return FullyConnectedGemm(inputs, prim.weights[0], prim.weights[1],
                            prim.spec.relu, pool);
}

Result<Tensor> ApplyPrimitive(const PrimitiveInstance& prim,
                              const Tensor& input, ThreadPool* pool,
                              Precision precision) {
  const OpSpec& op = prim.spec;
  VISTA_ASSIGN_OR_RETURN(const bool int8, RunsInt8(prim, precision));
  switch (op.kind) {
    case OpKind::kConv:
      // ReLU rides the GEMM epilogue: no separate output pass.
      if (int8) {
        return Conv2DGemmInt8(input, prim.quant.weights, prim.weights[1],
                              op.stride, op.pad, std::max(1, op.groups),
                              op.relu, prim.quant.act_scale, pool);
      }
      return Conv2DGemm(input, prim.weights[0], prim.weights[1], op.stride,
                        op.pad, std::max(1, op.groups), op.relu, pool);
    case OpKind::kMaxPool:
      return MaxPool2D(input, op.window, op.stride, op.pad);
    case OpKind::kAvgPool:
      return AvgPool2D(input, op.window, op.stride, op.pad);
    case OpKind::kGlobalAvgPool:
      return GlobalAvgPool(input);
    case OpKind::kLrn:
      return LocalResponseNorm(input);
    case OpKind::kFc: {
      // A batch of one through the batched path: the same bits as the
      // image's column of any larger batch.
      VISTA_ASSIGN_OR_RETURN(std::vector<Tensor> out,
                             ApplyFcBatch(prim, {input}, pool, precision));
      return std::move(out.front());
    }
    case OpKind::kFlatten:
      return input.Flatten();
    case OpKind::kSoftmax:
      return Softmax(input);
    case OpKind::kBottleneck: {
      // Batch norm follows each conv, so ReLU cannot be fused here; the
      // pool still parallelizes the three (or four) GEMMs.
      const auto& w = prim.weights;
      VISTA_ASSIGN_OR_RETURN(
          Tensor h1, Conv2DGemm(input, w[0], w[1], op.stride, 0, 1,
                                /*relu=*/false, pool));
      VISTA_ASSIGN_OR_RETURN(h1, BatchNormInference(h1, w[2], w[3]));
      h1 = Relu(h1);
      VISTA_ASSIGN_OR_RETURN(
          Tensor h2,
          Conv2DGemm(h1, w[4], w[5], 1, 1, 1, /*relu=*/false, pool));
      VISTA_ASSIGN_OR_RETURN(h2, BatchNormInference(h2, w[6], w[7]));
      h2 = Relu(h2);
      VISTA_ASSIGN_OR_RETURN(
          Tensor h3,
          Conv2DGemm(h2, w[8], w[9], 1, 0, 1, /*relu=*/false, pool));
      VISTA_ASSIGN_OR_RETURN(h3, BatchNormInference(h3, w[10], w[11]));
      Tensor skip = input;
      if (op.project) {
        VISTA_ASSIGN_OR_RETURN(
            skip, Conv2DGemm(input, w[12], w[13], op.stride, 0, 1,
                             /*relu=*/false, pool));
        VISTA_ASSIGN_OR_RETURN(skip, BatchNormInference(skip, w[14], w[15]));
      }
      VISTA_ASSIGN_OR_RETURN(Tensor sum, Add(h3, skip));
      return Relu(sum);
    }
  }
  return Status::Internal("unhandled OpKind in ApplyPrimitive");
}

}  // namespace vista::dl
