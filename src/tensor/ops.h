#ifndef VISTA_TENSOR_OPS_H_
#define VISTA_TENSOR_OPS_H_

#include <cstdint>

#include "common/status.h"
#include "tensor/tensor.h"

namespace vista {

/// Neural-network kernels operating on single-record tensors (CHW images or
/// rank-1 vectors). These are the TensorOps of Definition 3.3: each takes a
/// tensor of a fixed expected shape and produces a tensor of a fixed shape.
///
/// All kernels are straightforward loops, verified by tests against
/// hand-computed results. Conv2D and FullyConnected are the correctness
/// oracles for the production GEMM paths (tensor/gemm.h: implicit-GEMM
/// conv, batched FC); every other kernel here is the production fp32 path
/// for its op.

/// 2-D convolution of a CHW input with KCRS weights (K filters of size
/// C x R x S), plus a per-filter bias of length K. Zero padding `pad` on all
/// sides, square stride. Output is K x H' x W' with
/// H' = (H + 2*pad - R)/stride + 1 (and similarly W').
/// `groups` > 1 selects grouped convolution: input channels are split into
/// `groups` contiguous blocks and filter k reads only block k*groups/K
/// (weights then have shape K x C/groups x R x S), as in AlexNet.
Result<Tensor> Conv2D(const Tensor& input, const Tensor& weights,
                      const Tensor& bias, int stride, int pad,
                      int groups = 1);

/// Max pooling with a square window and stride over a CHW input.
Result<Tensor> MaxPool2D(const Tensor& input, int window, int stride,
                         int pad = 0);

/// Average pooling with a square window and stride over a CHW input.
Result<Tensor> AvgPool2D(const Tensor& input, int window, int stride,
                         int pad = 0);

/// Global average pooling: reduces C x H x W to a length-C vector.
Result<Tensor> GlobalAvgPool(const Tensor& input);

/// Element-wise max(0, x).
Tensor Relu(const Tensor& input);

/// Fully connected layer: y = W x + b with W of shape (out, in), x rank-1,
/// accumulated in double. The oracle for tensor/gemm.h's
/// FullyConnectedGemm; no production path calls it.
Result<Tensor> FullyConnected(const Tensor& input, const Tensor& weights,
                              const Tensor& bias);

/// Inference-mode batch normalization over channels of a CHW input:
/// y_c = scale_c * x_c + shift_c (scale/shift fold mean/variance).
Result<Tensor> BatchNormInference(const Tensor& input, const Tensor& scale,
                                  const Tensor& shift);

/// Element-wise addition; shapes must match (residual connections).
Result<Tensor> Add(const Tensor& a, const Tensor& b);

/// Numerically stable softmax over a rank-1 tensor.
Result<Tensor> Softmax(const Tensor& input);

/// AlexNet-style local response normalization across channels.
Result<Tensor> LocalResponseNorm(const Tensor& input, int depth_radius = 2,
                                 float bias = 2.0f, float alpha = 1e-4f,
                                 float beta = 0.75f);

/// The paper's dimensionality reducer for convolutional feature layers
/// (footnote 4): max pooling with filter width and stride chosen so the
/// C x H x W tensor reduces to a C x grid x grid tensor of the same depth.
Result<Tensor> GridMaxPool(const Tensor& input, int grid = 2);

/// FLOP counts used by layer statistics and the simulator's cost model.
/// Convention: one multiply-accumulate = 2 FLOPs.
int64_t Conv2DFlops(int64_t in_channels, int64_t out_channels,
                    int64_t out_height, int64_t out_width, int64_t kernel);
int64_t FullyConnectedFlops(int64_t in_features, int64_t out_features);

}  // namespace vista

#endif  // VISTA_TENSOR_OPS_H_
