#ifndef VISTA_TENSOR_GEMM_H_
#define VISTA_TENSOR_GEMM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace vista {

class ThreadPool;

/// Dense single-precision matrix multiply: C = A (m x k) * B (k x n),
/// row-major, written into a fresh tensor. Runs on the blocked, packed
/// GEMM core (tensor/gemm_kernel.h): register micro-tiling, cache
/// blocking, and panel packing into the calling thread's scratch arena.
/// No data-dependent branching, so NaN/Inf propagate exactly as IEEE
/// arithmetic dictates.
Result<Tensor> MatMul(const Tensor& a, const Tensor& b);

/// The naive i-k-j triple loop kept as the correctness oracle for the
/// packed kernel (tests compare against it on random shapes) and as the
/// baseline the micro benches measure speedup against.
Result<Tensor> MatMulReference(const Tensor& a, const Tensor& b);

/// Convolution as *implicit* GEMM — the fp32 production path, with the
/// same semantics as tensor/ops.h's direct Conv2D (including groups) and
/// differential-tested against it. The patch matrix is never
/// materialized: the GEMM's B-panel packer gathers patch elements straight
/// from the padded CHW input while packing KC x NC panels
/// (tensor/gemm_kernel.h), so conv scratch is just the two packed panels.
/// A 1x1/stride-1/pad-0 convolution skips the gather entirely and feeds
/// the input tensor to the packed GEMM in place. `relu` folds max(0, x)
/// into the GEMM's output pass, and a non-null `pool` distributes each
/// group's GEMM row tiles with ThreadPool::ParallelFor (safe under
/// nesting; see thread_pool.h) — bit-identical to the serial run.
Result<Tensor> Conv2DGemm(const Tensor& input, const Tensor& weights,
                          const Tensor& bias, int stride, int pad,
                          int groups = 1, bool relu = false,
                          ThreadPool* pool = nullptr);

/// Conv2DGemm on the quantized kernel — the int8 production path: the
/// implicit B packer quantizes each gathered patch value per-tensor with
/// `act_scale` (the calibrated symmetric input scale; <= 0 is the
/// zero-scale guard and quantizes to zeros) while packing — no fp32
/// expansion and no staging quantization pass — then each group's GEMM
/// runs int8 x int8 into int32, and the fused epilogue dequantizes with
/// the per-output-channel combined scale (weight_scale * act_scale), adds
/// the fp32 bias and applies ReLU. Output and layer boundaries stay fp32.
/// Int32 accumulators equal a direct integer convolution over the
/// quantized input and weights.
Result<Tensor> Conv2DGemmInt8(const Tensor& input, const QuantizedWeights& qw,
                              const Tensor& bias, int stride, int pad,
                              int groups, bool relu, float act_scale,
                              ThreadPool* pool);

/// Widest column block of a batched FC GEMM. At 64 columns each weight
/// loaded from memory feeds 128 FLOPs, and an fc6-shaped GEMM (4096 x
/// 9216) is already within a few percent of its per-image time at 128
/// columns; a bounded block keeps the stacked input, the result and the
/// packed B panel a fixed size whatever the partition size.
inline constexpr int64_t kFcBlockColumns = 64;

/// Fully connected layer over a batch — the fp32 production path. Each of
/// the n inputs is one image's activation with `in` elements (any shape; a
/// CHW conv output needs no flatten), and each block of up to
/// kFcBlockColumns inputs runs as ONE packed GEMM: A = `weights`
/// (out x in), B = the block's inputs stacked as columns (in x nb, staged
/// in the calling thread's kFcInput scratch slot), C = out x nb (kFcOutput
/// slot), with `bias` and `relu` in the fused epilogue — so the layer's
/// weights stream through cache once per block instead of once per image.
/// A non-null `pool` splits the GEMM's kGemmMC row blocks. Returns n
/// rank-1 outputs of length out, aligned with `inputs`.
///
/// Batch invariance: the packed kernel accumulates each output element in
/// fp32 over k in an order that depends only on k — never on n, on the
/// element's column, or on the pool schedule — so every output is
/// bit-identical at any batch size, with or without a pool. ops.h's
/// FullyConnected (double accumulation) is the test oracle.
Result<std::vector<Tensor>> FullyConnectedGemm(
    const std::vector<Tensor>& inputs, const Tensor& weights,
    const Tensor& bias, bool relu, ThreadPool* pool);

/// FullyConnectedGemm on the quantized kernel — the int8 production path.
/// Each input column is quantized with the calibrated per-tensor
/// `act_scale` (QuantizeSymmetric's expression; <= 0 quantizes to zeros)
/// straight into the int8 B (kFcInput slot), one GemmPackedInt8 call runs
/// each block of up to kFcBlockColumns columns, and the epilogue
/// dequantizes with the per-row combined scale weight_scale * act_scale
/// (kScales slot), adds the fp32 bias and applies ReLU. Int32 accumulation
/// is exact, so outputs are bit-identical at any batch size and pool.
Result<std::vector<Tensor>> FullyConnectedGemmInt8(
    const std::vector<Tensor>& inputs, const QuantizedWeights& qw,
    const Tensor& bias, bool relu, float act_scale, ThreadPool* pool);

}  // namespace vista

#endif  // VISTA_TENSOR_GEMM_H_
