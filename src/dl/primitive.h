#ifndef VISTA_DL_PRIMITIVE_H_
#define VISTA_DL_PRIMITIVE_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dl/op_spec.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace vista {
class ThreadPool;
}

namespace vista::dl {

/// Numeric precision of a forward pass. kInt8 runs calibrated kConv/kFc
/// primitives on the quantized packed GEMM (tensor/gemm_kernel.h) with
/// fp32 layer boundaries; every other primitive (including kBottleneck,
/// whose interleaved batch norms keep it fp32) is unaffected.
enum class Precision : int {
  kFp32 = 0,
  kInt8 = 1,
};

/// Short stable name for metrics/plan printing: "fp32" / "int8".
const char* PrecisionName(Precision p);

/// Weight initialization schemes for instantiated models.
enum class WeightInit {
  /// He-normal everywhere. Produces generic random-projection features.
  kHe,
  /// He-normal, except the first convolution which gets a bank of Gabor
  /// filters (orientation/frequency selective). This mimics the oriented
  /// edge detectors that ImageNet training produces in early layers and is
  /// the documented stand-in for pretrained weights (DESIGN.md §2).
  kGaborFirstConv,
};

/// An instantiated primitive op: its spec, the input shape it was bound to,
/// and its weight tensors (layout depends on the op kind; see
/// primitive.cc). Shared by the sequential CnnModel and the DagModel.
struct PrimitiveInstance {
  OpSpec spec;
  Shape input_shape;
  std::vector<Tensor> weights;

  /// Int8 lowering state, populated by CnnModel::CalibrateInt8 for kConv
  /// and kFc primitives: the per-output-channel quantized weight tensor
  /// and the calibrated symmetric scale of this primitive's input
  /// activations. ready == false until calibration runs (and again after
  /// SetWeights, which invalidates it).
  struct QuantState {
    QuantizedWeights weights;
    float act_scale = 0.0f;
    bool ready = false;
  };
  QuantState quant;
};

/// Allocates and initializes the weights of `op` for an input of `shape`.
/// `first_conv` tracks whether the model's very first convolution is still
/// pending (consumed by the Gabor initialization); pass the same flag
/// across all of a model's primitives.
Result<PrimitiveInstance> InstantiatePrimitive(const OpSpec& op,
                                               const Shape& shape, Rng* rng,
                                               WeightInit init,
                                               bool* first_conv);

/// Executes one primitive on `input`. The input must be shape-compatible
/// with the shape the primitive was instantiated for. A non-null `pool`
/// parallelizes the conv and FC GEMMs across their row tiles (intra-image
/// parallelism); conv and FC ReLUs are fused into the GEMM epilogue either
/// way. Precision::kInt8 routes calibrated kConv/kFc primitives through
/// the quantized GEMM (FailedPrecondition if the primitive was never
/// calibrated); other primitive kinds ignore the precision. A kFc
/// primitive runs as ApplyFcBatch over a batch of one.
Result<Tensor> ApplyPrimitive(const PrimitiveInstance& prim,
                              const Tensor& input, ThreadPool* pool = nullptr,
                              Precision precision = Precision::kFp32);

/// Executes a kFc primitive over a whole batch, one packed GEMM per block
/// of up to kFcBlockColumns inputs (tensor/gemm.h's FullyConnectedGemm /
/// FullyConnectedGemmInt8). Every
/// input needs the primitive's input element count (any shape); outputs
/// are rank-1 and aligned with `inputs`. Output j is bit-identical to
/// ApplyPrimitive on inputs[j] alone, at any batch size and with or
/// without `pool`. Precision as in ApplyPrimitive.
Result<std::vector<Tensor>> ApplyFcBatch(
    const PrimitiveInstance& prim, const std::vector<Tensor>& inputs,
    ThreadPool* pool = nullptr, Precision precision = Precision::kFp32);

}  // namespace vista::dl

#endif  // VISTA_DL_PRIMITIVE_H_
