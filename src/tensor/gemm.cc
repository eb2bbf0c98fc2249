#include "tensor/gemm.h"

#include <algorithm>
#include <string>
#include <vector>

#include "tensor/gemm_kernel.h"
#include "tensor/scratch.h"

namespace vista {
namespace {

Status CheckMatMulShapes(const Tensor& a, const Tensor& b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    return Status::InvalidArgument("MatMul expects rank-2 tensors, got " +
                                   a.shape().ToString() + " x " +
                                   b.shape().ToString());
  }
  if (b.shape().dim(0) != a.shape().dim(1)) {
    return Status::InvalidArgument("MatMul inner dimensions mismatch: " +
                                   a.shape().ToString() + " x " +
                                   b.shape().ToString());
  }
  return Status::OK();
}

/// Shared shape validation + derived geometry for the Conv2DGemm* family.
/// `name` prefixes error messages so each entry point keeps its own
/// diagnostics.
struct ConvGeom {
  int64_t k_total = 0;
  int kernel = 1;
  int64_t c = 0;
  int64_t h = 0;
  int64_t w = 0;
  int64_t h_out = 0;
  int64_t w_out = 0;
  int64_t c_per_group = 0;
  int64_t rows = 0;     // Patch rows per group: c/groups * kernel^2.
  int64_t spatial = 0;  // h_out * w_out.
  int64_t k_per_group = 0;
};

Status ComputeConvGeom(const char* name, const Shape& in_shape,
                       const Shape& ws, const Shape& bias_shape, int stride,
                       int pad, int groups, ConvGeom* g) {
  const std::string p(name);
  if (ws.rank() != 4 || bias_shape.rank() != 1) {
    return Status::InvalidArgument(p + ": bad weights/bias rank");
  }
  g->k_total = ws.dim(0);
  g->kernel = static_cast<int>(ws.dim(2));
  if (ws.dim(2) != ws.dim(3)) {
    return Status::InvalidArgument(p + ": non-square kernel");
  }
  if (groups < 1 || g->k_total % groups != 0 ||
      bias_shape.dim(0) != g->k_total) {
    return Status::InvalidArgument(p + ": filters/groups mismatch");
  }
  g->c = in_shape.rank() == 3 ? in_shape.dim(0) : 0;
  if (in_shape.rank() != 3 || g->c % groups != 0 ||
      ws.dim(1) != g->c / groups) {
    return Status::InvalidArgument(
        p + ": input channels incompatible with weights/groups");
  }
  if (g->kernel < 1 || stride < 1 || pad < 0) {
    return Status::InvalidArgument(p + ": bad kernel/stride/pad");
  }
  g->h = in_shape.dim(1);
  g->w = in_shape.dim(2);
  if (g->kernel > g->h + 2 * pad || g->kernel > g->w + 2 * pad) {
    return Status::InvalidArgument(p + ": kernel larger than padded input");
  }
  g->h_out = (g->h + 2 * pad - g->kernel) / stride + 1;
  g->w_out = (g->w + 2 * pad - g->kernel) / stride + 1;
  if (g->h_out <= 0 || g->w_out <= 0) {
    return Status::InvalidArgument(p + ": empty output");
  }
  g->c_per_group = g->c / groups;
  g->rows = g->c_per_group * g->kernel * g->kernel;
  g->spatial = g->h_out * g->w_out;
  g->k_per_group = g->k_total / groups;
  return Status::OK();
}

/// Shape checks shared by the FullyConnectedGemm* pair: rank-2 (out x in)
/// weights, a length-out bias, and `in` elements in every input (any shape:
/// a CHW conv output feeds an FC layer without a flatten copy).
Status CheckFcShapes(const char* name, const std::vector<Tensor>& inputs,
                     const Shape& ws, const Shape& bias_shape) {
  const std::string p(name);
  if (ws.rank() != 2 || bias_shape.rank() != 1) {
    return Status::InvalidArgument(p + ": bad weights/bias rank");
  }
  if (bias_shape.dim(0) != ws.dim(0)) {
    return Status::InvalidArgument(p + ": bias length mismatch");
  }
  for (size_t j = 0; j < inputs.size(); ++j) {
    if (inputs[j].num_elements() != ws.dim(1)) {
      return Status::InvalidArgument(
          p + ": input " + std::to_string(j) + " has " +
          std::to_string(inputs[j].num_elements()) +
          " elements, weights expect " + std::to_string(ws.dim(1)));
    }
  }
  return Status::OK();
}

/// Runs a batched FC layer over `n` inputs in column blocks of at most
/// kFcBlockColumns: `block(j0, nb, c)` stages inputs [j0, j0 + nb) and
/// runs one GEMM into the out x nb result `c` (kFcOutput slot), whose
/// column j becomes input j0 + j's rank-1 output. The first block is the
/// widest, so a fresh arena acquires each slot once.
template <typename BlockFn>
std::vector<Tensor> FcByColumnBlocks(int64_t n, int64_t out_dim,
                                     BlockFn&& block) {
  std::vector<Tensor> outputs;
  outputs.reserve(static_cast<size_t>(n));
  for (int64_t j0 = 0; j0 < n; j0 += kFcBlockColumns) {
    const int64_t nb = std::min(kFcBlockColumns, n - j0);
    float* c = KernelScratch::ThreadLocal().Acquire(
        KernelScratch::Slot::kFcOutput, static_cast<size_t>(out_dim * nb));
    block(j0, nb, c);
    for (int64_t j = 0; j < nb; ++j) {
      Tensor t(Shape{out_dim});
      float* o = t.mutable_data();
      for (int64_t r = 0; r < out_dim; ++r) o[r] = c[r * nb + j];
      outputs.push_back(std::move(t));
    }
  }
  return outputs;
}

}  // namespace

Result<Tensor> MatMul(const Tensor& a, const Tensor& b) {
  VISTA_RETURN_IF_ERROR(CheckMatMulShapes(a, b));
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  Tensor c(Shape{m, n});
  GemmPacked(m, n, k, a.data(), k, b.data(), n, c.mutable_data(), n,
             GemmEpilogue{}, nullptr);
  return c;
}

Result<Tensor> MatMulReference(const Tensor& a, const Tensor& b) {
  VISTA_RETURN_IF_ERROR(CheckMatMulShapes(a, b));
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  Tensor c(Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.mutable_data();
  // i-k-j loop order with the inner loop over contiguous rows of B and C.
  // No data-dependent skips: every IEEE special value flows through.
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = pc + i * n;
    const float* a_row = pa + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      const float* b_row = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += av * b_row[j];
      }
    }
  }
  return c;
}

Result<Tensor> Conv2DGemm(const Tensor& input, const Tensor& weights,
                          const Tensor& bias, int stride, int pad, int groups,
                          bool relu, ThreadPool* pool) {
  ConvGeom g;
  VISTA_RETURN_IF_ERROR(ComputeConvGeom("Conv2DGemm", input.shape(),
                                        weights.shape(), bias.shape(), stride,
                                        pad, groups, &g));
  Tensor out(Shape{g.k_total, g.h_out, g.w_out});
  float* o = out.mutable_data();
  const float* wt = weights.data();
  const float* b = bias.data();
  // 1x1 / stride-1 / pad-0: the patch matrix IS the group's input slice
  // (rows = c_per_group, columns = the h*w pixels), so the packed GEMM can
  // read it in place with ldb = h*w — no gather at all.
  const bool unit = g.kernel == 1 && stride == 1 && pad == 0;
  for (int64_t gi = 0; gi < groups; ++gi) {
    GemmEpilogue epilogue;
    epilogue.bias = b + gi * g.k_per_group;
    epilogue.relu = relu;
    const float* a_g = wt + gi * g.k_per_group * g.rows;
    const float* in_g = input.data() + gi * g.c_per_group * g.h * g.w;
    float* c_g = o + gi * g.k_per_group * g.spatial;
    if (unit) {
      GemmPacked(g.k_per_group, g.spatial, g.rows, a_g, g.rows, in_g,
                 g.spatial, c_g, g.spatial, epilogue, pool);
      continue;
    }
    ConvPatchView view;
    view.input = in_g;
    view.h = g.h;
    view.w = g.w;
    view.kernel = g.kernel;
    view.stride = stride;
    view.pad = pad;
    view.w_out = g.w_out;
    GemmPackedConv(g.k_per_group, g.spatial, g.rows, a_g, g.rows, view,
                   c_g, g.spatial, epilogue, pool);
  }
  return out;
}

Result<Tensor> Conv2DGemmInt8(const Tensor& input, const QuantizedWeights& qw,
                              const Tensor& bias, int stride, int pad,
                              int groups, bool relu, float act_scale,
                              ThreadPool* pool) {
  ConvGeom g;
  VISTA_RETURN_IF_ERROR(ComputeConvGeom("Conv2DGemmInt8", input.shape(),
                                        qw.shape, bias.shape(), stride, pad,
                                        groups, &g));
  if (static_cast<int64_t>(qw.scales.size()) != g.k_total ||
      static_cast<int64_t>(qw.data.size()) != qw.shape.num_elements()) {
    return Status::InvalidArgument("Conv2DGemmInt8: filters/groups mismatch");
  }
  // No im2col and no staging quantization pass: the implicit B packer
  // quantizes each gathered patch value with act_scale while packing
  // panels (the exact QuantizeSymmetric expression). The only scratch
  // this path touches beyond the packed panels is the k_total-float
  // combined-scale vector.
  KernelScratch& scratch = KernelScratch::ThreadLocal();

  // Per-row combined dequant scale: weight channel scale x activation
  // scale (0 when either side hit the zero-scale guard).
  float* scales = scratch.Acquire(KernelScratch::Slot::kScales,
                                  static_cast<size_t>(g.k_total));
  const float act = act_scale > 0.0f ? act_scale : 0.0f;
  for (int64_t i = 0; i < g.k_total; ++i) {
    scales[i] = qw.scales[static_cast<size_t>(i)] * act;
  }

  Tensor out(Shape{g.k_total, g.h_out, g.w_out});
  float* o = out.mutable_data();
  const int8_t* wt = qw.data.data();
  const float* b = bias.data();
  for (int64_t gi = 0; gi < groups; ++gi) {
    GemmInt8Epilogue epilogue;
    epilogue.scale = scales + gi * g.k_per_group;
    epilogue.bias = b + gi * g.k_per_group;
    epilogue.relu = relu;
    const int8_t* a_g = wt + gi * g.k_per_group * g.rows;
    float* c_g = o + gi * g.k_per_group * g.spatial;
    ConvPatchView view;
    view.input = input.data() + gi * g.c_per_group * g.h * g.w;
    view.h = g.h;
    view.w = g.w;
    view.kernel = g.kernel;
    view.stride = stride;
    view.pad = pad;
    view.w_out = g.w_out;
    GemmPackedConvInt8(g.k_per_group, g.spatial, g.rows, a_g, g.rows, view,
                       act_scale, c_g, g.spatial, epilogue, pool);
  }
  return out;
}

Result<std::vector<Tensor>> FullyConnectedGemm(
    const std::vector<Tensor>& inputs, const Tensor& weights,
    const Tensor& bias, bool relu, ThreadPool* pool) {
  VISTA_RETURN_IF_ERROR(CheckFcShapes("FullyConnectedGemm", inputs,
                                      weights.shape(), bias.shape()));
  const int64_t out_dim = weights.shape().dim(0);
  const int64_t in_dim = weights.shape().dim(1);
  GemmEpilogue epilogue;
  epilogue.bias = bias.data();
  epilogue.relu = relu;
  return FcByColumnBlocks(
      static_cast<int64_t>(inputs.size()), out_dim,
      [&](int64_t j0, int64_t nb, float* c) {
        float* b = KernelScratch::ThreadLocal().Acquire(
            KernelScratch::Slot::kFcInput, static_cast<size_t>(in_dim * nb));
        for (int64_t j = 0; j < nb; ++j) {
          const float* x = inputs[static_cast<size_t>(j0 + j)].data();
          for (int64_t p = 0; p < in_dim; ++p) b[p * nb + j] = x[p];
        }
        GemmPacked(out_dim, nb, in_dim, weights.data(), in_dim, b, nb, c, nb,
                   epilogue, pool);
      });
}

Result<std::vector<Tensor>> FullyConnectedGemmInt8(
    const std::vector<Tensor>& inputs, const QuantizedWeights& qw,
    const Tensor& bias, bool relu, float act_scale, ThreadPool* pool) {
  VISTA_RETURN_IF_ERROR(CheckFcShapes("FullyConnectedGemmInt8", inputs,
                                      qw.shape, bias.shape()));
  const int64_t out_dim = qw.shape.dim(0);
  const int64_t in_dim = qw.shape.dim(1);
  if (static_cast<int64_t>(qw.scales.size()) != out_dim ||
      static_cast<int64_t>(qw.data.size()) != out_dim * in_dim) {
    return Status::InvalidArgument(
        "FullyConnectedGemmInt8: quantized weights are inconsistent");
  }
  float* scales = KernelScratch::ThreadLocal().Acquire(
      KernelScratch::Slot::kScales, static_cast<size_t>(out_dim));
  const float act = act_scale > 0.0f ? act_scale : 0.0f;
  for (int64_t i = 0; i < out_dim; ++i) {
    scales[i] = qw.scales[static_cast<size_t>(i)] * act;
  }
  GemmInt8Epilogue epilogue;
  epilogue.scale = scales;
  epilogue.bias = bias.data();
  epilogue.relu = relu;
  const bool zero = !(act_scale > 0.0f);
  const float inv = zero ? 0.0f : 1.0f / act_scale;
  return FcByColumnBlocks(
      static_cast<int64_t>(inputs.size()), out_dim,
      [&](int64_t j0, int64_t nb, float* c) {
        // Quantize each input column straight into the int8 B, with exactly
        // QuantizeSymmetric's expression (and its zero-scale guard).
        int8_t* qb = static_cast<int8_t*>(
            KernelScratch::ThreadLocal().AcquireBytes(
                KernelScratch::Slot::kFcInput,
                static_cast<size_t>(in_dim * nb)));
        for (int64_t j = 0; j < nb; ++j) {
          const float* x = inputs[static_cast<size_t>(j0 + j)].data();
          for (int64_t p = 0; p < in_dim; ++p) {
            qb[p * nb + j] = zero ? 0 : SaturateRoundToInt8(x[p] * inv);
          }
        }
        GemmPackedInt8(out_dim, nb, in_dim, qw.data.data(), in_dim, qb, nb,
                       c, nb, epilogue, pool);
      });
}

}  // namespace vista
