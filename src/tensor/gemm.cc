#include "tensor/gemm.h"

#include <algorithm>

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

Result<Tensor> FullyConnectedInt8(const Tensor& input,
                                  const QuantizedWeights& qw,
                                  const Tensor& bias, bool relu,
                                  float act_scale) {
  const Shape& ws = qw.shape;
  if (ws.rank() != 2 || bias.shape().rank() != 1) {
    return Status::InvalidArgument(
        "FullyConnectedInt8: bad weights/bias rank");
  }
  const int64_t out_dim = ws.dim(0);
  const int64_t in_dim = ws.dim(1);
  if (input.num_elements() != in_dim) {
    return Status::InvalidArgument(
        "FullyConnectedInt8: input has " +
        std::to_string(input.num_elements()) + " elements, weights expect " +
        std::to_string(in_dim));
  }
  if (bias.shape().dim(0) != out_dim ||
      static_cast<int64_t>(qw.scales.size()) != out_dim) {
    return Status::InvalidArgument("FullyConnectedInt8: bias length mismatch");
  }
  KernelScratch& scratch = KernelScratch::ThreadLocal();
  int8_t* qx = static_cast<int8_t*>(scratch.AcquireBytes(
      KernelScratch::Slot::kQuantAct, static_cast<size_t>(in_dim)));
  QuantizeSymmetric(input.data(), in_dim, act_scale, qx);
  float* scales = scratch.Acquire(KernelScratch::Slot::kScales,
                                  static_cast<size_t>(out_dim));
  const float act = act_scale > 0.0f ? act_scale : 0.0f;
  for (int64_t i = 0; i < out_dim; ++i) {
    scales[i] = qw.scales[static_cast<size_t>(i)] * act;
  }
  Tensor out(Shape{out_dim});
  GemmInt8Epilogue epilogue;
  epilogue.scale = scales;
  epilogue.bias = bias.data();
  epilogue.relu = relu;
  GemmPackedInt8(out_dim, 1, in_dim, qw.data.data(), in_dim, qx, 1,
                 out.mutable_data(), 1, epilogue, nullptr);
  return out;
}

}  // namespace vista
