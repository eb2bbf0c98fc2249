#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "dl/model_zoo.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/scratch.h"
#include "vista/estimator.h"

namespace vista {
namespace {

/// Bit-identity across whole tensors, not just within tolerance.
void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.num_elements()) *
                               sizeof(float)));
}

// Odd shapes chosen to exercise every gather branch: stride 2 and 3,
// non-square inputs whose bottom/right effective padding differs from the
// top/left (h or w not congruent with the window), grouped convolution,
// even kernels, and the 1x1/stride-1/pad-0 fast path that skips the
// gather entirely. The two 128-filters-per-group cases are large enough
// (m > kGemmMC, m*n*k >= 2^20) for a pool to split their row blocks,
// leaving a partial last block.
struct ImplicitConvCase {
  int channels, h, w, filters, kernel, stride, pad, groups;
};

class ImplicitConvDifferentialTest
    : public ::testing::TestWithParam<ImplicitConvCase> {};

TEST_P(ImplicitConvDifferentialTest, ParallelBitIdenticalToSerial) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 131 + c.h * 31 + c.kernel * 17 + c.stride);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  ThreadPool pool(3);
  for (const bool relu : {false, true}) {
    auto serial =
        Conv2DGemm(input, w, b, c.stride, c.pad, c.groups, relu, nullptr);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    // The parallel path packs the same B panels; only the M-tile schedule
    // differs, which touches disjoint output rows.
    auto parallel =
        Conv2DGemm(input, w, b, c.stride, c.pad, c.groups, relu, &pool);
    ASSERT_TRUE(parallel.ok());
    ExpectBitIdentical(*serial, *parallel);
  }
}

TEST_P(ImplicitConvDifferentialTest, MatchesDirectReference) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 7919 + c.w * 13 + c.kernel);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  auto direct = Conv2D(input, w, b, c.stride, c.pad, c.groups);
  ASSERT_TRUE(direct.ok());
  for (const bool relu : {false, true}) {
    auto gemm =
        Conv2DGemm(input, w, b, c.stride, c.pad, c.groups, relu, nullptr);
    ASSERT_TRUE(gemm.ok());
    const Tensor want = relu ? Relu(*direct) : *direct;
    EXPECT_EQ(want.shape(), gemm->shape());
    EXPECT_TRUE(want.AllClose(*gemm, 1e-3f)) << "relu " << relu;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, ImplicitConvDifferentialTest,
    ::testing::Values(
        ImplicitConvCase{8, 9, 9, 12, 3, 1, 1, 1},    // plain 3x3
        ImplicitConvCase{8, 11, 7, 12, 3, 2, 1, 1},   // stride 2, non-square
        ImplicitConvCase{6, 13, 10, 9, 3, 3, 2, 1},   // stride 3
        ImplicitConvCase{12, 10, 10, 8, 5, 2, 2, 4},  // grouped 5x5
        ImplicitConvCase{16, 8, 8, 24, 1, 1, 0, 1},   // 1x1 fast path
        ImplicitConvCase{9, 7, 5, 6, 3, 2, 0, 3},     // grouped, no pad
        ImplicitConvCase{4, 6, 6, 6, 2, 2, 1, 2},       // even kernel
        ImplicitConvCase{3, 35, 29, 7, 3, 2, 1, 1},     // big non-square grid
        ImplicitConvCase{16, 20, 20, 128, 3, 1, 1, 1},  // row-parallel
        ImplicitConvCase{16, 14, 14, 256, 3, 1, 1, 2}));  // grouped, parallel

// The fast path must actually be exercised and still agree: a 1x1
// stride-1 pad-0 conv feeds the input tensor to the packed GEMM in place.
TEST(ImplicitConvFastPathTest, OneByOneMatchesDirect) {
  Rng rng(42);
  Tensor input = Tensor::RandomGaussian(Shape{32, 14, 14}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{48, 32, 1, 1}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{48}, &rng);
  auto direct = Conv2D(input, w, b, 1, 0, 1);
  auto gemm = Conv2DGemm(input, w, b, 1, 0, 1, /*relu=*/true, nullptr);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(gemm.ok());
  EXPECT_TRUE(Relu(*direct).AllClose(*gemm, 1e-3f));
}

// Int8: the implicit packer quantizes during the gather. Its raw int32
// accumulators (empty epilogue mode) must equal a direct integer
// convolution over the same quantized input and weights — an independent
// oracle with no GEMM and no im2col. Integer sums are exact in any order.
// The pool-parallel Conv2DGemmInt8 must equal the serial one bit for bit.
class ImplicitConvInt8Test
    : public ::testing::TestWithParam<ImplicitConvCase> {};

TEST_P(ImplicitConvInt8Test, AccumulatorsMatchDirectIntegerConv) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 977 + c.h * 5 + c.kernel);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const float act_scale =
      SymmetricScale(MaxAbs(input.data(), input.num_elements()));
  std::vector<int8_t> qx(static_cast<size_t>(input.num_elements()));
  QuantizeSymmetric(input.data(), input.num_elements(), act_scale,
                    qx.data());

  const int64_t cpg = c.channels / c.groups;
  const int64_t rows = cpg * c.kernel * c.kernel;
  const int64_t m = c.filters / c.groups;
  const int64_t h_out = (c.h + 2 * c.pad - c.kernel) / c.stride + 1;
  const int64_t w_out = (c.w + 2 * c.pad - c.kernel) / c.stride + 1;
  const int64_t spatial = h_out * w_out;
  std::vector<float> got(static_cast<size_t>(m * spatial));
  for (int64_t gi = 0; gi < c.groups; ++gi) {
    const int8_t* a_g = qw->data.data() + gi * m * rows;
    ConvPatchView view;
    view.input = input.data() + gi * cpg * c.h * c.w;
    view.h = c.h;
    view.w = c.w;
    view.kernel = c.kernel;
    view.stride = c.stride;
    view.pad = c.pad;
    view.w_out = w_out;
    // Empty epilogue: raw int32 sums are left bit-cast in C.
    GemmPackedConvInt8(m, spatial, rows, a_g, rows, view, act_scale,
                       got.data(), spatial, GemmInt8Epilogue{}, nullptr);
    for (int64_t f = 0; f < m; ++f) {
      const int8_t* w_f = a_g + f * rows;
      const float* got_f = got.data() + f * spatial;
      for (int64_t oy = 0; oy < h_out; ++oy) {
        for (int64_t ox = 0; ox < w_out; ++ox) {
          int64_t want = 0;
          for (int64_t ch = 0; ch < cpg; ++ch) {
            const int8_t* w_c = w_f + ch * c.kernel * c.kernel;
            const int8_t* x_c = qx.data() + (gi * cpg + ch) * c.h * c.w;
            for (int ky = 0; ky < c.kernel; ++ky) {
              for (int kx = 0; kx < c.kernel; ++kx) {
                const int64_t iy = oy * c.stride - c.pad + ky;
                const int64_t ix = ox * c.stride - c.pad + kx;
                if (iy < 0 || iy >= c.h || ix < 0 || ix >= c.w) continue;
                want += int64_t{w_c[ky * c.kernel + kx]} * x_c[iy * c.w + ix];
              }
            }
          }
          int32_t acc = 0;
          std::memcpy(&acc, got_f + oy * w_out + ox, sizeof(acc));
          ASSERT_EQ(want, acc) << "group " << gi << " filter " << f
                               << " at (" << oy << ", " << ox << ")";
        }
      }
    }
  }

  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  ThreadPool pool(3);
  auto serial = Conv2DGemmInt8(input, *qw, b, c.stride, c.pad, c.groups,
                               /*relu=*/true, act_scale, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = Conv2DGemmInt8(input, *qw, b, c.stride, c.pad, c.groups,
                                 /*relu=*/true, act_scale, &pool);
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, ImplicitConvInt8Test,
    ::testing::Values(
        ImplicitConvCase{8, 9, 9, 12, 3, 1, 1, 1},
        ImplicitConvCase{8, 11, 7, 12, 3, 2, 1, 1},
        ImplicitConvCase{6, 13, 10, 9, 3, 3, 2, 1},
        ImplicitConvCase{12, 10, 10, 8, 5, 2, 2, 4},
        ImplicitConvCase{16, 8, 8, 24, 1, 1, 0, 1},
        ImplicitConvCase{9, 7, 5, 6, 3, 2, 0, 3},
        ImplicitConvCase{16, 20, 20, 128, 3, 1, 1, 1},
        ImplicitConvCase{16, 14, 14, 256, 3, 1, 1, 2}));

// The estimator's Eq. 16 Temp figure must track what the kernel actually
// acquires: ConvTempBytes mirrors the drivers' literal Acquire sizes, so
// on a fresh arena — a new thread's — the measured high-water equals the
// prediction exactly.
TEST(ImplicitConvScratchTest, ConvTempBytesMatchesMeasuredPeak) {
  auto arch = dl::MicroAlexNetArch();
  ASSERT_TRUE(arch.ok());
  const Shape in_shape = arch->input_shape();
  const dl::OpSpec* conv = nullptr;
  for (const dl::OpSpec& op : arch->layer_spec(0).ops) {
    if (op.kind == dl::OpKind::kConv) {
      conv = &op;
      break;
    }
  }
  ASSERT_NE(conv, nullptr);
  const int groups = conv->groups > 0 ? conv->groups : 1;
  const int64_t c_in = in_shape.dim(0), h = in_shape.dim(1),
                w = in_shape.dim(2);
  const int64_t rows = (c_in / groups) * conv->kernel * conv->kernel;
  const int64_t h_out =
      (h + 2 * conv->pad - conv->kernel) / conv->stride + 1;
  const int64_t w_out =
      (w + 2 * conv->pad - conv->kernel) / conv->stride + 1;
  Rng rng(11);
  Tensor input = Tensor::RandomGaussian(in_shape, &rng);
  Tensor weights = Tensor::RandomGaussian(
      Shape{conv->out_channels, c_in / groups, conv->kernel, conv->kernel},
      &rng);
  std::vector<float> out(
      static_cast<size_t>(conv->out_channels * h_out * w_out));
  int64_t peak_bytes = 0;
  std::thread fresh([&] {
    for (int gi = 0; gi < groups; ++gi) {
      ConvPatchView view;
      view.input = input.data() + gi * (c_in / groups) * h * w;
      view.h = h;
      view.w = w;
      view.kernel = conv->kernel;
      view.stride = conv->stride;
      view.pad = conv->pad;
      view.w_out = w_out;
      const int64_t m = conv->out_channels / groups;
      GemmPackedConv(m, h_out * w_out, rows, weights.data() + gi * m * rows,
                     rows, view, out.data() + gi * m * h_out * w_out,
                     h_out * w_out, GemmEpilogue{}, nullptr);
    }
    peak_bytes = KernelScratch::ThreadLocal().peak_bytes();
  });
  fresh.join();
  EXPECT_EQ(peak_bytes, ConvTempBytes(*arch, 0));
  EXPECT_GT(KernelScratch::GlobalPeakBytes(), 0);

  // FC layers: one GEMM per batch, so the figure grows with the batch —
  // the stacked (fp32) or quantized (int8) input, the out x n result, the
  // packed panels and the int8 scales. Micro fc6 fits one K panel; full
  // AlexNet fc8 (k = 4096) spans several. Values do not matter here, only
  // the acquisitions, so weights and inputs are zeros.
  auto full = dl::AlexNetArch();
  ASSERT_TRUE(full.ok());
  for (const dl::CnnArchitecture* a : {&*arch, &*full}) {
    auto fc = a->FindLayer(a == &*arch ? "fc6" : "fc8");
    ASSERT_TRUE(fc.ok());
    const int64_t in_dim = a->layer(*fc - 1).output_shape.num_elements();
    const int64_t out_dim = a->layer(*fc).output_shape.num_elements();
    Tensor w(Shape{out_dim, in_dim});
    Tensor b(Shape{out_dim});
    QuantizedWeights qw;
    qw.shape = w.shape();
    qw.data.assign(static_cast<size_t>(out_dim * in_dim), 0);
    qw.scales.assign(static_cast<size_t>(out_dim), 1.0f);
    // 100 images run as a 64-column and a 36-column GEMM.
    for (const int64_t n : {int64_t{1}, int64_t{16}, int64_t{100}}) {
      const std::vector<Tensor> inputs(
          static_cast<size_t>(n), Tensor(a->layer(*fc - 1).output_shape));
      for (const dl::Precision p : {dl::Precision::kFp32,
                                    dl::Precision::kInt8}) {
        int64_t fc_peak = 0;
        bool ok = false;
        std::thread fc_thread([&] {
          ok = p == dl::Precision::kInt8
                   ? FullyConnectedGemmInt8(inputs, qw, b, true, 0.5f,
                                            nullptr)
                         .ok()
                   : FullyConnectedGemm(inputs, w, b, true, nullptr).ok();
          fc_peak = KernelScratch::ThreadLocal().peak_bytes();
        });
        fc_thread.join();
        ASSERT_TRUE(ok);
        EXPECT_EQ(fc_peak, ConvTempBytes(*a, *fc, p, n))
            << a->name() << " " << a->layer(*fc).name << " "
            << dl::PrecisionName(p) << " batch " << n;
      }
    }
  }
}

}  // namespace
}  // namespace vista
