#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "dl/cnn.h"
#include "dl/model_zoo.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace vista {
namespace {

// ------------------------------------------------------- rounding properties

TEST(SaturateRoundTest, RoundsHalfToEven) {
  EXPECT_EQ(SaturateRoundToInt8(0.5f), 0);
  EXPECT_EQ(SaturateRoundToInt8(1.5f), 2);
  EXPECT_EQ(SaturateRoundToInt8(2.5f), 2);
  EXPECT_EQ(SaturateRoundToInt8(3.5f), 4);
  EXPECT_EQ(SaturateRoundToInt8(-0.5f), 0);
  EXPECT_EQ(SaturateRoundToInt8(-1.5f), -2);
  EXPECT_EQ(SaturateRoundToInt8(-2.5f), -2);
  EXPECT_EQ(SaturateRoundToInt8(0.49f), 0);
  EXPECT_EQ(SaturateRoundToInt8(0.51f), 1);
  EXPECT_EQ(SaturateRoundToInt8(126.5f), 126);
}

TEST(SaturateRoundTest, SaturatesToNarrowRange) {
  EXPECT_EQ(SaturateRoundToInt8(127.0f), 127);
  EXPECT_EQ(SaturateRoundToInt8(127.4f), 127);
  EXPECT_EQ(SaturateRoundToInt8(1e9f), 127);
  EXPECT_EQ(SaturateRoundToInt8(std::numeric_limits<float>::infinity()),
            127);
  // The -128 code is never produced: the narrow range is symmetric.
  EXPECT_EQ(SaturateRoundToInt8(-127.0f), -127);
  EXPECT_EQ(SaturateRoundToInt8(-127.6f), -127);
  EXPECT_EQ(SaturateRoundToInt8(-1e9f), -127);
  EXPECT_EQ(SaturateRoundToInt8(-std::numeric_limits<float>::infinity()),
            -127);
}

TEST(SaturateRoundTest, NanMapsToZero) {
  EXPECT_EQ(SaturateRoundToInt8(std::numeric_limits<float>::quiet_NaN()), 0);
}

TEST(SymmetricScaleTest, GuardsDegenerateInputs) {
  EXPECT_FLOAT_EQ(SymmetricScale(127.0f), 1.0f);
  EXPECT_FLOAT_EQ(SymmetricScale(0.0f), 0.0f);
  EXPECT_FLOAT_EQ(SymmetricScale(-1.0f), 0.0f);
  EXPECT_FLOAT_EQ(SymmetricScale(std::numeric_limits<float>::infinity()),
                  0.0f);
  EXPECT_FLOAT_EQ(SymmetricScale(std::numeric_limits<float>::quiet_NaN()),
                  0.0f);
}

TEST(QuantizeSymmetricTest, ZeroScaleWritesZeros) {
  const float src[4] = {1.0f, -2.0f, 3.0f, 1e9f};
  int8_t dst[4] = {9, 9, 9, 9};
  QuantizeSymmetric(src, 4, 0.0f, dst);
  for (int8_t v : dst) EXPECT_EQ(v, 0);
  QuantizeSymmetric(src, 4, -1.0f, dst);
  for (int8_t v : dst) EXPECT_EQ(v, 0);
}

TEST(QuantizeSymmetricTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(7);
  std::vector<float> src(1000);
  for (float& v : src) {
    v = static_cast<float>(rng.NextDouble(-3.0, 3.0));
  }
  const float scale = SymmetricScale(MaxAbs(src.data(), src.size()));
  ASSERT_GT(scale, 0.0f);
  std::vector<int8_t> q(src.size());
  QuantizeSymmetric(src.data(), src.size(), scale, q.data());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_GE(q[i], -127);
    EXPECT_LE(q[i], 127);
    // Dequantized error is at most half a quantization step.
    EXPECT_LE(std::abs(static_cast<float>(q[i]) * scale - src[i]),
              scale * 0.5f + 1e-6f);
  }
}

TEST(QuantizeWeightsTest, PerChannelScalesAndCodes) {
  // Two output channels with very different ranges: per-channel scales
  // keep the small channel's resolution.
  Tensor w(Shape{2, 4}, {10.0f, -20.0f, 5.0f, 0.0f,  //
                         0.1f, -0.05f, 0.025f, 0.0f});
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  ASSERT_EQ(qw->scales.size(), 2u);
  EXPECT_FLOAT_EQ(qw->scales[0], 20.0f / 127.0f);
  EXPECT_FLOAT_EQ(qw->scales[1], 0.1f / 127.0f);
  EXPECT_EQ(qw->data[1], -127);  // Channel max hits the range edge.
  EXPECT_EQ(qw->data[4], 127);
  EXPECT_EQ(qw->out_channels(), 2);
  EXPECT_EQ(qw->inner(), 4);
}

TEST(QuantizeWeightsTest, AllZeroChannelGetsZeroScale) {
  Tensor w(Shape{2, 3}, {0, 0, 0, 1, 2, 3});
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  EXPECT_FLOAT_EQ(qw->scales[0], 0.0f);
  EXPECT_EQ(qw->data[0], 0);
  EXPECT_GT(qw->scales[1], 0.0f);
}

TEST(QuantizeWeightsTest, RejectsRankBelowTwo) {
  EXPECT_FALSE(QuantizeWeightsPerChannel(Tensor(Shape{5})).ok());
}

// ------------------------------------------------- int8 kernel differential

/// Exact integer oracle: C = A_q * B_q in int64, no blocking, no packing.
std::vector<int32_t> Int8Reference(int64_t m, int64_t n, int64_t k,
                                   const std::vector<int8_t>& a,
                                   const std::vector<int8_t>& b) {
  std::vector<int32_t> c(m * n, 0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int64_t>(a[i * k + p]) *
               static_cast<int64_t>(b[p * n + j]);
      }
      c[i * n + j] = static_cast<int32_t>(acc);
    }
  }
  return c;
}

std::vector<int8_t> RandomInt8(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> out(count);
  for (int8_t& v : out) {
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextUint64(255)) - 127);
  }
  return out;
}

class GemmInt8DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmInt8DifferentialTest, BitExactAgainstIntegerOracle) {
  const auto [m, n, k] = GetParam();
  const std::vector<int8_t> a = RandomInt8(m * k, 11 + m);
  const std::vector<int8_t> b = RandomInt8(k * n, 23 + n);
  const std::vector<int32_t> ref = Int8Reference(m, n, k, a, b);

  // Null scale = raw integer accumulators, bit-cast into the float buffer.
  std::vector<float> c(m * n, -1.0f);
  GemmPackedInt8(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                 GemmInt8Epilogue{}, nullptr);
  for (int64_t i = 0; i < m * n; ++i) {
    int32_t got = 0;
    std::memcpy(&got, &c[i], sizeof(got));
    ASSERT_EQ(got, ref[i]) << "at " << i << " (m=" << m << " n=" << n
                           << " k=" << k << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmInt8DifferentialTest,
    ::testing::Values(
        std::make_tuple(1, 1, 1), std::make_tuple(5, 17, 3),
        std::make_tuple(6, 16, 4),  // Exactly one full micro-tile.
        std::make_tuple(7, 33, 129), std::make_tuple(13, 40, 67),
        std::make_tuple(96, 64, 256),
        // K crosses the int8 panel boundary (kGemmKcInt8 = 1024) with
        // remainders in every dimension.
        std::make_tuple(97, 65, 1027)));

TEST(GemmInt8Test, ParallelBitIdenticalToSerial) {
  const int64_t m = 200, n = 80, k = 300;
  const std::vector<int8_t> a = RandomInt8(m * k, 5);
  const std::vector<int8_t> b = RandomInt8(k * n, 6);
  std::vector<float> scale(m, 0.01f);

  GemmInt8Epilogue ep;
  ep.scale = scale.data();
  std::vector<float> serial(m * n), parallel(m * n);
  GemmPackedInt8(m, n, k, a.data(), k, b.data(), n, serial.data(), n, ep,
                 nullptr);
  ThreadPool pool(4);
  GemmPackedInt8(m, n, k, a.data(), k, b.data(), n, parallel.data(), n, ep,
                 &pool);
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "at " << i;
  }
}

TEST(GemmInt8Test, EpilogueAppliesScaleBiasRelu) {
  // 1x2 result with known integer accumulators: a = [2, -3], columns of b
  // chosen so acc0 = 2*10 + -3*4 = 8, acc1 = 2*1 + -3*2 = -4.
  const std::vector<int8_t> a = {2, -3};
  const std::vector<int8_t> b = {10, 1, 4, 2};
  std::vector<float> scale = {0.5f};
  std::vector<float> bias = {1.0f};

  GemmInt8Epilogue ep;
  ep.scale = scale.data();
  ep.bias = bias.data();
  std::vector<float> c(2);
  GemmPackedInt8(1, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2, ep, nullptr);
  EXPECT_FLOAT_EQ(c[0], 8 * 0.5f + 1.0f);
  EXPECT_FLOAT_EQ(c[1], -4 * 0.5f + 1.0f);

  ep.relu = true;
  GemmPackedInt8(1, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2, ep, nullptr);
  EXPECT_FLOAT_EQ(c[0], 5.0f);
  EXPECT_FLOAT_EQ(c[1], 0.0f);  // max(0, -1).
}

TEST(GemmInt8Test, EpilogueRequantizesToInt8) {
  const std::vector<int8_t> a = {2, -3};
  const std::vector<int8_t> b = {10, 1, 4, 2};
  std::vector<float> scale = {0.5f};

  GemmInt8Epilogue ep;
  ep.scale = scale.data();
  std::vector<float> c(2);
  std::vector<int8_t> c8(2, 99);
  ep.c8 = c8.data();
  ep.ldc8 = 2;
  ep.out_scale = 0.25f;
  GemmPackedInt8(1, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2, ep, nullptr);
  // y = {4.0, -2.0}; /0.25 -> {16, -8}.
  EXPECT_EQ(c8[0], 16);
  EXPECT_EQ(c8[1], -8);

  // Zero out_scale guard: writes zeros instead of dividing.
  ep.out_scale = 0.0f;
  GemmPackedInt8(1, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2, ep, nullptr);
  EXPECT_EQ(c8[0], 0);
  EXPECT_EQ(c8[1], 0);
}

TEST(GemmInt8Test, KernelIsNamed) {
  const std::string name = GemmInt8KernelName();
  EXPECT_TRUE(name == "avx512vnni" || name == "avxvnni" || name == "scalar")
      << name;
}

// ----------------------------------------------- quantized conv lowering

/// Builds a tensor of exact multiples of `step` with codes in [-127, 127]
/// and element 0 pinned to +127*step, so SymmetricScale(MaxAbs(t))
/// recovers exactly `step` and quantization is lossless. With
/// power-of-two steps every partial product and sum below 2^24 is exactly
/// representable in fp32, so the int8 and fp32 paths must agree exactly.
Tensor GridAligned(const Shape& shape, float step, uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    const int code = static_cast<int>(rng.NextUint64(255)) - 127;
    t.set(i, static_cast<float>(code) * step);
  }
  t.set(0, 127.0f * step);
  return t;
}

/// GridAligned for weights: pins every output channel's first element to
/// +127*step so QuantizeWeightsPerChannel recovers `step` per channel.
Tensor GridAlignedWeights(const Shape& shape, float step, uint64_t seed) {
  Tensor t = GridAligned(shape, step, seed);
  const int64_t inner = t.num_elements() / shape.dim(0);
  for (int64_t oc = 0; oc < shape.dim(0); ++oc) {
    t.set(oc * inner, 127.0f * step);
  }
  return t;
}

void ExpectClose(const Tensor& ref, const Tensor& got, float tol) {
  ASSERT_EQ(ref.shape(), got.shape());
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    ASSERT_LE(std::abs(ref.at(i) - got.at(i)),
              tol + 1e-4f * std::abs(ref.at(i)))
        << "at " << i << ": ref=" << ref.at(i) << " got=" << got.at(i);
  }
}

// Power-of-two quantization steps: the pinned +127*step element makes the
// derived scales recover the generation step exactly, and every partial
// product/sum is an integer multiple of 2^-12 below 2^24, hence exactly
// representable in fp32 — both paths must agree to float ULP.
TEST(Conv2DGemmInt8Test, GridAlignedInputMatchesFp32Exactly) {
  const float act_step = 0.03125f;   // 2^-5
  const float w_step = 0.0078125f;   // 2^-7
  Tensor input = GridAligned(Shape{4, 9, 9}, act_step, 3);
  Tensor w = GridAlignedWeights(Shape{6, 4, 3, 3}, w_step, 4);
  Tensor bias = GridAligned(Shape{6}, 0.125f, 5);

  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  for (float s : qw->scales) ASSERT_EQ(s, w_step);
  const float in_scale = SymmetricScale(MaxAbs(input.data(),
                                               input.num_elements()));
  ASSERT_EQ(in_scale, act_step);
  auto ref = Conv2D(input, w, bias, 1, 1, 1);
  ASSERT_TRUE(ref.ok());
  auto got = Conv2DGemmInt8(input, *qw, bias, 1, 1, 1, false, in_scale,
                            nullptr);
  ASSERT_TRUE(got.ok());
  ExpectClose(*ref, *got, 1e-6f);
}

TEST(Conv2DGemmInt8Test, GroupedConvMatchesFp32OnGrid) {
  const float act_step = 0.0625f;      // 2^-4
  const float w_step = 0.00390625f;    // 2^-8
  Tensor input = GridAligned(Shape{6, 7, 7}, act_step, 9);
  Tensor w = GridAlignedWeights(Shape{8, 3, 3, 3}, w_step, 10);  // groups=2.
  Tensor bias = GridAligned(Shape{8}, 0.125f, 11);
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const float in_scale = SymmetricScale(MaxAbs(input.data(),
                                               input.num_elements()));
  ASSERT_EQ(in_scale, act_step);
  auto ref = Conv2D(input, w, bias, 2, 1, 2);
  ASSERT_TRUE(ref.ok());
  *ref = Relu(*ref);
  auto got = Conv2DGemmInt8(input, *qw, bias, 2, 1, 2, true, in_scale, nullptr);
  ASSERT_TRUE(got.ok());
  ExpectClose(*ref, *got, 1e-6f);
}

TEST(Conv2DGemmInt8Test, RandomInputErrorBoundedByQuantizationStep) {
  Rng rng(13);
  Tensor input = Tensor::RandomGaussian(Shape{8, 12, 12}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{16, 8, 3, 3}, &rng);
  for (int64_t i = 0; i < w.num_elements(); ++i) w.set(i, w.at(i) * 0.1f);
  Tensor bias = Tensor::RandomGaussian(Shape{16}, &rng);

  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const float act_scale = SymmetricScale(MaxAbs(input.data(),
                                                input.num_elements()));
  auto ref = Conv2D(input, w, bias, 1, 1, 1);
  ASSERT_TRUE(ref.ok());
  auto got = Conv2DGemmInt8(input, *qw, bias, 1, 1, 1, false, act_scale,
                            nullptr);
  ASSERT_TRUE(got.ok());

  // Per-output analytic bound: k accumulation steps, each contributing at
  // most half an activation step times max|w| plus half a weight step
  // times max|a|.
  const int64_t k = 8 * 3 * 3;
  float max_w_scale = 0.0f;
  for (float s : qw->scales) max_w_scale = std::max(max_w_scale, s);
  const float max_a = MaxAbs(input.data(), input.num_elements());
  const float bound = static_cast<float>(k) *
                      (0.5f * act_scale * max_w_scale * 127.0f +
                       0.5f * max_w_scale * max_a) * 1.01f;
  float max_err = 0.0f;
  for (int64_t i = 0; i < ref->num_elements(); ++i) {
    max_err = std::max(max_err, std::abs(ref->at(i) - got->at(i)));
  }
  EXPECT_LE(max_err, bound);
  // And the bound is not vacuous: the outputs genuinely agree to a few
  // percent of their dynamic range.
  const float out_range = MaxAbs(ref->data(), ref->num_elements());
  EXPECT_LE(max_err, 0.05f * out_range)
      << "max_err=" << max_err << " range=" << out_range;
}

TEST(FullyConnectedInt8Test, MatchesFp32OnGrid) {
  const float act_step = 0.03125f;   // 2^-5
  const float w_step = 0.0078125f;   // 2^-7
  Tensor x = GridAligned(Shape{64}, act_step, 21);
  Tensor w = GridAlignedWeights(Shape{10, 64}, w_step, 22);
  Tensor bias = GridAligned(Shape{10}, 0.125f, 23);
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const float in_scale = SymmetricScale(MaxAbs(x.data(), x.num_elements()));
  ASSERT_EQ(in_scale, act_step);

  auto ref = MatMulReference(w, Tensor(Shape{64, 1}, std::vector<float>(
                                           x.data(),
                                           x.data() + x.num_elements())));
  ASSERT_TRUE(ref.ok());
  auto got = FullyConnectedGemmInt8({x}, *qw, bias, false, in_scale,
                                    nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);
  ASSERT_EQ(got->front().num_elements(), 10);
  // Grid-exact inputs: the int8 path and the fp32 oracle compute the same
  // exactly-representable values (see the conv grid test's argument).
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_LE(std::abs(got->front().at(i) - (ref->at(i) + bias.at(i))),
              1e-5f)
        << "at " << i;
  }
}

// ------------------------------------------------------ model-level int8

TEST(CnnInt8Test, RequiresCalibration) {
  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  ASSERT_TRUE(arch.ok());
  auto model = dl::CnnModel::Instantiate(*arch, 21);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->has_int8_calibration());

  Rng rng(1);
  Tensor image = Tensor::RandomGaussian(arch->input_shape(), &rng);
  dl::CnnOptions opts;
  opts.precision = dl::Precision::kInt8;
  auto run = model->RunRange(image, 0, arch->num_layers() - 1, opts);
  EXPECT_TRUE(run.status().IsFailedPrecondition());

  EXPECT_TRUE(model->CalibrateInt8({image}).ok());
  EXPECT_TRUE(model->has_int8_calibration());
  EXPECT_TRUE(model->RunRange(image, 0, arch->num_layers() - 1, opts).ok());
}

TEST(CnnInt8Test, CalibrationRejectsBadBatches) {
  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  ASSERT_TRUE(arch.ok());
  auto model = dl::CnnModel::Instantiate(*arch, 21);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->CalibrateInt8({}).IsInvalidArgument());
  EXPECT_TRUE(
      model->CalibrateInt8({Tensor(Shape{1, 2, 2})}).IsInvalidArgument());
}

TEST(CnnInt8Test, SetWeightsInvalidatesCalibration) {
  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  ASSERT_TRUE(arch.ok());
  auto model = dl::CnnModel::Instantiate(*arch, 21);
  ASSERT_TRUE(model.ok());
  Rng rng(2);
  Tensor image = Tensor::RandomGaussian(arch->input_shape(), &rng);
  ASSERT_TRUE(model->CalibrateInt8({image}).ok());

  // Re-installing weights (even identical ones) must drop the stale scales.
  std::vector<Tensor> weights;
  for (const Tensor* w : model->weight_tensors()) weights.push_back(*w);
  ASSERT_TRUE(model->SetWeights(weights).ok());
  EXPECT_FALSE(model->has_int8_calibration());
}

TEST(CnnInt8Test, ForwardAccuracyDeltaIsBounded) {
  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  ASSERT_TRUE(arch.ok());
  auto model =
      dl::CnnModel::Instantiate(*arch, 21, dl::WeightInit::kGaborFirstConv);
  ASSERT_TRUE(model.ok());

  Rng rng(5);
  std::vector<Tensor> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Tensor::RandomGaussian(arch->input_shape(), &rng));
  }
  ASSERT_TRUE(model->CalibrateInt8(batch).ok());

  dl::CnnOptions fp32;
  dl::CnnOptions int8;
  int8.precision = dl::Precision::kInt8;
  const int last = arch->num_layers() - 1;
  for (const Tensor& image : batch) {
    auto ref = model->RunRange(image, 0, last, fp32);
    auto got = model->RunRange(image, 0, last, int8);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(ref->shape(), got->shape());
    // Relative L2 error of the final feature vector: quantization noise
    // accumulates across layers but must stay a small fraction of the
    // signal for transfer features to remain usable.
    double err2 = 0, ref2 = 0;
    for (int64_t i = 0; i < ref->num_elements(); ++i) {
      const double d = ref->at(i) - got->at(i);
      err2 += d * d;
      ref2 += static_cast<double>(ref->at(i)) * ref->at(i);
    }
    ASSERT_GT(ref2, 0.0);
    EXPECT_LE(std::sqrt(err2 / ref2), 0.15)
        << "relative L2 " << std::sqrt(err2 / ref2);
  }
}

TEST(CnnInt8Test, Int8OpsCountersMeterQuantizedLayers) {
  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  ASSERT_TRUE(arch.ok());
  auto model = dl::CnnModel::Instantiate(*arch, 21);
  ASSERT_TRUE(model.ok());
  Rng rng(6);
  Tensor image = Tensor::RandomGaussian(arch->input_shape(), &rng);
  ASSERT_TRUE(model->CalibrateInt8({image}).ok());

  obs::Registry registry;
  model->EnableProfiling(&registry);
  dl::CnnOptions int8;
  int8.precision = dl::Precision::kInt8;
  const int last = arch->num_layers() - 1;
  ASSERT_TRUE(model->RunRange(image, 0, last, int8).ok());

  int64_t counted = 0;
  for (const obs::Counter* c : registry.counters()) {
    if (c->name().rfind("dl.int8_ops.", 0) == 0) counted += c->value();
  }
  int64_t expected = 0;
  for (int l = 0; l <= last; ++l) expected += model->layer_int8_ops(l);
  EXPECT_GT(counted, 0);
  EXPECT_EQ(counted, expected);

  // An fp32 forward adds nothing to the int8 counters.
  ASSERT_TRUE(model->RunRange(image, 0, last, dl::CnnOptions{}).ok());
  int64_t after = 0;
  for (const obs::Counter* c : registry.counters()) {
    if (c->name().rfind("dl.int8_ops.", 0) == 0) after += c->value();
  }
  EXPECT_EQ(after, counted);
  model->EnableProfiling(nullptr);
}

}  // namespace
}  // namespace vista
