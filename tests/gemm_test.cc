#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/scratch.h"

namespace vista {
namespace {

/// FMA contraction and the packed kernel's reordered summation differ from
/// the naive oracle by ~eps per accumulated term, which on catastrophic
/// cancellation (results near zero built from large terms) dwarfs any pure
/// relative bound. Tolerance is therefore mixed: 1e-4 relative plus an
/// absolute term scaled by the accumulation length.
void ExpectGemmClose(const Tensor& ref, const Tensor& got, int64_t k) {
  ASSERT_EQ(ref.shape(), got.shape());
  const float abs_tol =
      1e-5f * static_cast<float>(std::sqrt(static_cast<double>(k))) + 1e-5f;
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    const float r = ref.at(i);
    const float g = got.at(i);
    ASSERT_LE(std::abs(g - r), abs_tol + 1e-4f * std::abs(r))
        << "at " << i << ": ref=" << r << " got=" << g;
  }
}

TEST(MatMulTest, HandComputed) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  auto c = MatMul(a, b);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c->at(0), 58);
  EXPECT_FLOAT_EQ(c->at(1), 64);
  EXPECT_FLOAT_EQ(c->at(2), 139);
  EXPECT_FLOAT_EQ(c->at(3), 154);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(1);
  Tensor a = Tensor::RandomGaussian(Shape{4, 4}, &rng);
  Tensor eye(Shape{4, 4});
  for (int i = 0; i < 4; ++i) eye.set(i * 4 + i, 1.0f);
  auto c = MatMul(a, eye);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->AllClose(a, 1e-5f));
}

TEST(MatMulTest, RejectsBadShapes) {
  EXPECT_FALSE(MatMul(Tensor(Shape{2, 3}), Tensor(Shape{2, 3})).ok());
  EXPECT_FALSE(MatMul(Tensor(Shape{4}), Tensor(Shape{4, 2})).ok());
}

// Differential testing: the GEMM path must agree with the direct loops on
// random configurations, including strides, padding, and groups.
struct ConvCase {
  int channels, size, filters, kernel, stride, pad, groups;
};

class ConvDifferentialTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvDifferentialTest, GemmMatchesDirect) {
  const ConvCase c = GetParam();
  Rng rng(c.channels * 131 + c.kernel * 17 + c.stride);
  Tensor input =
      Tensor::RandomGaussian(Shape{c.channels, c.size, c.size}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  auto direct = Conv2D(input, w, b, c.stride, c.pad, c.groups);
  auto gemm = Conv2DGemm(input, w, b, c.stride, c.pad, c.groups);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(gemm.ok());
  EXPECT_EQ(direct->shape(), gemm->shape());
  EXPECT_TRUE(direct->AllClose(*gemm, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvDifferentialTest,
    ::testing::Values(ConvCase{1, 5, 1, 3, 1, 0, 1},
                      ConvCase{3, 8, 4, 3, 1, 1, 1},
                      ConvCase{4, 9, 6, 5, 2, 2, 1},
                      ConvCase{2, 7, 2, 1, 1, 0, 1},
                      ConvCase{4, 8, 8, 3, 1, 1, 2},
                      ConvCase{6, 11, 9, 3, 2, 1, 3},
                      ConvCase{8, 6, 8, 2, 2, 0, 4},
                      ConvCase{3, 16, 12, 7, 4, 3, 1}));

// Reference-vs-optimized harness: the packed kernel must agree with the
// naive oracle across shapes chosen to hit every tiling edge — sub-tile
// matrices, exact multiples of MR/NR/KC/MC, and off-by-one tails of each.
struct GemmShape {
  int64_t m, n, k;
};

class GemmDifferentialTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmDifferentialTest, PackedMatchesReference) {
  const GemmShape s = GetParam();
  Rng rng(s.m * 7919 + s.n * 131 + s.k);
  Tensor a = Tensor::RandomGaussian(Shape{s.m, s.k}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{s.k, s.n}, &rng);
  auto ref = MatMulReference(a, b);
  auto got = MatMul(a, b);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(got.ok());
  ExpectGemmClose(*ref, *got, s.k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmDifferentialTest,
    ::testing::Values(GemmShape{1, 1, 1},       // degenerate
                      GemmShape{5, 7, 3},       // below one micro-tile
                      GemmShape{6, 16, 8},      // exactly one micro-tile
                      GemmShape{7, 17, 9},      // micro-tile + 1 tails
                      GemmShape{12, 32, 64},    // tile multiples
                      GemmShape{13, 33, 65},    // tile multiples + 1
                      GemmShape{96, 48, 256},   // exactly MC and KC
                      GemmShape{97, 49, 257},   // MC/KC + 1 tails
                      GemmShape{101, 203, 307}, // primes
                      GemmShape{1, 2048, 300},  // single row, full NC
                      GemmShape{200, 1, 300},   // single column
                      GemmShape{128, 196, 320}));

// Regression for the old kernel's `av == 0.0f` skip: 0 * inf must produce
// NaN, and NaN/Inf in either operand must propagate, exactly as the
// branch-free IEEE arithmetic dictates.
TEST(MatMulTest, NanAndInfPropagation) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();

  // Row [0, 1] x column [inf, 1]: 0 * inf = NaN, so the sum is NaN. The
  // skip-on-zero kernel returned 1 here.
  Tensor a(Shape{1, 2}, {0.0f, 1.0f});
  Tensor b(Shape{2, 1}, {inf, 1.0f});
  auto c = MatMul(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(std::isnan(c->at(0)));

  // NaN in A poisons its whole output row, and only that row.
  Tensor a2(Shape{2, 2}, {nan, 1.0f, 1.0f, 1.0f});
  Tensor b2(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  auto c2 = MatMul(a2, b2);
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(std::isnan(c2->at(0)));
  EXPECT_TRUE(std::isnan(c2->at(1)));
  EXPECT_FLOAT_EQ(c2->at(2), 4.0f);
  EXPECT_FLOAT_EQ(c2->at(3), 6.0f);

  // Inf times a positive row stays inf.
  Tensor a3(Shape{1, 1}, {2.0f});
  Tensor b3(Shape{1, 3}, {inf, -inf, 1.0f});
  auto c3 = MatMul(a3, b3);
  ASSERT_TRUE(c3.ok());
  EXPECT_TRUE(std::isinf(c3->at(0)));
  EXPECT_TRUE(std::isinf(c3->at(1)));
  EXPECT_LT(c3->at(1), 0.0f);
  EXPECT_FLOAT_EQ(c3->at(2), 2.0f);
}

// The reference oracle itself must propagate specials too (it exists to
// catch data-dependent shortcuts in the optimized path).
TEST(MatMulTest, ReferenceOracleHasNoZeroSkip) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a(Shape{1, 2}, {0.0f, 1.0f});
  Tensor b(Shape{2, 1}, {inf, 1.0f});
  auto c = MatMulReference(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(std::isnan(c->at(0)));
}

// The fused-ReLU epilogue must agree exactly with conv-then-ReLU: the
// arithmetic is identical, only the output pass is fused away.
TEST(Conv2DGemmTest, FusedReluMatchesSeparateRelu) {
  Rng rng(42);
  Tensor input = Tensor::RandomGaussian(Shape{6, 12, 12}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{9, 2, 3, 3}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{9}, &rng);
  auto plain = Conv2DGemm(input, w, b, 1, 1, 3);
  auto fused = Conv2DGemm(input, w, b, 1, 1, 3, /*relu=*/true);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(fused.ok());
  Tensor expected = Relu(*plain);
  ASSERT_EQ(expected.shape(), fused->shape());
  for (int64_t i = 0; i < expected.num_elements(); ++i) {
    ASSERT_EQ(expected.at(i), fused->at(i)) << "at " << i;
  }
}

// Intra-GEMM parallelism partitions work by row blocks but performs the
// same packing and micro-kernel arithmetic per block, so the result must
// be bit-identical to the serial kernel.
TEST(GemmPackedPoolTest, BitIdenticalToSerial) {
  Rng rng(7);
  const int64_t m = 256, n = 200, k = 64;
  Tensor a = Tensor::RandomGaussian(Shape{m, k}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{k, n}, &rng);
  Tensor bias = Tensor::RandomGaussian(Shape{m}, &rng);
  GemmEpilogue epilogue;
  epilogue.bias = bias.data();
  epilogue.relu = true;

  Tensor serial(Shape{m, n});
  GemmPacked(m, n, k, a.data(), k, b.data(), n, serial.mutable_data(), n,
             epilogue, nullptr);

  ThreadPool pool(4);
  Tensor parallel(Shape{m, n});
  GemmPacked(m, n, k, a.data(), k, b.data(), n, parallel.mutable_data(), n,
             epilogue, &pool);
  for (int64_t i = 0; i < serial.num_elements(); ++i) {
    ASSERT_EQ(serial.at(i), parallel.at(i)) << "at " << i;
  }
}

// The zero-allocations-after-warm-up contract: once a convolution shape
// has been seen, repeating it (or running anything smaller) acquires every
// scratch buffer from the arena without touching the heap.
TEST(KernelScratchTest, NoAllocationsAfterWarmup) {
  Rng rng(3);
  Tensor input = Tensor::RandomGaussian(Shape{8, 14, 14}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{16, 8, 3, 3}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{16}, &rng);

  // Warm-up: grows the arena to this shape's high-water mark.
  ASSERT_TRUE(Conv2DGemm(input, w, b, 1, 1, 1).ok());

  KernelScratch& scratch = KernelScratch::ThreadLocal();
  const int64_t allocs_after_warmup = scratch.allocations();
  const int64_t reuses_before = scratch.reuses();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Conv2DGemm(input, w, b, 1, 1, 1).ok());
  }
  EXPECT_EQ(scratch.allocations(), allocs_after_warmup)
      << "warmed-up convolutions must not allocate scratch";
  EXPECT_GT(scratch.reuses(), reuses_before);
}

TEST(KernelScratchTest, GrowsGeometricallyAndAligns) {
  KernelScratch scratch;
  float* p1 = scratch.Acquire(KernelScratch::Slot::kPackA, 100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 64, 0u);
  EXPECT_EQ(scratch.allocations(), 1);
  // Same slot, smaller request: reused, not reallocated.
  scratch.Acquire(KernelScratch::Slot::kPackA, 50);
  EXPECT_EQ(scratch.allocations(), 1);
  EXPECT_EQ(scratch.reuses(), 1);
  // Larger request forces growth.
  float* p2 = scratch.Acquire(KernelScratch::Slot::kPackA, 5000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 64, 0u);
  EXPECT_EQ(scratch.allocations(), 2);
}

TEST(Conv2DGemmTest, RejectsBadConfigs) {
  Tensor input(Shape{3, 8, 8});
  Tensor w(Shape{4, 3, 3, 3});
  Tensor b(Shape{4});
  // Non-square kernel.
  EXPECT_FALSE(
      Conv2DGemm(input, Tensor(Shape{4, 3, 3, 2}), b, 1, 1).ok());
  // Groups not dividing channels.
  EXPECT_FALSE(Conv2DGemm(input, w, b, 1, 1, 2).ok());
  // Bias mismatch.
  EXPECT_FALSE(Conv2DGemm(input, w, Tensor(Shape{5}), 1, 1).ok());
}

// ---- Batched fully connected layers --------------------------------------

// An FC shape that spans several fp32 K panels (kGemmKC = 256), two int8 K
// panels (kGemmKcInt8 = 1024), a full and a partial kGemmMC row block, and
// partial kGemmNR column strips; from batch 7 up it is large enough for
// the pool to split the row blocks. Batch 100 ends in a partial
// kFcBlockColumns block, 128 in two full ones.
constexpr int64_t kFcOut = 200;
constexpr int64_t kFcIn = 1100;
constexpr int64_t kFcBatches[] = {1, 7, 100, 128};

std::vector<Tensor> FcInputs(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int64_t j = 0; j < n; ++j) {
    // A CHW-shaped input: FC layers consume conv outputs unflattened.
    inputs.push_back(Tensor::RandomGaussian(Shape{11, 10, 10}, &rng));
  }
  return inputs;
}

bool BitIdentical(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.num_elements()) * sizeof(float)) ==
             0;
}

// The batch invariant: the packed kernel's k-order for one output element
// does not depend on n or on the pool schedule, so image j's output is the
// same bits in every batch it appears in.
TEST(FullyConnectedGemmTest, BitIdenticalAcrossBatchSizesAndPool) {
  Rng rng(31);
  Tensor w = Tensor::RandomGaussian(Shape{kFcOut, kFcIn}, &rng, 0.05f);
  Tensor bias = Tensor::RandomGaussian(Shape{kFcOut}, &rng);
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const std::vector<Tensor> all = FcInputs(128, 32);
  const float act_scale = SymmetricScale(3.0f);
  ThreadPool pool(4);
  for (const bool int8 : {false, true}) {
    const auto run = [&](const std::vector<Tensor>& in, ThreadPool* p) {
      return int8 ? FullyConnectedGemmInt8(in, *qw, bias, true, act_scale, p)
                  : FullyConnectedGemm(in, w, bias, true, p);
    };
    // Reference: every image alone, no pool.
    std::vector<Tensor> ref;
    for (const Tensor& x : all) {
      auto one = run({x}, nullptr);
      ASSERT_TRUE(one.ok());
      ASSERT_EQ(one->size(), 1u);
      ASSERT_EQ(one->front().shape(), (Shape{kFcOut}));
      ref.push_back(one->front());
    }
    for (const int64_t n : kFcBatches) {
      const std::vector<Tensor> in(all.begin(), all.begin() + n);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        auto got = run(in, p);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->size(), static_cast<size_t>(n));
        for (int64_t j = 0; j < n; ++j) {
          ASSERT_TRUE(BitIdentical(ref[j], (*got)[j]))
              << (int8 ? "int8" : "fp32") << " batch " << n << " image "
              << j << (p != nullptr ? " pool" : " serial");
        }
      }
    }
  }
}

// fp32 accumulation against the double-accumulating oracle.
TEST(FullyConnectedGemmTest, MatchesFullyConnectedOracle) {
  Rng rng(33);
  Tensor w = Tensor::RandomGaussian(Shape{kFcOut, kFcIn}, &rng, 0.05f);
  Tensor bias = Tensor::RandomGaussian(Shape{kFcOut}, &rng);
  const std::vector<Tensor> in = FcInputs(7, 34);
  ThreadPool pool(4);
  auto got = FullyConnectedGemm(in, w, bias, false, &pool);
  ASSERT_TRUE(got.ok());
  for (size_t j = 0; j < in.size(); ++j) {
    auto ref = FullyConnected(in[j].Flatten(), w, bias);
    ASSERT_TRUE(ref.ok());
    ExpectGemmClose(*ref, (*got)[j], kFcIn);
  }
}

// With unit scales, integer-valued inputs and no bias, the dequantizing
// epilogue is the identity on float(acc), and |acc| < 2^24 keeps that
// conversion exact — so the outputs ARE the int32 accumulators, and they
// must equal a direct integer dot product.
TEST(FullyConnectedGemmTest, Int8AccumulatorsMatchIntegerDotProduct) {
  Rng rng(35);
  QuantizedWeights qw;
  qw.shape = Shape{kFcOut, kFcIn};
  qw.data.resize(static_cast<size_t>(kFcOut * kFcIn));
  for (int8_t& v : qw.data) {
    v = static_cast<int8_t>(rng.NextDouble(-100.0, 100.0));
  }
  qw.scales.assign(static_cast<size_t>(kFcOut), 1.0f);
  std::vector<Tensor> in;
  for (int j = 0; j < 7; ++j) {
    Tensor x(Shape{kFcIn});
    for (int64_t p = 0; p < kFcIn; ++p) {
      x.set(p, std::nearbyint(static_cast<float>(
                   rng.NextDouble(-100.0, 100.0))));
    }
    in.push_back(std::move(x));
  }
  ThreadPool pool(4);
  auto got = FullyConnectedGemmInt8(in, qw, Tensor(Shape{kFcOut}), false,
                                    /*act_scale=*/1.0f, &pool);
  ASSERT_TRUE(got.ok());
  for (size_t j = 0; j < in.size(); ++j) {
    for (int64_t r = 0; r < kFcOut; ++r) {
      int64_t dot = 0;
      for (int64_t p = 0; p < kFcIn; ++p) {
        dot += static_cast<int64_t>(qw.data[r * kFcIn + p]) *
               static_cast<int64_t>(in[j].at(p));
      }
      ASSERT_EQ((*got)[j].at(r), static_cast<float>(dot))
          << "image " << j << " row " << r;
    }
  }
}

TEST(FullyConnectedGemmTest, RejectsBadShapes) {
  Tensor w(Shape{4, 6});
  Tensor b(Shape{4});
  EXPECT_FALSE(FullyConnectedGemm({Tensor(Shape{5})}, w, b, false, nullptr)
                   .ok());
  EXPECT_FALSE(
      FullyConnectedGemm({Tensor(Shape{6})}, w, Tensor(Shape{3}), false,
                         nullptr)
          .ok());
  EXPECT_FALSE(FullyConnectedGemm({Tensor(Shape{6})}, Tensor(Shape{24}), b,
                                  false, nullptr)
                   .ok());
  auto empty = FullyConnectedGemm({}, w, b, false, nullptr);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace vista
