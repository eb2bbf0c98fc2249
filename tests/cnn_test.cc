#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dl/cnn.h"
#include "dl/model_zoo.h"
#include "dl/op_spec.h"
#include "tensor/ops.h"

namespace vista::dl {
namespace {

Result<CnnArchitecture> TinyArch() {
  CnnBuilder b("Tiny", Shape{3, 16, 16});
  b.BeginLayer("conv1").Conv(4, 3, 1, 1).MaxPool(2, 2);
  b.BeginLayer("conv2").Conv(8, 3, 1, 1).MaxPool(2, 2);
  b.BeginLayer("fc1").Fc(10);
  b.BeginLayer("fc2").Fc(4, /*relu=*/false);
  return b.Build();
}

TEST(OpSpecTest, ConvShapeAndParams) {
  OpSpec op;
  op.kind = OpKind::kConv;
  op.out_channels = 96;
  op.kernel = 11;
  op.stride = 4;
  op.pad = 0;
  auto stat = AnalyzeOp(op, Shape{3, 227, 227});
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->output_shape, (Shape{96, 55, 55}));
  EXPECT_EQ(stat->param_count, 96 * 3 * 11 * 11 + 96);
  EXPECT_EQ(stat->flops, Conv2DFlops(3, 96, 55, 55, 11));
}

TEST(OpSpecTest, PoolShape) {
  OpSpec op;
  op.kind = OpKind::kMaxPool;
  op.window = 3;
  op.stride = 2;
  auto stat = AnalyzeOp(op, Shape{96, 55, 55});
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->output_shape, (Shape{96, 27, 27}));
  EXPECT_EQ(stat->param_count, 0);
}

TEST(OpSpecTest, FcFromTensorInput) {
  OpSpec op;
  op.kind = OpKind::kFc;
  op.out_channels = 10;
  auto stat = AnalyzeOp(op, Shape{24});
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->output_shape, (Shape{10}));
  EXPECT_EQ(stat->param_count, 24 * 10 + 10);
}

TEST(OpSpecTest, BottleneckShapeAndProjection) {
  OpSpec op;
  op.kind = OpKind::kBottleneck;
  op.mid_channels = 64;
  op.out_channels = 256;
  op.stride = 1;
  op.project = true;
  auto stat = AnalyzeOp(op, Shape{64, 56, 56});
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->output_shape, (Shape{256, 56, 56}));
  // conv1 64->64 + bn, conv2 64->64 3x3 + bn, conv3 64->256 + bn,
  // projection 64->256 + bn.
  const int64_t expected = (64 * 64 + 64 + 128) +
                           (64 * 64 * 9 + 64 + 128) +
                           (64 * 256 + 256 + 512) + (64 * 256 + 256 + 512);
  EXPECT_EQ(stat->param_count, expected);
}

TEST(OpSpecTest, BottleneckStrideDownsamples) {
  OpSpec op;
  op.kind = OpKind::kBottleneck;
  op.mid_channels = 128;
  op.out_channels = 512;
  op.stride = 2;
  op.project = true;
  auto stat = AnalyzeOp(op, Shape{256, 56, 56});
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->output_shape, (Shape{512, 28, 28}));
}

TEST(OpSpecTest, RejectsBadInputRank) {
  OpSpec op;
  op.kind = OpKind::kConv;
  op.out_channels = 4;
  op.kernel = 3;
  EXPECT_FALSE(AnalyzeOp(op, Shape{10}).ok());
}

TEST(CnnBuilderTest, BuildsStatsWithCumulativeFlops) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  EXPECT_EQ(arch->num_layers(), 4);
  EXPECT_EQ(arch->layer(0).name, "conv1");
  EXPECT_EQ(arch->layer(0).output_shape, (Shape{4, 8, 8}));
  EXPECT_EQ(arch->layer(1).output_shape, (Shape{8, 4, 4}));
  EXPECT_EQ(arch->layer(2).output_shape, (Shape{10}));
  EXPECT_TRUE(arch->layer(0).convolutional);
  EXPECT_FALSE(arch->layer(2).convolutional);
  // Cumulative FLOPs strictly increase.
  for (int i = 1; i < arch->num_layers(); ++i) {
    EXPECT_GT(arch->layer(i).cumulative_flops,
              arch->layer(i - 1).cumulative_flops);
  }
}

TEST(CnnBuilderTest, EmptyBuilderFails) {
  CnnBuilder b("Empty", Shape{3, 8, 8});
  EXPECT_FALSE(b.Build().ok());
}

TEST(CnnArchitectureTest, FindLayerAndTopLayers) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto idx = arch->FindLayer("fc1");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2);
  EXPECT_FALSE(arch->FindLayer("nope").ok());

  auto top = arch->TopLayers(2);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (std::vector<int>{2, 3}));
  EXPECT_FALSE(arch->TopLayers(0).ok());
  EXPECT_FALSE(arch->TopLayers(9).ok());
}

TEST(CnnArchitectureTest, TransferFeatureCount) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  // conv2 output 8x4x4 pooled to 8x2x2 = 32 features.
  EXPECT_EQ(arch->transfer_feature_count(1), 32);
  // fc1 is already a vector.
  EXPECT_EQ(arch->transfer_feature_count(2), 10);
}

TEST(CnnModelTest, RunProducesFinalShape) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 7);
  ASSERT_TRUE(model.ok());
  Rng rng(1);
  Tensor img = Tensor::RandomGaussian(Shape{3, 16, 16}, &rng);
  auto out = model->Run(img);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{4}));
}

TEST(CnnModelTest, PartialInferenceComposes) {
  // The heart of Definition 3.7: f̂_{0..3} == f̂_{2..3} ∘ f̂_{0..1}.
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 7);
  ASSERT_TRUE(model.ok());
  Rng rng(2);
  Tensor img = Tensor::RandomGaussian(Shape{3, 16, 16}, &rng);

  auto full = model->RunTo(img, 3);
  ASSERT_TRUE(full.ok());
  auto half = model->RunTo(img, 1);
  ASSERT_TRUE(half.ok());
  auto rest = model->RunRange(*half, 2, 3);
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(full->AllClose(*rest, 1e-4f));
}

TEST(CnnModelTest, EveryPrefixComposes) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 9);
  ASSERT_TRUE(model.ok());
  Rng rng(3);
  Tensor img = Tensor::RandomGaussian(Shape{3, 16, 16}, &rng);
  for (int split = 0; split < 3; ++split) {
    auto first = model->RunTo(img, split);
    ASSERT_TRUE(first.ok());
    auto second = model->RunRange(*first, split + 1, 3);
    ASSERT_TRUE(second.ok());
    auto direct = model->RunTo(img, 3);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(direct->AllClose(*second, 1e-4f)) << "split=" << split;
  }
}

TEST(CnnModelTest, AcceptsFlattenedIntermediate) {
  // The dataflow engine stores features as vectors; RunRange must accept
  // the flattened form of a layer output.
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 7);
  ASSERT_TRUE(model.ok());
  Rng rng(4);
  Tensor img = Tensor::RandomGaussian(Shape{3, 16, 16}, &rng);
  auto mid = model->RunTo(img, 0);
  ASSERT_TRUE(mid.ok());
  auto from_flat = model->RunRange(mid->Flatten(), 1, 3);
  auto from_tensor = model->RunRange(*mid, 1, 3);
  ASSERT_TRUE(from_flat.ok());
  ASSERT_TRUE(from_tensor.ok());
  EXPECT_TRUE(from_flat->AllClose(*from_tensor));
}

TEST(CnnModelTest, RejectsBadRange) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 7);
  ASSERT_TRUE(model.ok());
  Tensor img(Shape{3, 16, 16});
  EXPECT_FALSE(model->RunRange(img, 2, 1).ok());
  EXPECT_FALSE(model->RunRange(img, 0, 99).ok());
  EXPECT_FALSE(model->RunRange(img, -1, 2).ok());
}

TEST(CnnModelTest, RejectsIncompatibleInput) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 7);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->RunTo(Tensor(Shape{3, 8, 8}), 3).ok());
}

TEST(CnnModelTest, DeterministicInstantiation) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto m1 = CnnModel::Instantiate(*arch, 42);
  auto m2 = CnnModel::Instantiate(*arch, 42);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  Rng rng(5);
  Tensor img = Tensor::RandomGaussian(Shape{3, 16, 16}, &rng);
  auto o1 = m1->Run(img);
  auto o2 = m2->Run(img);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_TRUE(o1->AllClose(*o2));
}

TEST(CnnModelTest, GaborInitChangesFirstLayerFeatures) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto he = CnnModel::Instantiate(*arch, 42, WeightInit::kHe);
  auto gabor = CnnModel::Instantiate(*arch, 42, WeightInit::kGaborFirstConv);
  ASSERT_TRUE(he.ok());
  ASSERT_TRUE(gabor.ok());
  Rng rng(6);
  Tensor img = Tensor::RandomGaussian(Shape{3, 16, 16}, &rng);
  auto o1 = he->RunTo(img, 0);
  auto o2 = gabor->RunTo(img, 0);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_FALSE(o1->AllClose(*o2));
}

TEST(TransferFeaturizeTest, ConvOutputsArePooledAndFlattened) {
  Tensor conv_out(Shape{2, 4, 4});
  auto g = TransferFeaturize(conv_out, 2);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->shape(), (Shape{8}));
}

TEST(TransferFeaturizeTest, VectorOutputsPassThrough) {
  Tensor fc_out(Shape{10});
  auto g = TransferFeaturize(fc_out, 2);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->shape(), (Shape{10}));
}

// Both ways a batch spends the pool run the same arithmetic per image as a
// serial RunRange (a multi-image batch runs one task per image with serial
// kernels; a one-image batch passes the pool to its kernels, whose row
// block splits pack identically per block), so batched results are
// bit-identical to the one-image-at-a-time path.
TEST(CnnModelTest, RunRangeBatchMatchesSerialBothModes) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 21);
  ASSERT_TRUE(model.ok());
  Rng rng(9);
  std::vector<Tensor> images;
  for (int i = 0; i < 5; ++i) {
    images.push_back(Tensor::RandomGaussian(Shape{3, 16, 16}, &rng));
  }
  std::vector<Tensor> expected;
  for (const Tensor& img : images) {
    auto out = model->RunRange(img, 0, arch->num_layers() - 1);
    ASSERT_TRUE(out.ok());
    expected.push_back(std::move(out).value());
  }

  ThreadPool pool(4);
  CnnOptions opts;
  opts.pool = &pool;
  auto batch = model->RunRangeBatch(images, 0, arch->num_layers() - 1, opts);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    auto single =
        model->RunRangeBatch({images[i]}, 0, arch->num_layers() - 1, opts);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(single->size(), 1u);
    for (const Tensor* got : {&(*batch)[i], &(*single)[0]}) {
      ASSERT_EQ(expected[i].shape(), got->shape());
      for (int64_t j = 0; j < expected[i].num_elements(); ++j) {
        ASSERT_EQ(expected[i].at(j), got->at(j))
            << (got == &(*single)[0] ? "one-image" : "per-image tasks")
            << " image " << i << " elem " << j;
      }
    }
  }
}

TEST(CnnModelTest, RunRangeBatchWithoutPoolIsSerial) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 22);
  ASSERT_TRUE(model.ok());
  Rng rng(10);
  std::vector<Tensor> images = {
      Tensor::RandomGaussian(Shape{3, 16, 16}, &rng),
      Tensor::RandomGaussian(Shape{3, 16, 16}, &rng)};
  auto batch = model->RunRangeBatch(images, 0, 1);
  ASSERT_TRUE(batch.ok());
  auto single = model->RunRange(images[1], 0, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE((*batch)[1].AllClose(*single));
}

TEST(CnnModelTest, RunRangeBatchSurfacesPerImageFailure) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 23);
  ASSERT_TRUE(model.ok());
  Rng rng(11);
  ThreadPool pool(2);
  CnnOptions opts;
  opts.pool = &pool;
  std::vector<Tensor> images = {
      Tensor::RandomGaussian(Shape{3, 16, 16}, &rng),
      Tensor::RandomGaussian(Shape{3, 4, 4}, &rng)};  // Wrong shape.
  auto batch = model->RunRangeBatch(images, 0, 1, opts);
  EXPECT_FALSE(batch.ok());
}

TEST(CnnModelTest, ProfilingRecordsPerLayerFlops) {
  auto arch = TinyArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 24);
  ASSERT_TRUE(model.ok());
  obs::Registry registry;
  model->EnableProfiling(&registry);
  Rng rng(12);
  Tensor img = Tensor::RandomGaussian(Shape{3, 16, 16}, &rng);
  ASSERT_TRUE(model->Run(img).ok());
  ASSERT_TRUE(model->Run(img).ok());
  obs::Counter* conv1 = registry.counter("dl.flops.Tiny.conv1");
  EXPECT_EQ(conv1->value(), 2 * arch->layer(0).flops);
  model->EnableProfiling(nullptr);
}

TEST(CnnModelTest, ResidualBlockRuns) {
  CnnBuilder b("Res", Shape{3, 8, 8});
  b.BeginLayer("stem").Conv(4, 3, 1, 1);
  b.BeginLayer("block1").Bottleneck(2, 8, 1, /*project=*/true);
  b.BeginLayer("block2").Bottleneck(2, 8, 2, /*project=*/true);
  b.BeginLayer("head").GlobalAvgPool().Fc(3, false);
  auto arch = b.Build();
  ASSERT_TRUE(arch.ok());
  EXPECT_EQ(arch->layer(1).output_shape, (Shape{8, 8, 8}));
  EXPECT_EQ(arch->layer(2).output_shape, (Shape{8, 4, 4}));
  auto model = CnnModel::Instantiate(*arch, 11);
  ASSERT_TRUE(model.ok());
  Rng rng(8);
  Tensor img = Tensor::RandomGaussian(Shape{3, 8, 8}, &rng);
  auto out = model->Run(img);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{3}));
}

bool SameBits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.num_elements()) * sizeof(float)) ==
             0;
}

// FC layers run as one GEMM per batch, convs per image; neither may show in
// the bits. A 7-image batch, the same images one at a time, and RunRange
// (serial kernels) all produce identical features, in fp32 and in int8 —
// both from the raw image and from a flattened conv5 output (how the
// engine stores a materialized base layer).
TEST(CnnModelTest, BatchedFcIsBitIdenticalToOneImageAtATime) {
  auto arch = MicroAlexNetArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 41);
  ASSERT_TRUE(model.ok());
  Rng rng(42);
  std::vector<Tensor> images;
  for (int i = 0; i < 7; ++i) {
    images.push_back(Tensor::RandomGaussian(arch->input_shape(), &rng));
  }
  ASSERT_TRUE(model->CalibrateInt8({images[0], images[1]}).ok());
  const int last = arch->num_layers() - 1;
  auto fc6 = arch->FindLayer("fc6");
  ASSERT_TRUE(fc6.ok());
  ThreadPool pool(4);
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    CnnOptions pooled;
    pooled.pool = &pool;
    pooled.precision = precision;
    CnnOptions serial;
    serial.precision = precision;
    std::vector<Tensor> bases;
    for (const Tensor& img : images) {
      auto base = model->RunRange(img, 0, *fc6 - 1, serial);
      ASSERT_TRUE(base.ok());
      bases.push_back(base->Flatten());
    }
    for (const auto& [inputs, from] :
         {std::pair{images, 0}, std::pair{bases, *fc6}}) {
      auto batch = model->RunRangeBatch(inputs, from, last, pooled);
      ASSERT_TRUE(batch.ok());
      ASSERT_EQ(batch->size(), inputs.size());
      for (size_t i = 0; i < inputs.size(); ++i) {
        auto one = model->RunRangeBatch({inputs[i]}, from, last, pooled);
        ASSERT_TRUE(one.ok());
        auto single = model->RunRange(inputs[i], from, last, serial);
        ASSERT_TRUE(single.ok());
        EXPECT_TRUE(SameBits((*batch)[i], one->front()))
            << PrecisionName(precision) << " from " << from << " image "
            << i << ": batch of 7 vs batch of 1";
        EXPECT_TRUE(SameBits((*batch)[i], *single))
            << PrecisionName(precision) << " from " << from << " image "
            << i << ": batch of 7 vs RunRange";
      }
    }
  }
}

// A batched FC step adds layer FLOPs x batch size in one step, FC-free
// layers add per image: after a 7-image batch every dl.flops counter reads
// exactly 7x the layer's analytic FLOPs, and under int8 every dl.int8_ops
// counter 7x its quantized ops. One histogram sample is one image's pass
// through an FC-free layer, one batch's pass through an FC layer.
TEST(CnnModelTest, ProfiledBatchCountersReconcileExactly) {
  auto arch = MicroAlexNetArch();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 43);
  ASSERT_TRUE(model.ok());
  Rng rng(44);
  std::vector<Tensor> images;
  for (int i = 0; i < 7; ++i) {
    images.push_back(Tensor::RandomGaussian(arch->input_shape(), &rng));
  }
  ASSERT_TRUE(model->CalibrateInt8({images[0]}).ok());
  ThreadPool pool(4);
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    obs::Registry registry;
    model->EnableProfiling(&registry);
    CnnOptions opts;
    opts.pool = &pool;
    opts.precision = precision;
    ASSERT_TRUE(
        model->RunRangeBatch(images, 0, arch->num_layers() - 1, opts).ok());
    for (int l = 0; l < arch->num_layers(); ++l) {
      const std::string suffix = arch->name() + "." + arch->layer(l).name;
      const bool fc = arch->layer_spec(l).ops.back().kind == OpKind::kFc;
      EXPECT_EQ(registry.counter("dl.flops." + suffix)->value(),
                7 * arch->layer(l).flops)
          << suffix;
      EXPECT_EQ(registry.counter("dl.int8_ops." + suffix)->value(),
                precision == Precision::kInt8 ? 7 * model->layer_int8_ops(l)
                                              : 0)
          << suffix;
      EXPECT_EQ(registry.histogram("dl.forward_ms." + suffix)->count(),
                fc ? 1 : 7)
          << suffix;
    }
    model->EnableProfiling(nullptr);
  }
}

// A layer mixing a per-image primitive with an FC (global average pool,
// then the classifier) runs the pool per image and the FC over the batch.
TEST(CnnModelTest, MixedFcLayerBatchMatchesSingle) {
  CnnBuilder b("Head", Shape{3, 8, 8});
  b.BeginLayer("stem").Conv(6, 3, 1, 1);
  b.BeginLayer("head").GlobalAvgPool().Fc(5, false);
  auto arch = b.Build();
  ASSERT_TRUE(arch.ok());
  auto model = CnnModel::Instantiate(*arch, 45);
  ASSERT_TRUE(model.ok());
  Rng rng(46);
  std::vector<Tensor> images;
  for (int i = 0; i < 3; ++i) {
    images.push_back(Tensor::RandomGaussian(Shape{3, 8, 8}, &rng));
  }
  ThreadPool pool(2);
  CnnOptions opts;
  opts.pool = &pool;
  auto batch = model->RunRangeBatch(images, 0, 1, opts);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < images.size(); ++i) {
    auto single = model->RunRange(images[i], 0, 1);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->shape(), (Shape{5}));
    EXPECT_TRUE(SameBits((*batch)[i], *single)) << "image " << i;
  }
}

}  // namespace
}  // namespace vista::dl
