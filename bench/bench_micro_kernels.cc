// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// convolution, partial inference, join operators, record serialization,
// and the Vista optimizer itself.
//
// `--smoke` skips google-benchmark and runs the kernel smoke suite
// instead: naive-vs-packed GEMM on a conv-shaped 256x1152x196 problem,
// implicit-GEMM conv, batched-FC bit identity, batched-inference thread
// scaling against a measured host probe, and the scratch-arena counters,
// written as a machine-readable report (default BENCH_smoke_kernels.json,
// override with `--out <path>`) — the input to the CI bench-regression
// gate (scripts/bench_regression.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dataflow/engine.h"
#include "dl/model_zoo.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "dl/dag.h"
#include "features/hog.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/quant.h"
#include "tensor/scratch.h"
#include "vista/optimizer.h"

namespace vista {
namespace {

void BM_Conv2D3x3(benchmark::State& state) {
  const int64_t channels = state.range(0);
  Rng rng(1);
  Tensor input = Tensor::RandomGaussian(Shape{channels, 32, 32}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{channels, channels, 3, 3}, &rng);
  Tensor b(Shape{channels});
  for (auto _ : state) {
    auto out = Conv2D(input, w, b, 1, 1);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Conv2D3x3)->Arg(8)->Arg(16)->Arg(32);

void BM_MicroCnnInference(benchmark::State& state) {
  auto arch = dl::MicroAlexNetArch();
  auto model = dl::CnnModel::Instantiate(*arch, 3);
  Rng rng(2);
  Tensor img = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  for (auto _ : state) {
    auto out = model->Run(img);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MicroCnnInference);

void BM_PartialInferenceTopLayer(benchmark::State& state) {
  // Staged execution's inner loop: one hop between adjacent fc layers.
  auto arch = dl::MicroAlexNetArch();
  auto model = dl::CnnModel::Instantiate(*arch, 3);
  Rng rng(2);
  Tensor img = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  Tensor fc7 = model->RunTo(img, 6).value();
  for (auto _ : state) {
    auto out = model->RunRange(fc7, 7, 7);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartialInferenceTopLayer);

std::vector<df::Record> BenchRecords(int n, double density) {
  Rng rng(7);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(i % 2), 1.f, 2.f};
    Tensor t(Shape{512});
    for (int64_t j = 0; j < 512; ++j) {
      if (rng.NextBool(density)) t.set(j, static_cast<float>(rng.NextGaussian()));
    }
    r.features.Append(std::move(t));
    records.push_back(std::move(r));
  }
  return records;
}

void BM_RecordSerializeSparse(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  auto records = BenchRecords(64, density);
  for (auto _ : state) {
    std::vector<uint8_t> buf;
    for (const auto& r : records) df::SerializeRecord(r, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RecordSerializeSparse)->Arg(13)->Arg(36)->Arg(100);

void BM_ShuffleHashJoin(benchmark::State& state) {
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  df::Engine engine(config);
  auto left = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  auto right = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  for (auto _ : state) {
    auto joined = engine.Join(left, right, df::JoinStrategy::kShuffleHash, 8);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_ShuffleHashJoin);

void BM_BroadcastJoin(benchmark::State& state) {
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  df::Engine engine(config);
  auto left = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  auto right = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  for (auto _ : state) {
    auto joined = engine.Join(left, right, df::JoinStrategy::kBroadcast, 8);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BroadcastJoin);

void BM_OptimizerLatency(benchmark::State& state) {
  auto roster = Roster::Default().value();
  const RosterEntry* entry = roster.Lookup(dl::KnownCnn::kResNet50).value();
  auto workload =
      TransferWorkload::TopLayers(roster, dl::KnownCnn::kResNet50, 5).value();
  DataStats stats;
  stats.num_records = 200000;
  stats.num_struct_features = 200;
  SystemEnv env;
  for (auto _ : state) {
    auto d = OptimizeFeatureTransfer(env, *entry, workload, stats);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_OptimizerLatency);


void BM_Conv2DDirect32(benchmark::State& state) {
  Rng rng(4);
  Tensor input = Tensor::RandomGaussian(Shape{16, 32, 32}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{16, 16, 3, 3}, &rng);
  Tensor b(Shape{16});
  for (auto _ : state) {
    auto out = Conv2D(input, w, b, 1, 1);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Conv2DDirect32);

void BM_Conv2DGemm32(benchmark::State& state) {
  Rng rng(4);
  Tensor input = Tensor::RandomGaussian(Shape{16, 32, 32}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{16, 16, 3, 3}, &rng);
  Tensor b(Shape{16});
  for (auto _ : state) {
    auto out = Conv2DGemm(input, w, b, 1, 1);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Conv2DGemm32);

void BM_HogDescriptor(benchmark::State& state) {
  Rng rng(5);
  Tensor img = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  for (auto _ : state) {
    auto f = feat::HogFeatures(img);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HogDescriptor);

// Observability overhead: the per-event cost the instrumented hot paths
// pay. Counter adds must stay in the nanoseconds; a ScopedSpan is a mutex
// lock + clock reads, so it belongs on operators, not per-record loops.
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter* c = registry.counter("bench.counter");
  for (auto _ : state) {
    c->Add(1);
  }
  benchmark::DoNotOptimize(c);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram* h = registry.histogram("bench.latency_ms");
  double v = 0.013;
  for (auto _ : state) {
    h->Record(v);
    v = v * 1.37 + 0.001;
    if (v > 1000.0) v = 0.013;
  }
  benchmark::DoNotOptimize(h);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsScopedLatency(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram* h = registry.histogram("bench.scoped_ms");
  for (auto _ : state) {
    obs::ScopedLatency latency(h);
    benchmark::DoNotOptimize(latency);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedLatency);

void BM_ObsScopedSpan(benchmark::State& state) {
  obs::TraceCollector collector;
  for (auto _ : state) {
    obs::ScopedSpan span(&collector, "bench", "micro");
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpan);

void BM_ObsScopedSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedSpan span(nullptr, "bench", "micro");
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpanDisabled);

void BM_DagStagedPlanner(benchmark::State& state) {
  auto arch = dl::MicroDenseNetDag().value();
  for (auto _ : state) {
    auto plan = dl::PlanStagedDag(arch, {2, 4, 5});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_DagStagedPlanner);

/// Median-of-reps wall time of `fn`, in milliseconds.
template <typename Fn>
double TimeMs(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedSeconds() * 1e3);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Host parallel-throughput probe: the same compute loop (8 independent
/// multiply-add chains, so it competes for the FP ports the way a GEMM
/// does) on 1 thread and on `threads` threads at once, timed like every
/// other figure here (TimeMs, median of 5). Returns
/// threads x t(1) / t(threads): how many threads' worth of compute the host
/// actually delivers (near `threads` on dedicated cores, near 1 when the
/// threads share one core).
double MeasuredParallelScaling(int threads) {
  const auto loop = [] {
    double acc[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int64_t i = 0; i < 4000000; ++i) {
      for (double& a : acc) a = a * 0.9999999 + 1e-7;
    }
    benchmark::DoNotOptimize(acc);
  };
  const auto run_ms = [&](int n) {
    return TimeMs(5, [&] {
      std::vector<std::thread> workers;
      for (int t = 0; t < n; ++t) workers.emplace_back(loop);
      for (std::thread& w : workers) w.join();
    });
  };
  const double one = run_ms(1);
  const double many = run_ms(threads);
  return static_cast<double>(threads) * one / many;
}

/// The kernel smoke suite. Latency numbers are machine-dependent and only
/// reported; the regression gate compares the machine-independent ratios
/// (speedup, efficiency) so a slower CI runner does not fail the build.
int RunKernelSmoke(int argc, char** argv) {
  bench::Banner("kernels", "packed GEMM and batched inference smoke suite");
  bench::BenchReporter reporter(
      "micro_kernels",
      "smoke: naive vs packed GEMM (256x1152x196), batched inference "
      "scaling, scratch arena reuse");
  obs::Registry registry;
  // fp32 packed time on the conv shape; the int8 section below reports its
  // throughput as a ratio against this.
  double fp32_packed_ms = 0.0;

  // --- Packed vs naive GEMM on the conv-shaped problem: 256 filters over
  // a 128-channel 3x3 patch matrix (k = 1152) at 14x14 output (n = 196).
  {
    const int64_t m = 256, k = 1152, n = 196;
    Rng rng(1);
    Tensor a = Tensor::RandomGaussian(Shape{m, k}, &rng);
    Tensor b = Tensor::RandomGaussian(Shape{k, n}, &rng);
    (void)MatMulReference(a, b);  // Warm-up (page-in, arena growth).
    (void)MatMul(a, b);
    const double naive_ms =
        TimeMs(5, [&] { benchmark::DoNotOptimize(MatMulReference(a, b)); });
    const double packed_ms =
        TimeMs(15, [&] { benchmark::DoNotOptimize(MatMul(a, b)); });
    const int64_t flops_per_call = 2 * m * n * k;
    const double gflops = static_cast<double>(flops_per_call) /
                          (packed_ms * 1e-3) / 1e9;
    const double speedup = naive_ms / packed_ms;
    registry.gauge("gemm_gflops")->Set(static_cast<int64_t>(gflops));
    fp32_packed_ms = packed_ms;

    obs::Json gemm = obs::Json::Object();
    gemm.Set("m", obs::Json::Int(m));
    gemm.Set("k", obs::Json::Int(k));
    gemm.Set("n", obs::Json::Int(n));
    gemm.Set("naive_ms", obs::Json::Num(naive_ms));
    gemm.Set("packed_ms", obs::Json::Num(packed_ms));
    gemm.Set("speedup", obs::Json::Num(speedup));
    gemm.Set("gflops", obs::Json::Num(gflops));
    reporter.AddSection("gemm_256x1152x196", std::move(gemm));
    std::printf("gemm 256x1152x196: naive %.2f ms, packed %.2f ms "
                "(%.2fx, %.1f GFLOP/s)\n",
                naive_ms, packed_ms, speedup, gflops);
  }

  // --- Quantized GEMM on the same conv shape: symmetric int8 inputs, the
  // per-row dequant epilogue fused. The gate tracks the machine-independent
  // speedup over the fp32 packed kernel and the accuracy of the dequantized
  // product against the fp32 product of the same real values.
  {
    const int64_t m = 256, k = 1152, n = 196;
    Rng rng(3);
    Tensor a = Tensor::RandomGaussian(Shape{m, k}, &rng);
    Tensor b = Tensor::RandomGaussian(Shape{k, n}, &rng);
    const float a_scale = SymmetricScale(MaxAbs(a.data(), a.num_elements()));
    const float b_scale = SymmetricScale(MaxAbs(b.data(), b.num_elements()));
    std::vector<int8_t> a8(m * k), b8(k * n);
    QuantizeSymmetric(a.data(), m * k, a_scale, a8.data());
    QuantizeSymmetric(b.data(), k * n, b_scale, b8.data());
    const std::vector<float> scales(m, a_scale * b_scale);
    std::vector<float> c(m * n);
    GemmInt8Epilogue epilogue;
    epilogue.scale = scales.data();
    const auto run = [&] {
      GemmPackedInt8(m, n, k, a8.data(), k, b8.data(), n, c.data(), n,
                     epilogue, nullptr);
      benchmark::DoNotOptimize(c.data());
    };
    run();  // Warm-up.
    const double int8_ms = TimeMs(15, run);
    const double gops =
        static_cast<double>(2 * m * n * k) / (int8_ms * 1e-3) / 1e9;
    registry.gauge("gemm_gops_int8")->Set(static_cast<int64_t>(gops));
    const double speedup_vs_fp32 = fp32_packed_ms / int8_ms;

    auto ref = MatMul(a, b);
    double err_sq = 0.0, ref_sq = 0.0;
    for (int64_t i = 0; i < m * n; ++i) {
      const double d = c[i] - ref->at(i);
      err_sq += d * d;
      ref_sq += static_cast<double>(ref->at(i)) * ref->at(i);
    }
    const double rel_l2_error = std::sqrt(err_sq / ref_sq);
    const double kErrorBound = 0.05;

    obs::Json q = obs::Json::Object();
    q.Set("m", obs::Json::Int(m));
    q.Set("k", obs::Json::Int(k));
    q.Set("n", obs::Json::Int(n));
    q.Set("kernel", obs::Json::Str(GemmInt8KernelName()));
    q.Set("int8_ms", obs::Json::Num(int8_ms));
    q.Set("fp32_packed_ms", obs::Json::Num(fp32_packed_ms));
    q.Set("gops", obs::Json::Num(gops));
    q.Set("speedup_vs_fp32", obs::Json::Num(speedup_vs_fp32));
    q.Set("rel_l2_error", obs::Json::Num(rel_l2_error));
    q.Set("accuracy_within_bound",
          obs::Json::Num(rel_l2_error <= kErrorBound ? 1.0 : 0.0));
    reporter.AddSection("gemm_int8_256x1152x196", std::move(q));
    std::printf("gemm int8 256x1152x196 [%s]: %.2f ms (%.2fx vs fp32 "
                "packed, %.1f GOP/s, rel L2 err %.4f)\n",
                GemmInt8KernelName(), int8_ms, speedup_vs_fp32, gops,
                rel_l2_error);
  }

  // --- Implicit-GEMM convolution against the direct Conv2D oracle on a
  // VGG-style 3x3 conv (64 ch, 112x112, 48 filters — a large-spatial
  // shape whose 29 MB patch matrix would spill the L2 cache if it were
  // materialized). The gate tracks the machine-independent speedup over
  // the direct loops (mirroring the GEMM section's speedup over the naive
  // triple loop), two 0/1 correctness indicators — the pool-parallel
  // output must equal the serial output bit for bit (checked on the
  // separate parallel-check conv below), and the output must match the
  // direct oracle within the differential tests' tolerance — and the
  // deterministic scratch-footprint ratio: what a materialized expansion
  // would add on top of the implicit arena's peak, over that peak (pure
  // Acquire accounting, identical on every machine).
  const int64_t conv_c = 64, conv_hw = 112, conv_f = 48;
  const int conv_k = 3, conv_s = 1, conv_p = 1;
  Rng conv_rng(6);
  Tensor conv_in =
      Tensor::RandomGaussian(Shape{conv_c, conv_hw, conv_hw}, &conv_rng);
  Tensor conv_w = Tensor::RandomGaussian(
      Shape{conv_f, conv_c, conv_k, conv_k}, &conv_rng);
  Tensor conv_b = Tensor::RandomGaussian(Shape{conv_f}, &conv_rng);
  // The parallel bit-identity check needs more than one kGemmMC row block
  // to distribute (48 filters are one block, which always runs inline):
  // 128 filters over 64ch 28x28, 3x3, split into a full and a partial
  // block.
  const int64_t par_hw = 28, par_f = 128;
  Rng par_rng(7);
  Tensor par_in =
      Tensor::RandomGaussian(Shape{conv_c, par_hw, par_hw}, &par_rng);
  Tensor par_w = Tensor::RandomGaussian(
      Shape{par_f, conv_c, conv_k, conv_k}, &par_rng);
  Tensor par_b = Tensor::RandomGaussian(Shape{par_f}, &par_rng);
  auto conv_pool = std::make_unique<ThreadPool>(4);
  const auto bit_identical = [](const Result<Tensor>& x,
                                const Result<Tensor>& y) {
    return x.ok() && y.ok() && x->shape() == y->shape() &&
           std::memcmp(x->data(), y->data(),
                       static_cast<size_t>(x->num_elements()) *
                           sizeof(float)) == 0;
  };
  double fp32_conv_ms = 0.0;
  {
    const auto direct = [&] {
      return Conv2D(conv_in, conv_w, conv_b, conv_s, conv_p);
    };
    const auto gemm = [&](ThreadPool* pool) {
      return Conv2DGemm(conv_in, conv_w, conv_b, conv_s, conv_p, 1,
                        /*relu=*/false, pool);
    };
    auto direct_out = direct();  // Warm-up + the correctness operands.
    auto serial_out = gemm(nullptr);
    const auto par_gemm = [&](ThreadPool* pool) {
      return Conv2DGemm(par_in, par_w, par_b, conv_s, conv_p, 1,
                        /*relu=*/false, pool);
    };
    const bool parallel_identical =
        bit_identical(par_gemm(nullptr), par_gemm(conv_pool.get()));
    const bool matches_direct = direct_out.ok() && serial_out.ok() &&
                                direct_out->AllClose(*serial_out, 1e-3f);
    const double direct_ms =
        TimeMs(3, [&] { benchmark::DoNotOptimize(direct()); });
    const double im_ms =
        TimeMs(9, [&] { benchmark::DoNotOptimize(gemm(nullptr)); });
    const double speedup = direct_ms / im_ms;
    fp32_conv_ms = im_ms;

    // Footprint on a fresh arena — a new thread's (deterministic: pure
    // Acquire accounting).
    const int64_t rows = conv_c * conv_k * conv_k;
    const int64_t spatial = conv_hw * conv_hw;
    std::vector<float> c(static_cast<size_t>(conv_f * spatial));
    int64_t implicit_bytes = 0;
    std::thread fresh([&] {
      ConvPatchView view;
      view.input = conv_in.data();
      view.h = conv_hw;
      view.w = conv_hw;
      view.kernel = conv_k;
      view.stride = conv_s;
      view.pad = conv_p;
      view.w_out = conv_hw;
      GemmPackedConv(conv_f, spatial, rows, conv_w.data(), rows, view,
                     c.data(), spatial, GemmEpilogue{}, nullptr);
      implicit_bytes = KernelScratch::ThreadLocal().peak_bytes();
    });
    fresh.join();
    const int64_t im2col_bytes =
        rows * spatial * static_cast<int64_t>(sizeof(float)) + implicit_bytes;
    const double temp_ratio = static_cast<double>(im2col_bytes) /
                              static_cast<double>(implicit_bytes);

    obs::Json ic = obs::Json::Object();
    ic.Set("channels", obs::Json::Int(conv_c));
    ic.Set("hw", obs::Json::Int(conv_hw));
    ic.Set("filters", obs::Json::Int(conv_f));
    ic.Set("direct_ms", obs::Json::Num(direct_ms));
    ic.Set("implicit_ms", obs::Json::Num(im_ms));
    ic.Set("speedup_vs_direct", obs::Json::Num(speedup));
    ic.Set("parallel_bit_identical",
           obs::Json::Num(parallel_identical ? 1.0 : 0.0));
    ic.Set("matches_direct", obs::Json::Num(matches_direct ? 1.0 : 0.0));
    ic.Set("implicit_temp_bytes", obs::Json::Int(implicit_bytes));
    ic.Set("im2col_temp_bytes", obs::Json::Int(im2col_bytes));
    ic.Set("conv_temp_bytes_ratio", obs::Json::Num(temp_ratio));
    reporter.AddSection("implicit_conv", std::move(ic));
    std::printf("implicit conv 64x112x112 k3: direct %.2f ms, implicit "
                "%.2f ms (%.2fx, parallel bit-identical %d, matches direct "
                "%d, temp ratio %.1fx)\n",
                direct_ms, im_ms, speedup, parallel_identical ? 1 : 0,
                matches_direct ? 1 : 0, temp_ratio);
  }

  // --- Int8 implicit conv against fp32 Conv2DGemm on the same shape: the
  // honest precision ratio (above 1 only if the quantized kernel pays for
  // itself), plus the pool-parallel bit-identity indicator (on the
  // parallel-check conv).
  {
    auto qw = QuantizeWeightsPerChannel(conv_w);
    const float act_scale =
        SymmetricScale(MaxAbs(conv_in.data(), conv_in.num_elements()));
    const auto int8 = [&](ThreadPool* pool) {
      return Conv2DGemmInt8(conv_in, *qw, conv_b, conv_s, conv_p, 1,
                            /*relu=*/false, act_scale, pool);
    };
    (void)int8(nullptr);  // Warm-up.
    auto par_qw = QuantizeWeightsPerChannel(par_w);
    const float par_scale =
        SymmetricScale(MaxAbs(par_in.data(), par_in.num_elements()));
    const auto par_int8 = [&](ThreadPool* pool) {
      return Conv2DGemmInt8(par_in, *par_qw, par_b, conv_s, conv_p, 1,
                            /*relu=*/false, par_scale, pool);
    };
    const bool parallel_identical =
        bit_identical(par_int8(nullptr), par_int8(conv_pool.get()));
    const double im_ms =
        TimeMs(9, [&] { benchmark::DoNotOptimize(int8(nullptr)); });
    const double speedup = fp32_conv_ms / im_ms;
    obs::Json iq = obs::Json::Object();
    iq.Set("kernel", obs::Json::Str(GemmInt8KernelName()));
    iq.Set("fp32_ms", obs::Json::Num(fp32_conv_ms));
    iq.Set("implicit_ms", obs::Json::Num(im_ms));
    iq.Set("speedup_vs_fp32", obs::Json::Num(speedup));
    iq.Set("parallel_bit_identical",
           obs::Json::Num(parallel_identical ? 1.0 : 0.0));
    reporter.AddSection("implicit_conv_int8", std::move(iq));
    std::printf("implicit conv int8 64x112x112 k3 [%s]: fp32 %.2f ms, "
                "int8 %.2f ms (%.2fx, parallel bit-identical %d)\n",
                GemmInt8KernelName(), fp32_conv_ms, im_ms, speedup,
                parallel_identical ? 1 : 0);
  }

  // --- Batched FC: one GEMM over a 16-image batch must give every image
  // the same bits as a batch of one, in fp32 and int8, with the pool
  // splitting the row blocks (a 0/1 indicator that fails the gate on any
  // divergence). The shape is an fc7-like 512 x 2304 layer: more than one
  // kGemmMC row block, several K panels.
  {
    const int64_t fc_out = 512, fc_in = 2304, fc_n = 16;
    Rng fc_rng(8);
    Tensor fc_w =
        Tensor::RandomGaussian(Shape{fc_out, fc_in}, &fc_rng, 0.03f);
    Tensor fc_b = Tensor::RandomGaussian(Shape{fc_out}, &fc_rng);
    auto fc_qw = QuantizeWeightsPerChannel(fc_w);
    std::vector<Tensor> fc_x;
    for (int64_t j = 0; j < fc_n; ++j) {
      fc_x.push_back(Tensor::RandomGaussian(Shape{fc_in}, &fc_rng));
    }
    const float fc_scale = SymmetricScale(4.0f);
    bool identical = fc_qw.ok();
    double batch_ms[2] = {0.0, 0.0};
    double single_ms[2] = {0.0, 0.0};
    for (const bool int8 : {false, true}) {
      const auto fc = [&](const std::vector<Tensor>& in) {
        return int8 ? FullyConnectedGemmInt8(in, *fc_qw, fc_b, true,
                                             fc_scale, conv_pool.get())
                    : FullyConnectedGemm(in, fc_w, fc_b, true,
                                         conv_pool.get());
      };
      auto batched = fc(fc_x);
      identical = identical && batched.ok();
      for (int64_t j = 0; identical && j < fc_n; ++j) {
        auto one = fc({fc_x[j]});
        identical = one.ok() && bit_identical(Result<Tensor>(one->front()),
                                              Result<Tensor>((*batched)[j]));
      }
      batch_ms[int8] =
          TimeMs(5, [&] { benchmark::DoNotOptimize(fc(fc_x)); });
      single_ms[int8] = TimeMs(5, [&] {
        for (const Tensor& x : fc_x) benchmark::DoNotOptimize(fc({x}));
      });
    }
    obs::Json fb = obs::Json::Object();
    fb.Set("out", obs::Json::Int(fc_out));
    fb.Set("in", obs::Json::Int(fc_in));
    fb.Set("batch", obs::Json::Int(fc_n));
    fb.Set("bit_identical", obs::Json::Num(identical ? 1.0 : 0.0));
    fb.Set("fp32_batch_ms", obs::Json::Num(batch_ms[0]));
    fb.Set("fp32_one_by_one_ms", obs::Json::Num(single_ms[0]));
    fb.Set("int8_batch_ms", obs::Json::Num(batch_ms[1]));
    fb.Set("int8_one_by_one_ms", obs::Json::Num(single_ms[1]));
    reporter.AddSection("fc_batch", std::move(fb));
    std::printf("batched fc %lldx%lld x%lld: fp32 %.2f ms (one by one "
                "%.2f ms), int8 %.2f ms (one by one %.2f ms), bit-identical "
                "%d\n",
                static_cast<long long>(fc_out), static_cast<long long>(fc_in),
                static_cast<long long>(fc_n), batch_ms[0], single_ms[0],
                batch_ms[1], single_ms[1], identical ? 1 : 0);
  }

  conv_pool.reset();  // Its idle workers must not share the cores below.

  // --- Batched partial inference: 8 images through MicroAlexNet, serial
  // vs a 4-thread pool (one task per image). Efficiency is reported both
  // raw (speedup / threads) and normalized to the parallel throughput the
  // host measurably gives (MeasuredParallelScaling) — on a 1-2 core runner,
  // or a shared host whose 4 vCPUs deliver about one core, the raw number
  // cannot approach 1 no matter how good the scheduling is, and the
  // advertised core count says nothing about that.
  {
    auto arch = dl::MicroAlexNetArch();
    auto model = dl::CnnModel::Instantiate(*arch, 3);
    model->EnableProfiling(&registry);  // dl.forward_ms.* + dl.flops.*
    Rng rng(2);
    std::vector<Tensor> images;
    for (int i = 0; i < 8; ++i) {
      images.push_back(Tensor::RandomGaussian(Shape{3, 32, 32}, &rng));
    }
    const int last = arch->num_layers() - 1;
    (void)model->RunRangeBatch(images, 0, last);  // Warm-up.
    const double serial_ms = TimeMs(5, [&] {
      benchmark::DoNotOptimize(model->RunRangeBatch(images, 0, last));
    });
    const int threads = 4;
    ThreadPool pool(threads);
    dl::CnnOptions opts;
    opts.pool = &pool;
    (void)model->RunRangeBatch(images, 0, last, opts);
    const double parallel_ms = TimeMs(5, [&] {
      benchmark::DoNotOptimize(model->RunRangeBatch(images, 0, last, opts));
    });
    const double speedup = serial_ms / parallel_ms;
    const int available =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const double scaling = MeasuredParallelScaling(threads);
    const double effective =
        std::clamp(scaling, 1.0, static_cast<double>(threads));
    obs::Json batched = obs::Json::Object();
    batched.Set("images", obs::Json::Int(8));
    batched.Set("threads", obs::Json::Int(threads));
    batched.Set("available_cores", obs::Json::Int(available));
    batched.Set("measured_scaling", obs::Json::Num(scaling));
    batched.Set("serial_ms", obs::Json::Num(serial_ms));
    batched.Set("parallel_ms", obs::Json::Num(parallel_ms));
    batched.Set("speedup", obs::Json::Num(speedup));
    batched.Set("efficiency_raw", obs::Json::Num(speedup / threads));
    batched.Set("efficiency_normalized",
                obs::Json::Num(speedup / effective));
    reporter.AddSection("batched_inference", std::move(batched));
    std::printf("batched inference x8: serial %.2f ms, %d threads %.2f ms "
                "(%.2fx, efficiency %.2f raw / %.2f over %.2f measured "
                "cores)\n",
                serial_ms, threads, parallel_ms, speedup, speedup / threads,
                speedup / effective, effective);
  }

  // --- Scratch arena: after the runs above every kernel call must be
  // served from the warm arena (the zero-alloc contract gemm_test asserts).
  {
    KernelScratch& scratch = KernelScratch::ThreadLocal();
    obs::Json arena = obs::Json::Object();
    arena.Set("allocations", obs::Json::Int(scratch.allocations()));
    arena.Set("reuses", obs::Json::Int(scratch.reuses()));
    arena.Set("capacity_floats", obs::Json::Int(scratch.capacity_floats()));
    reporter.AddSection("scratch_arena", std::move(arena));
  }

  // Full metrics snapshot: the gemm_gflops gauge plus the per-layer
  // dl.forward_ms histograms and dl.flops counters from profiling.
  reporter.AddSection("metrics", obs::MetricsJson(registry));

  const std::string out =
      bench::FlagValue(argc, argv, "--out", "BENCH_smoke_kernels.json");
  const Status written = reporter.Write(out);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace vista

int main(int argc, char** argv) {
  if (vista::bench::HasFlag(argc, argv, "--smoke")) {
    return vista::RunKernelSmoke(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
