#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/retry.h"
#include "dataflow/engine.h"
#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "vista/real_executor.h"

namespace vista {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicyTest, BackoffIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_backoff_ms = 2.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 16.0;
  policy.jitter_fraction = 0.5;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double a = BackoffMs(policy, 7, attempt);
    const double b = BackoffMs(policy, 7, attempt);
    EXPECT_DOUBLE_EQ(a, b);  // Pure function of (policy, key, attempt).
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, policy.max_backoff_ms * (1.0 + policy.jitter_fraction));
  }
  // Different keys jitter differently (with overwhelming probability).
  bool any_differ = false;
  for (uint64_t key = 0; key < 16; ++key) {
    if (BackoffMs(policy, key, 1) != BackoffMs(policy, key + 1, 1)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(RetryPolicyTest, DefaultRetryablePredicate) {
  RetryPolicy policy;
  EXPECT_TRUE(IsRetryable(policy, Status::Unavailable("lost task")));
  EXPECT_TRUE(IsRetryable(policy, Status::IOError("flaky disk")));
  EXPECT_FALSE(IsRetryable(policy, Status::ResourceExhausted("budget")));
  EXPECT_FALSE(IsRetryable(policy, Status::InvalidArgument("bug")));
  EXPECT_FALSE(IsRetryable(policy, Status::OK()));
}

TEST(RetryPolicyTest, RunWithRetryRecoversFromTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 0.0;
  std::atomic<int64_t> retries{0};
  int calls = 0;
  Status st = RunWithRetry(
      policy, 1,
      [&]() -> Status {
        ++calls;
        return calls < 3 ? Status::Unavailable("transient") : Status::OK();
      },
      &retries);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.load(), 2);
}

TEST(RetryPolicyTest, RunWithRetryGivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.0;
  std::atomic<int64_t> retries{0};
  int calls = 0;
  Status st = RunWithRetry(
      policy, 1,
      [&]() -> Status {
        ++calls;
        return Status::IOError("always");
      },
      &retries);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.load(), 2);
}

TEST(RetryPolicyTest, NonRetryableFailsWithoutRetry) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Status st = RunWithRetry(policy, 1, [&]() -> Status {
    ++calls;
    return Status::ResourceExhausted("budget violation");
  });
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, DecisionsAreDeterministicInSeed) {
  FaultInjectorConfig config;
  config.seed = 17;
  config.map_task_failure_rate = 0.3;
  FaultInjector a(config);
  FaultInjector b(config);
  config.seed = 18;
  FaultInjector c(config);
  bool differs_across_seeds = false;
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.ShouldInject(FaultSite::kMapTask, key),
              b.ShouldInject(FaultSite::kMapTask, key));
    if (a.ShouldInject(FaultSite::kMapTask, key) !=
        c.ShouldInject(FaultSite::kMapTask, key)) {
      differs_across_seeds = true;
    }
  }
  EXPECT_TRUE(differs_across_seeds);
}

TEST(FaultInjectorTest, RateEndpointsAndProportion) {
  FaultInjectorConfig config;
  config.seed = 5;
  config.spill_read_failure_rate = 0.2;
  FaultInjector injector(config);
  EXPECT_FALSE(injector.ShouldInject(FaultSite::kMapTask, 123));  // Rate 0.
  int fired = 0;
  const int n = 10000;
  for (int key = 0; key < n; ++key) {
    if (injector.ShouldInject(FaultSite::kSpillRead, key)) ++fired;
  }
  EXPECT_GT(fired, n * 0.15);
  EXPECT_LT(fired, n * 0.25);

  config.spill_read_failure_rate = 1.0;
  injector.Configure(config);
  EXPECT_TRUE(injector.ShouldInject(FaultSite::kSpillRead, 42));
}

TEST(FaultInjectorTest, MaybeFailCodesAndCounters) {
  FaultInjectorConfig config;
  config.spill_write_failure_rate = 1.0;
  config.map_task_failure_rate = 1.0;
  FaultInjector injector(config);
  Status w = injector.MaybeFail(FaultSite::kSpillWrite, 0, "test");
  EXPECT_TRUE(w.IsIOError());
  Status t = injector.MaybeFail(FaultSite::kMapTask, 0, "test");
  EXPECT_TRUE(t.IsUnavailable());
  EXPECT_EQ(injector.injected(FaultSite::kSpillWrite), 1);
  EXPECT_EQ(injector.injected(FaultSite::kMapTask), 1);
  EXPECT_EQ(injector.total_injected(), 2);
  EXPECT_TRUE(injector.MaybeFail(FaultSite::kSpillRead, 0, "rate 0").ok());
}

// ---------------------------------------------------------------------------
// SpillManager under injected I/O faults

TEST(SpillFaultTest, ExhaustedWriteRetriesSurfaceAsIOError) {
  obs::Registry metrics;
  df::SpillManager spill("/tmp/vista_fault_spill_a", metrics);
  FaultInjectorConfig config;
  config.spill_write_failure_rate = 1.0;
  FaultInjector injector(config);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.0;
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(policy);

  Status st = spill.Write(7, {1, 2, 3});
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(spill.io_retries(), 2);  // Two retried attempts, then give up.
  EXPECT_EQ(spill.num_spills(), 0);  // Failed writes are never recorded.
  EXPECT_TRUE(spill.Read(7).status().IsNotFound());
}

TEST(SpillFaultTest, TransientWriteFaultRecoversViaRetry) {
  // Pick a seed whose (key 7) schedule is fail-then-succeed, so the test is
  // deterministic and meaningful.
  FaultInjectorConfig config;
  config.spill_write_failure_rate = 0.5;
  uint64_t chosen = 0;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    config.seed = seed;
    FaultInjector probe(config);
    if (probe.ShouldInject(FaultSite::kSpillWrite,
                           FaultInjector::TaskKey(7, 0)) &&
        !probe.ShouldInject(FaultSite::kSpillWrite,
                            FaultInjector::TaskKey(7, 1))) {
      chosen = seed;
      break;
    }
  }
  config.seed = chosen;
  FaultInjector injector(config);
  obs::Registry metrics;
  df::SpillManager spill("/tmp/vista_fault_spill_b", metrics);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.0;
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(policy);

  const std::vector<uint8_t> blob = {9, 8, 7, 6};
  ASSERT_TRUE(spill.Write(7, blob).ok());
  EXPECT_EQ(spill.io_retries(), 1);
  EXPECT_EQ(injector.injected(FaultSite::kSpillWrite), 1);
  auto read = spill.Read(7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, blob);
}

// ---------------------------------------------------------------------------
// MemoryManager: concurrent reserve/release keeps accounting exact

TEST(MemoryRaceTest, PeakTrackingIsConsistentUnderContention) {
  df::MemoryBudgets budgets;
  budgets.core = 1000;
  df::MemoryManager memory(budgets);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memory] {
      for (int i = 0; i < kIters; ++i) {
        if (memory.TryReserve(df::MemoryRegion::kCore, 100).ok()) {
          memory.Release(df::MemoryRegion::kCore, 100);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(memory.Used(df::MemoryRegion::kCore), 0);
  // Successful reservations existed, so the peak saw at least one and the
  // budget was never exceeded.
  EXPECT_GE(memory.Peak(df::MemoryRegion::kCore), 100);
  EXPECT_LE(memory.Peak(df::MemoryRegion::kCore), 1000);
}

// ---------------------------------------------------------------------------
// Engine-level fault tolerance

df::Table MakeNumbersTable(df::Engine* engine, int n, int partitions) {
  std::vector<df::Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(i), static_cast<float>(2 * i)};
    records.push_back(std::move(r));
  }
  return engine->MakeTable(std::move(records), partitions).value();
}

df::Engine::MapPartitionsFn DoubleFirstFeature() {
  return [](std::vector<df::Record> records)
             -> Result<std::vector<df::Record>> {
    for (df::Record& r : records) r.struct_features[0] *= 2.0f;
    return records;
  };
}

std::vector<float> CollectFirstFeatures(df::Engine* engine,
                                        const df::Table& table, int n) {
  auto rows = engine->Collect(table);
  EXPECT_TRUE(rows.ok());
  std::vector<float> values(n, 0.0f);
  for (const df::Record& r : *rows) {
    values[r.id] = r.struct_features[0];
  }
  return values;
}

TEST(EngineFaultTest, MapPartitionsRetriesAndStaysBitIdentical) {
  df::EngineConfig clean_config;
  clean_config.cpus_per_worker = 4;
  df::Engine clean(clean_config);
  df::Table clean_in = MakeNumbersTable(&clean, 500, 8);
  auto clean_out = clean.MapPartitions(clean_in, DoubleFirstFeature());
  ASSERT_TRUE(clean_out.ok());
  const auto expected = CollectFirstFeatures(&clean, *clean_out, 500);

  auto run_faulted = [&](uint64_t seed) {
    df::EngineConfig config;
    config.cpus_per_worker = 4;
    config.faults.seed = seed;
    config.faults.map_task_failure_rate = 0.2;
    config.retry.max_attempts = 8;
    config.retry.base_backoff_ms = 0.0;
    df::Engine engine(config);
    df::Table in = MakeNumbersTable(&engine, 500, 8);
    auto out = engine.MapPartitions(in, DoubleFirstFeature());
    EXPECT_TRUE(out.ok()) << out.status();
    auto values = CollectFirstFeatures(&engine, *out, 500);
    return std::make_pair(values, engine.stats().recovery);
  };

  auto [values1, recovery1] = run_faulted(13);
  EXPECT_EQ(values1, expected);  // Retried tasks reproduce exact output.
  EXPECT_GT(recovery1.retries, 0);
  EXPECT_GT(recovery1.injected_faults, 0);

  // Determinism: the same seed yields the same failure schedule and the
  // same recovery counters; a different seed yields a different schedule.
  auto [values2, recovery2] = run_faulted(13);
  EXPECT_EQ(values2, expected);
  EXPECT_EQ(recovery1.retries, recovery2.retries);
  EXPECT_EQ(recovery1.injected_faults, recovery2.injected_faults);
  EXPECT_EQ(recovery1.recomputed_partitions, recovery2.recomputed_partitions);
}

TEST(EngineFaultTest, TaskFailuresExhaustingRetriesFailTheJob) {
  df::EngineConfig config;
  config.faults.map_task_failure_rate = 1.0;
  config.retry.max_attempts = 2;
  config.retry.base_backoff_ms = 0.0;
  df::Engine engine(config);
  df::Table in = MakeNumbersTable(&engine, 50, 4);
  auto out = engine.MapPartitions(in, DoubleFirstFeature());
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable());
  EXPECT_GT(engine.stats().recovery.retries, 0);
}

TEST(EngineFaultTest, LostSpillIsRecomputedFromLineage) {
  df::EngineConfig config;
  config.cpus_per_worker = 2;
  config.budgets.storage = 2 * 1024;  // Tiny: every persist spills.
  config.retry.max_attempts = 2;
  config.retry.base_backoff_ms = 0.0;
  df::Engine engine(config);
  df::Table in = MakeNumbersTable(&engine, 400, 4);
  auto derived = engine.MapPartitions(in, DoubleFirstFeature());
  ASSERT_TRUE(derived.ok());
  ASSERT_TRUE(
      engine.Persist(&*derived, df::PersistenceFormat::kSerialized).ok());
  ASSERT_GT(engine.stats().num_spills, 0);

  // Every spill read-back now fails: the only way to serve reads is to
  // rebuild the lost partitions from their parent via lineage.
  FaultInjectorConfig faults = engine.fault_injector().config();
  faults.spill_read_failure_rate = 1.0;
  engine.fault_injector().Configure(faults);

  const auto values = CollectFirstFeatures(&engine, *derived, 400);
  for (int i = 0; i < 400; ++i) {
    EXPECT_FLOAT_EQ(values[i], 2.0f * i);
  }
  const auto recovery = engine.stats().recovery;
  EXPECT_GT(recovery.recomputed_partitions, 0);
  EXPECT_GT(recovery.injected_faults, 0);
}

// ---------------------------------------------------------------------------
// End-to-end feature transfer under fault injection and degradation

struct Fixture {
  std::unique_ptr<df::Engine> engine;
  std::unique_ptr<dl::CnnModel> model;
  df::Table t_str;
  df::Table t_img;
  TransferWorkload workload;

  static Fixture Make(df::EngineConfig engine_config = {},
                      int num_records = 150) {
    Fixture f;
    if (engine_config.num_workers == 1 &&
        engine_config.cpus_per_worker == 2) {
      engine_config.cpus_per_worker = 4;
    }
    f.engine = std::make_unique<df::Engine>(engine_config);
    auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
    EXPECT_TRUE(arch.ok());
    auto model =
        dl::CnnModel::Instantiate(*arch, 21, dl::WeightInit::kGaborFirstConv);
    EXPECT_TRUE(model.ok());
    f.model = std::make_unique<dl::CnnModel>(std::move(model).value());

    feat::MultimodalDatasetSpec spec;
    spec.num_records = num_records;
    spec.num_struct_features = 12;
    spec.image_size = 32;
    spec.seed = 3;
    auto data = feat::GenerateMultimodal(spec);
    EXPECT_TRUE(data.ok());
    f.t_str = f.engine->MakeTable(std::move(data->t_str), 6).value();
    f.t_img = f.engine->MakeTable(std::move(data->t_img), 6).value();

    f.workload.cnn = dl::KnownCnn::kAlexNet;
    f.workload.layers = arch->TopLayers(3).value();
    f.workload.model = DownstreamModel::kLogisticRegression;
    // 25 iterations trains past the degenerate all-negative classifier, so
    // the bit-identical comparisons below compare nonzero metrics.
    f.workload.training_iterations = 25;
    return f;
  }
};

RealExecutorConfig FastConfig() {
  RealExecutorConfig config;
  config.num_partitions = 6;
  config.lr.iterations = 25;
  return config;
}

/// Per-layer (TP, FP, FN, F1) — the full downstream-model outcome, so two
/// runs compare bit-identically or not at all.
std::vector<std::tuple<int64_t, int64_t, int64_t, double>> LayerF1s(
    const RealRunResult& result) {
  std::vector<std::tuple<int64_t, int64_t, int64_t, double>> out;
  double max_f1 = 0;
  for (const auto& layer : result.per_layer) {
    out.emplace_back(layer.test_metrics.true_positives,
                     layer.test_metrics.false_positives,
                     layer.test_metrics.false_negatives, layer.test_f1);
    max_f1 = std::max(max_f1, layer.test_f1);
  }
  // Guard against vacuous equality: a degenerate classifier scores 0
  // everywhere and would make any two runs "identical".
  EXPECT_GT(max_f1, 0.0);
  return out;
}

TEST(EndToEndFaultTest, FeatureTransferSurvivesInjectedTaskFailures) {
  Fixture clean = Fixture::Make();
  RealExecutor clean_exec(clean.engine.get(), clean.model.get());
  auto plan = CompilePlan(LogicalPlan::kStaged, clean.workload);
  ASSERT_TRUE(plan.ok());
  auto clean_run = clean_exec.Run(*plan, clean.workload, clean.t_str,
                                  clean.t_img, FastConfig());
  ASSERT_TRUE(clean_run.ok());
  EXPECT_EQ(clean.engine->stats().recovery.retries, 0);

  df::EngineConfig faulted_config;
  faulted_config.faults.seed = 7;
  faulted_config.faults.map_task_failure_rate = 0.2;
  faulted_config.retry.max_attempts = 8;
  faulted_config.retry.base_backoff_ms = 0.0;
  Fixture faulted = Fixture::Make(faulted_config);
  RealExecutor faulted_exec(faulted.engine.get(), faulted.model.get());
  auto faulted_run = faulted_exec.Run(*plan, faulted.workload, faulted.t_str,
                                      faulted.t_img, FastConfig());
  ASSERT_TRUE(faulted_run.ok()) << faulted_run.status();
  EXPECT_GT(faulted.engine->stats().recovery.retries, 0);
  EXPECT_GT(faulted.engine->stats().recovery.injected_faults, 0);
  // The Section 5.2 invariant holds through recovery: identical downstream
  // models, so identical (bit-exact) test metrics.
  EXPECT_EQ(LayerF1s(*faulted_run), LayerF1s(*clean_run));
}

TEST(EndToEndFaultTest, RecoveryCountersAreDeterministicAcrossRuns) {
  auto run_once = [] {
    df::EngineConfig config;
    config.faults.seed = 7;
    config.faults.map_task_failure_rate = 0.2;
    config.retry.max_attempts = 8;
    config.retry.base_backoff_ms = 0.0;
    Fixture f = Fixture::Make(config);
    RealExecutor executor(f.engine.get(), f.model.get());
    auto plan = CompilePlan(LogicalPlan::kStaged, f.workload);
    EXPECT_TRUE(plan.ok());
    auto run = executor.Run(*plan, f.workload, f.t_str, f.t_img,
                            FastConfig());
    EXPECT_TRUE(run.ok()) << run.status();
    return f.engine->stats().recovery;
  };
  const RecoveryStats a = run_once();
  const RecoveryStats b = run_once();
  EXPECT_GT(a.retries, 0);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.recomputed_partitions, b.recomputed_partitions);
}

/// Storage budget (bytes) that fits the Staged plan's working set but not
/// Eager's all-layers tables, for the fixtures above. Measured peaks for
/// 150 records of 32x32 micro-AlexNet, 3 layers: Lazy 51,000; Staged
/// 94,200 deserialized / 91,636 serialized; Eager 175,800 deserialized /
/// 172,508 serialized. 120,000 leaves ~27% headroom over Staged and sits
/// ~30% under Eager in either format, so Eager crashes all the way down
/// the persistence rung and only the plan rung saves it.
int64_t TightStorageBudget() { return 120'000; }

TEST(DegradationTest, EagerCrashesWithoutDegradationAndSurvivesWithIt) {
  df::EngineConfig memory_only;
  memory_only.allow_spill = false;
  memory_only.budgets.storage = TightStorageBudget();

  // Without degradation: the paper's crash scenario.
  Fixture crash = Fixture::Make(memory_only);
  RealExecutor crash_exec(crash.engine.get(), crash.model.get());
  auto eager_plan = CompilePlan(LogicalPlan::kEager, crash.workload);
  ASSERT_TRUE(eager_plan.ok());
  auto crashed = crash_exec.Run(*eager_plan, crash.workload, crash.t_str,
                                crash.t_img, FastConfig());
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(crashed.status().IsResourceExhausted());

  // With degradation: same budget, same plan requested, run completes and
  // reports the ladder steps it took.
  Fixture degrade = Fixture::Make(memory_only);
  RealExecutor degrade_exec(degrade.engine.get(), degrade.model.get());
  RealExecutorConfig config = FastConfig();
  config.auto_degrade = true;
  auto recovered = degrade_exec.Run(*eager_plan, degrade.workload,
                                    degrade.t_str, degrade.t_img, config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered->degradations.empty());
  EXPECT_EQ(recovered->degradations.back(), "plan: Eager/AJ -> Staged");

  // Degraded output is still bit-identical to an unconstrained clean run.
  Fixture clean = Fixture::Make();
  RealExecutor clean_exec(clean.engine.get(), clean.model.get());
  auto clean_run = clean_exec.Run(*eager_plan, clean.workload, clean.t_str,
                                  clean.t_img, FastConfig());
  ASSERT_TRUE(clean_run.ok());
  EXPECT_EQ(LayerF1s(*recovered), LayerF1s(*clean_run));
}

// The Section 4.1/4.4 crash-scenario matrix: each logical plan under a
// tight Storage budget, with and without spilling. Spark-like deployments
// (spills allowed) always complete; memory-only (Ignite-like) deployments
// crash the all-layers plans unless degradation steps in — and every
// completed run stays bit-identical to an unconstrained clean run.
struct MatrixCase {
  LogicalPlan plan;
  bool allow_spill;
  /// Expected without auto-degradation.
  bool expect_completes;
};

class CrashMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CrashMatrixTest, PlansFailDegradeAndRecoverAsExpected) {
  const MatrixCase c = GetParam();
  Fixture clean = Fixture::Make();
  RealExecutor clean_exec(clean.engine.get(), clean.model.get());
  auto plan = CompilePlan(c.plan, clean.workload);
  ASSERT_TRUE(plan.ok());
  auto clean_run = clean_exec.Run(*plan, clean.workload, clean.t_str,
                                  clean.t_img, FastConfig());
  ASSERT_TRUE(clean_run.ok());

  df::EngineConfig tight;
  tight.allow_spill = c.allow_spill;
  tight.budgets.storage = TightStorageBudget();

  Fixture plain = Fixture::Make(tight);
  RealExecutor plain_exec(plain.engine.get(), plain.model.get());
  auto plain_run = plain_exec.Run(*plan, plain.workload, plain.t_str,
                                  plain.t_img, FastConfig());
  EXPECT_EQ(plain_run.ok(), c.expect_completes)
      << (plain_run.ok() ? "completed" : plain_run.status().ToString());
  if (!plain_run.ok()) {
    EXPECT_TRUE(plain_run.status().IsResourceExhausted());
  } else {
    EXPECT_EQ(LayerF1s(*plain_run), LayerF1s(*clean_run));
  }

  // With degradation enabled, every cell of the matrix completes, and the
  // recovered runs match the clean baseline bit-for-bit.
  Fixture degraded = Fixture::Make(tight);
  RealExecutor degraded_exec(degraded.engine.get(), degraded.model.get());
  RealExecutorConfig config = FastConfig();
  config.auto_degrade = true;
  auto degraded_run = degraded_exec.Run(*plan, degraded.workload,
                                        degraded.t_str, degraded.t_img,
                                        config);
  ASSERT_TRUE(degraded_run.ok()) << degraded_run.status();
  EXPECT_EQ(LayerF1s(*degraded_run), LayerF1s(*clean_run));
  if (!c.expect_completes) {
    EXPECT_FALSE(degraded_run->degradations.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlansAndSpillModes, CrashMatrixTest,
    ::testing::Values(
        // Spark-like: spills absorb the pressure, everything completes.
        MatrixCase{LogicalPlan::kLazy, true, true},
        MatrixCase{LogicalPlan::kEager, true, true},
        MatrixCase{LogicalPlan::kStaged, true, true},
        // Ignite-like memory-only: the all-layers Eager table crashes, the
        // one-layer-at-a-time plans fit.
        MatrixCase{LogicalPlan::kLazy, false, true},
        MatrixCase{LogicalPlan::kEager, false, false},
        MatrixCase{LogicalPlan::kStaged, false, true}));

}  // namespace
}  // namespace vista
