// Tests for the observability layer: metrics registry, trace spans, JSON
// exporters, and the end-to-end wiring through the engine and RealExecutor.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vista/real_executor.h"
#include "vista/sim_executor.h"

namespace vista {
namespace {

TEST(MetricsTest, CounterBasics) {
  obs::Registry registry;
  obs::Counter* c = registry.counter("events");
  EXPECT_EQ(c->value(), 0);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  // Get-or-create: same name yields the same instrument.
  EXPECT_EQ(registry.counter("events"), c);
  EXPECT_NE(registry.counter("other"), c);
}

TEST(MetricsTest, GaugeTracksHighWater) {
  obs::Registry registry;
  obs::Gauge* g = registry.gauge("resident");
  g->Add(100);
  g->Add(50);
  g->Add(-120);
  EXPECT_EQ(g->value(), 30);
  EXPECT_EQ(g->max_value(), 150);
  g->Set(7);
  EXPECT_EQ(g->value(), 7);
  EXPECT_EQ(g->max_value(), 150);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  obs::Registry registry;
  obs::Histogram* h = registry.histogram("lat", {1.0, 10.0, 100.0});
  for (double v : {0.5, 0.7, 5.0, 50.0, 500.0}) h->Record(v);
  EXPECT_EQ(h->count(), 5);
  EXPECT_DOUBLE_EQ(h->sum(), 556.2);
  EXPECT_DOUBLE_EQ(h->min_value(), 0.5);
  EXPECT_DOUBLE_EQ(h->max_value(), 500.0);
  const std::vector<int64_t> counts = h->bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow.
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  // Quantiles are bucket approximations; just pin the bracketing bucket.
  EXPECT_LE(h->Quantile(0.5), 10.0);
  EXPECT_GT(h->Quantile(0.99), 10.0);
}

// Checks min <= p50 <= p95 <= p99 <= max on one histogram.
void ExpectQuantilesOrderedWithinRange(const obs::Histogram& h) {
  const double p50 = h.Quantile(0.50);
  const double p95 = h.Quantile(0.95);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(h.min_value(), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_value());
}

TEST(MetricsTest, QuantilesStayOrderedWithinRecordedRange) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.NextUint64(200));
    // Spread over the default buckets, including both overflow ends:
    // log-uniform from 1 us to 100 s.
    obs::Registry spread_registry;
    obs::Histogram* spread = spread_registry.histogram("spread");
    for (int i = 0; i < n; ++i) {
      spread->Record(std::pow(10.0, rng.NextDouble(-3.0, 5.0)));
    }
    ExpectQuantilesOrderedWithinRange(*spread);
    // Single bucket, samples crowded at the top of (0.25, 0.5]: linear
    // interpolation from the bucket's lower bound lands below the minimum.
    obs::Registry single_registry;
    obs::Histogram* single = single_registry.histogram("single");
    for (int i = 0; i < n; ++i) single->Record(rng.NextDouble(0.42, 0.5));
    ExpectQuantilesOrderedWithinRange(*single);
  }
}

TEST(MetricsTest, ConcurrentUpdatesAreExact) {
  // Hammer one counter, gauge, and histogram from the thread pool; totals
  // must come out exact (the TSan preset additionally proves data-race
  // freedom of the relaxed-atomic hot paths).
  obs::Registry registry;
  obs::Counter* c = registry.counter("c");
  obs::Gauge* g = registry.gauge("g");
  obs::Histogram* h = registry.histogram("h");
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](int64_t i) {
    for (int j = 0; j < kPerTask; ++j) {
      c->Add(1);
      g->Add(j % 2 == 0 ? 1 : -1);
      h->Record(static_cast<double>((i + j) % 97));
    }
  });
  EXPECT_EQ(c->value(), kTasks * kPerTask);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), kTasks * kPerTask);
  int64_t bucket_total = 0;
  for (int64_t n : h->bucket_counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, kTasks * kPerTask);
}

TEST(MetricsTest, ConcurrentRegistrationYieldsOneInstrument) {
  obs::Registry registry;
  constexpr int kTasks = 32;
  std::vector<obs::Counter*> seen(kTasks, nullptr);
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](int64_t i) {
    obs::Counter* c = registry.counter("shared");
    c->Add(1);
    seen[i] = c;
  });
  for (int i = 1; i < kTasks; ++i) EXPECT_EQ(seen[i], seen[0]);
  EXPECT_EQ(seen[0]->value(), kTasks);
}

TEST(TraceTest, SpanNestingAndOrdering) {
  obs::TraceCollector collector;
  {
    obs::ScopedSpan outer(&collector, "outer", "stage");
    EXPECT_GT(outer.id(), 0);
    {
      obs::ScopedSpan inner(&collector, "inner", "engine");
      obs::ScopedSpan innermost(&collector, "innermost", "engine");
      (void)innermost;
    }
  }
  const std::vector<obs::Span> spans = collector.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Ordered by start time: outer, inner, innermost.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "innermost");
  EXPECT_EQ(spans[0].parent_id, 0);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[2].parent_id, spans[1].id);
  for (const obs::Span& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns);
    EXPECT_GE(s.seconds(), 0.0);
  }
}

TEST(TraceTest, SiblingCollectorsDoNotShareParents) {
  obs::TraceCollector a;
  obs::TraceCollector b;
  {
    obs::ScopedSpan outer(&a, "outer");
    obs::ScopedSpan other(&b, "other");
    (void)outer;
    (void)other;
  }
  ASSERT_EQ(b.spans().size(), 1u);
  EXPECT_EQ(b.spans()[0].parent_id, 0);  // Not parented to a's span.
}

TEST(TraceTest, SpansSinceSlicesARun) {
  obs::TraceCollector collector;
  { obs::ScopedSpan s(&collector, "before"); }
  const size_t mark = collector.size();
  { obs::ScopedSpan s(&collector, "after"); }
  const std::vector<obs::Span> slice = collector.SpansSince(mark);
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice[0].name, "after");
}

TEST(TraceTest, ConcurrentSpansFromPool) {
  obs::TraceCollector collector;
  ThreadPool pool(8);
  pool.ParallelFor(200, [&](int64_t i) {
    obs::ScopedSpan span(&collector, "task" + std::to_string(i), "pool");
    (void)span;
  });
  EXPECT_EQ(collector.size(), 200u);
}

TEST(ExportTest, MetricsJsonRoundTrip) {
  obs::Registry registry;
  registry.counter("engine.shuffle_bytes")->Add(12345);
  registry.gauge("cache.resident_bytes")->Set(99);
  registry.histogram("engine.map_task_ms")->Record(3.5);
  const std::string json = obs::MetricsJson(registry).Dump(2);
  EXPECT_NE(json.find("\"engine.shuffle_bytes\": 12345"), std::string::npos);
  EXPECT_NE(json.find("\"cache.resident_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.map_task_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(ExportTest, ChromeTraceShape) {
  obs::TraceCollector collector;
  { obs::ScopedSpan s(&collector, "stage_a", "stage"); }
  const std::string json = obs::ChromeTraceJson(collector.spans()).Dump();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage_a\""), std::string::npos);
}

TEST(ExportTest, AggregateSpanSecondsFiltersByCategory) {
  std::vector<obs::Span> spans;
  obs::Span a;
  a.name = "join";
  a.category = "stage";
  a.end_ns = 1000000000;
  spans.push_back(a);
  obs::Span b = a;
  b.name = "map_partitions";
  b.category = "engine";
  spans.push_back(b);
  const auto agg = obs::AggregateSpanSeconds(spans, "stage");
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_DOUBLE_EQ(agg.at("join"), 1.0);
}

TEST(ExportTest, SimResultSpansLayOutStages) {
  sim::SimResult result;
  sim::StageResult s1;
  s1.name = "read:images";
  s1.seconds = 2.0;
  s1.compute_seconds = 0.5;
  s1.disk_seconds = 1.5;
  sim::StageResult s2;
  s2.name = "inference:fc7";
  s2.seconds = 3.0;
  s2.compute_seconds = 3.0;
  result.stages = {s1, s2};
  const std::vector<obs::Span> spans = SimResultSpans(result);
  const auto agg = obs::AggregateSpanSeconds(spans, "stage");
  EXPECT_DOUBLE_EQ(agg.at("read:images"), 2.0);
  EXPECT_DOUBLE_EQ(agg.at("inference:fc7"), 3.0);
  // Stage 2 starts where stage 1 ends, and component children are parented.
  for (const obs::Span& s : spans) {
    if (s.category == "component") {
      EXPECT_GT(s.parent_id, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end regression: a real executor run under storage pressure must
// produce nonzero per-stage timings and nonzero engine/spill/cache counters
// through the exported profile.

TEST(ObsEndToEndTest, RealRunProducesStageTimingsAndCounters) {
  df::EngineConfig engine_config;
  engine_config.cpus_per_worker = 4;
  // Storage budget small enough that persisting the feature tables spills.
  engine_config.budgets.storage = 16 * 1024;
  df::Engine engine(engine_config);

  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  ASSERT_TRUE(arch.ok());
  auto model = dl::CnnModel::Instantiate(*arch, 21);
  ASSERT_TRUE(model.ok());
  model->EnableProfiling(&engine.metrics());

  feat::MultimodalDatasetSpec spec;
  spec.num_records = 120;
  spec.num_struct_features = 8;
  spec.image_size = 32;
  spec.seed = 3;
  auto data = feat::GenerateMultimodal(spec);
  ASSERT_TRUE(data.ok());
  df::Table t_str = engine.MakeTable(std::move(data->t_str), 4).value();
  df::Table t_img = engine.MakeTable(std::move(data->t_img), 4).value();

  TransferWorkload workload;
  workload.cnn = dl::KnownCnn::kAlexNet;
  workload.layers = arch->TopLayers(2).value();
  workload.model = DownstreamModel::kLogisticRegression;
  workload.training_iterations = 3;

  RealExecutor executor(&engine, &*model);
  auto plan = CompilePlan(LogicalPlan::kStaged, workload);
  ASSERT_TRUE(plan.ok());
  RealExecutorConfig config;
  config.num_partitions = 4;
  config.lr.iterations = 3;
  auto result = executor.Run(*plan, workload, t_str, t_img, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Per-stage spans: every Table-3 stage present with nonzero time (reads
  // are table-handle copies, so only require presence there).
  ASSERT_FALSE(result->spans.empty());
  for (const char* stage : {"join", "inference", "persistence", "train"}) {
    ASSERT_TRUE(result->stage_seconds.count(stage)) << stage;
    EXPECT_GT(result->stage_seconds.at(stage), 0.0) << stage;
  }
  EXPECT_TRUE(result->stage_seconds.count("read"));

  // Engine / spill / cache counters through the registry.
  auto counter = [&](const char* name) {
    return engine.metrics().counter(name)->value();
  };
  EXPECT_GT(counter("engine.map_tasks"), 0);
  EXPECT_GT(counter("engine.partitions_read"), 0);
  EXPECT_GT(counter("engine.join_ops"), 0);
  EXPECT_GT(counter("engine.shuffle_bytes"), 0);
  EXPECT_GT(counter("cache.inserts"), 0);
  EXPECT_GT(counter("spill.writes"), 0);
  EXPECT_GT(counter("spill.bytes_written"), 0);
  EXPECT_EQ(counter("spill.bytes_written"),
            engine.stats().spill_bytes_written);

  // Per-layer CNN forward-time histograms from EnableProfiling.
  bool found_layer_histogram = false;
  for (const obs::Histogram* h : engine.metrics().histograms()) {
    if (h->name().rfind("dl.forward_ms.", 0) == 0 && h->count() > 0) {
      found_layer_histogram = true;
    }
  }
  EXPECT_TRUE(found_layer_histogram);

  // The exported profile carries all of it, machine-readable.
  const std::string json =
      obs::ProfileJson(&engine.metrics(), result->spans).Dump(2);
  EXPECT_NE(json.find("\"stage_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"inference\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.map_tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"spill.writes\""), std::string::npos);
}

TEST(ObsEndToEndTest, InjectedRegistryAggregatesAcrossEngines) {
  obs::Registry shared;
  obs::TraceCollector tracer;
  for (int i = 0; i < 2; ++i) {
    df::EngineConfig config;
    config.metrics = &shared;
    config.tracer = &tracer;
    df::Engine engine(config);
    std::vector<df::Record> records(10);
    for (int j = 0; j < 10; ++j) records[j].id = j;
    df::Table t = engine.MakeTable(std::move(records), 2).value();
    auto mapped = engine.MapPartitions(
        t, [](std::vector<df::Record> r) -> Result<std::vector<df::Record>> {
          return r;
        });
    ASSERT_TRUE(mapped.ok());
  }
  // Two engines, two partitions each.
  EXPECT_EQ(shared.counter("engine.map_tasks")->value(), 4);
  EXPECT_EQ(tracer.size(), 2u);  // One map_partitions span per engine.
}

// EngineStats reads the registry instruments it names and copies nothing
// per engine, so two engines sharing one registry both report the shared
// aggregate. Each engine runs a spilling, prefetching, fault-injected
// Persist -> Join -> Collect so every counter below moves.
TEST(ObsEndToEndTest, EngineStatsReconcileWithSharedRegistry) {
  obs::Registry shared;  // Outlives the engines, which report into it.
  std::vector<std::unique_ptr<df::Engine>> engines;
  for (uint64_t seed : {5, 6}) {
    df::EngineConfig config;
    config.metrics = &shared;
    config.budgets.storage = 4 << 10;
    config.prefetch_depth = 2;
    config.faults.seed = seed;
    config.faults.map_task_failure_rate = 0.2;
    config.faults.shuffle_failure_rate = 0.1;
    config.faults.spill_write_failure_rate = 0.2;
    config.faults.spill_read_failure_rate = 0.2;
    config.faults.memory_spike_rate = 0.1;
    config.faults.spill_bit_flip_rate = 0.2;
    config.retry.max_attempts = 8;
    config.retry.base_backoff_ms = 0.0;
    engines.push_back(std::make_unique<df::Engine>(config));
    df::Engine& engine = *engines.back();

    // Persisted tables are MapPartitions outputs, so a corrupt spill block
    // is healed from lineage instead of failing the run.
    auto derived = [&](int first_id) {
      std::vector<df::Record> records(120);
      for (int i = 0; i < 120; ++i) {
        records[i].id = i;
        records[i].struct_features = {static_cast<float>(first_id + i),
                                      static_cast<float>(i % 7)};
      }
      df::Table base = engine.MakeTable(std::move(records), 6).value();
      auto mapped = engine.MapPartitions(
          base,
          [](std::vector<df::Record> r) -> Result<std::vector<df::Record>> {
            return r;
          });
      EXPECT_TRUE(mapped.ok()) << mapped.status();
      EXPECT_TRUE(
          engine.Persist(&*mapped, df::PersistenceFormat::kSerialized).ok());
      return *mapped;
    };
    df::Table left = derived(0);
    df::Table right = derived(1000);
    auto joined = engine.Join(left, right, df::JoinStrategy::kShuffleHash, 4);
    ASSERT_TRUE(joined.ok()) << joined.status();
    auto rows = engine.Collect(*joined);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->size(), 120u);
    // Quiesce the background threads before reading the shared totals:
    // removing every spilled key waits out its pending write and drops or
    // waits out its read-ahead.
    engine.Unpersist(&left);
    engine.Unpersist(&right);
  }

  auto counter = [&](const char* name) {
    return shared.counter(name)->value();
  };
  auto peak = [&](const char* name) { return shared.gauge(name)->max_value(); };
  // Every plane the fields read actually ran, so no equality is vacuous.
  for (const char* name :
       {"spill.writes", "spill.io_retries", "prefetch.requests",
        "engine.task_retries", "engine.recomputed_partitions",
        "integrity.checksum_failures", "cache.evictions"}) {
    EXPECT_GT(counter(name), 0) << name;
  }

  for (const auto& engine : engines) {
    const df::EngineStats s = engine->stats();
    EXPECT_EQ(s.shuffle_bytes, counter("engine.shuffle_bytes"));
    EXPECT_EQ(s.broadcast_bytes, counter("engine.broadcast_bytes"));
    EXPECT_EQ(s.spill_bytes_written, counter("spill.bytes_written"));
    EXPECT_EQ(s.spill_bytes_read, counter("spill.bytes_read"));
    EXPECT_EQ(s.num_spills, counter("spill.writes"));
    EXPECT_EQ(s.spill_queue_depth_peak, peak("spill.queue_depth"));
    EXPECT_EQ(s.cache_read_hits, counter("cache.read_hits"));
    EXPECT_EQ(s.cache_read_misses, counter("cache.read_misses"));
    EXPECT_EQ(s.cache_evictions, counter("cache.evictions"));
    EXPECT_EQ(s.cache_inserts, counter("cache.inserts"));
    EXPECT_EQ(s.cache_resident_bytes,
              shared.gauge("cache.resident_bytes")->value());
    EXPECT_EQ(s.prefetch_requests, counter("prefetch.requests"));
    EXPECT_EQ(s.prefetch_hits, counter("prefetch.hits"));
    EXPECT_EQ(s.prefetch_claimed, counter("prefetch.claimed"));
    EXPECT_EQ(s.prefetch_dropped, counter("prefetch.dropped"));
    EXPECT_EQ(s.prefetch_corrupt_dropped, counter("prefetch.corrupt_dropped"));
    EXPECT_EQ(s.prefetch_queue_depth_peak, peak("prefetch.queue_depth"));
    EXPECT_EQ(s.integrity.blocks_verified,
              counter("integrity.blocks_verified"));
    EXPECT_EQ(s.integrity.checksum_failures,
              counter("integrity.checksum_failures"));
    EXPECT_EQ(s.integrity.torn_writes_detected,
              counter("integrity.torn_writes_detected"));
    EXPECT_EQ(s.integrity.recomputes_triggered,
              counter("integrity.recomputes_triggered"));
    EXPECT_EQ(s.recovery.retries,
              counter("engine.task_retries") + counter("spill.io_retries"));
    EXPECT_EQ(s.recovery.recomputed_partitions,
              counter("engine.recomputed_partitions"));
    // The one per-engine field: each engine's injector owns its count.
    EXPECT_EQ(s.recovery.injected_faults,
              engine->fault_injector().total_injected());
  }
}

}  // namespace
}  // namespace vista
