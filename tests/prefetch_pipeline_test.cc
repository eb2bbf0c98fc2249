// Prefetch plane + layer pipeline: the read-side mirror of the async spill
// writer must never change results or fault accounting — only when the work
// happens. These tests pin:
//   - SpillManager hint lifecycle: hits, claim-backs, capacity/missing-key/
//     failed-key drops, dedup, and the optional memory-budget gate
//   - fault interaction: a corrupt prefetched block is dropped and
//     surfaces kDataLoss exactly like a sync read (counted once); an
//     overwrite invalidates any prefetched previous generation; delayed
//     I/O (FaultSite::kSpillReadDelay) stalls but never corrupts
//   - engine-level exact accounting: a corruption-chaos run is counter-
//     for-counter identical with prefetch on and off, and every accepted
//     hint is accounted for (hits + claimed + corrupt + dropped)
//   - executor determinism: materialized features are bit-identical at
//     prefetch depths {0, 1, 2, 4, auto}
//   - the ChoosePrefetchDepth policy and config validation
//
// Like the integrity suite, the chaos-style test re-runs under
// VISTA_CHAOS_SEED so CI can sweep corruption schedules.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "dataflow/engine.h"
#include "dataflow/spill.h"
#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "vista/real_executor.h"

namespace vista {
namespace {

std::string FreshSpillDir(const std::string& tag) {
  const std::string dir = "/tmp/vista_prefetch_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<uint8_t> PatternPayload(size_t n, uint8_t salt = 0) {
  std::vector<uint8_t> blob(n);
  for (size_t i = 0; i < n; ++i) {
    blob[i] = static_cast<uint8_t>((i * 31 + salt) & 0xFF);
  }
  return blob;
}

RetryPolicy FastRetries(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.base_backoff_ms = 0.0;
  return policy;
}

/// Gives the background reader time to drain its queue. Pure wall-clock —
/// the assertions below never depend on winning this race, only some
/// "served as a hit" expectations do.
void LetReaderRun() {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

uint64_t ChaosSeed() {
  const char* env = std::getenv("VISTA_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::atoll(env)) : 7;
}

// ---------------------------------------------------------------------------
// SpillManager: hint lifecycle

TEST(SpillPrefetchTest, HintsServeVerifiedBytesWithoutDoubleReads) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("hits"), metrics);
  spill.set_prefetch_capacity(8);
  int64_t payload_bytes = 0;
  for (int64_t key = 0; key < 4; ++key) {
    const std::vector<uint8_t> blob =
        PatternPayload(64 + 8 * static_cast<size_t>(key),
                       static_cast<uint8_t>(key));
    payload_bytes += static_cast<int64_t>(blob.size());
    ASSERT_TRUE(spill.Write(key, blob).ok());
  }
  for (int64_t key = 0; key < 4; ++key) spill.Prefetch(key);
  LetReaderRun();
  for (int64_t key = 0; key < 4; ++key) {
    auto read = spill.Read(key);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, PatternPayload(64 + 8 * static_cast<size_t>(key),
                                    static_cast<uint8_t>(key)));
  }
  EXPECT_EQ(spill.prefetch_requests(), 4);
  // Every hint resolves as a hit or a claim-back; either way the block was
  // read and verified exactly once.
  EXPECT_EQ(spill.prefetch_hits() + spill.prefetch_claimed(), 4);
  EXPECT_EQ(spill.prefetch_dropped(), 0);
  EXPECT_EQ(spill.blocks_verified(), 4);
  EXPECT_EQ(spill.bytes_read(), payload_bytes);
}

TEST(SpillPrefetchTest, CapacityBoundsOutstandingHints) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("capacity"), metrics);
  spill.set_prefetch_capacity(2);
  // A slow reader keeps the first hints outstanding while the rest arrive.
  FaultInjectorConfig config;
  config.spill_read_delay_rate = 1.0;
  config.spill_read_delay_ms = 30.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);
  for (int64_t key = 0; key < 5; ++key) {
    ASSERT_TRUE(spill.Write(key, PatternPayload(32)).ok());
  }
  for (int64_t key = 0; key < 5; ++key) spill.Prefetch(key);
  EXPECT_EQ(spill.prefetch_requests(), 2);
  EXPECT_EQ(spill.prefetch_dropped(), 3);
  // Re-hinting a key that already has a slot is a silent dedup.
  spill.Prefetch(0);
  EXPECT_EQ(spill.prefetch_requests(), 2);
  EXPECT_EQ(spill.prefetch_dropped(), 3);
  for (int64_t key = 0; key < 5; ++key) {
    EXPECT_TRUE(spill.Read(key).ok());
  }
}

TEST(SpillPrefetchTest, MissingAndFailedKeysAreDropped) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("badkeys"), metrics);
  // No spill entry for the key: nothing to read ahead.
  spill.Prefetch(77);
  EXPECT_EQ(spill.prefetch_requests(), 0);
  EXPECT_EQ(spill.prefetch_dropped(), 1);

  // A key with a latched async-write error must not be prefetched: the
  // latched error is the read result (sticky-error satellite of PR 6).
  FaultInjectorConfig fail_all;
  fail_all.spill_write_failure_rate = 1.0;
  FaultInjector injector(fail_all);
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(2));
  ASSERT_TRUE(spill.WriteAsync(5, PatternPayload(40)).ok());
  EXPECT_TRUE(spill.Flush().IsIOError());
  spill.Prefetch(5);
  EXPECT_EQ(spill.prefetch_requests(), 0);
  EXPECT_EQ(spill.prefetch_dropped(), 2);
  EXPECT_TRUE(spill.Read(5).status().IsIOError());
}

TEST(SpillPrefetchTest, MemoryBudgetGateDropsHintsWithoutHeadroom) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("budget"), metrics);
  df::MemoryBudgets budgets;
  budgets.storage = 100;
  df::MemoryManager memory(budgets);
  spill.set_prefetch_memory(&memory, df::MemoryRegion::kStorage);

  ASSERT_TRUE(spill.Write(1, PatternPayload(200)).ok());
  ASSERT_TRUE(spill.Write(2, PatternPayload(60)).ok());

  // 200 bytes cannot be charged against a 100-byte budget: dropped.
  spill.Prefetch(1);
  EXPECT_EQ(spill.prefetch_requests(), 0);
  EXPECT_EQ(spill.prefetch_dropped(), 1);

  // 60 bytes fit; the charge is held while the slot lives...
  spill.Prefetch(2);
  EXPECT_EQ(spill.prefetch_requests(), 1);
  EXPECT_EQ(memory.Available(df::MemoryRegion::kStorage), 40);
  // ...and released when the read consumes it.
  auto read = spill.Read(2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, PatternPayload(60));
  EXPECT_EQ(memory.Available(df::MemoryRegion::kStorage), 100);
}

// ---------------------------------------------------------------------------
// Fault interaction

TEST(SpillPrefetchTest, CorruptPrefetchedBlockSurfacesDataLossOnce) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("corrupt"), metrics);
  FaultInjectorConfig config;
  config.spill_bit_flip_rate = 1.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(3));

  ASSERT_TRUE(spill.Write(11, PatternPayload(100)).ok());
  EXPECT_EQ(injector.injected(FaultSite::kSpillBitFlip), 1);
  spill.Prefetch(11);
  LetReaderRun();
  auto read = spill.Read(11);
  ASSERT_FALSE(read.ok());
  // Same contract as the sync path: kDataLoss (non-retryable), counted
  // exactly once no matter which thread performed the read.
  EXPECT_TRUE(read.status().IsDataLoss());
  EXPECT_EQ(spill.checksum_failures(), 1);
  EXPECT_EQ(spill.io_retries(), 0);
  EXPECT_EQ(spill.prefetch_hits() + spill.prefetch_corrupt_dropped() +
                spill.prefetch_claimed(),
            1);
}

TEST(SpillPrefetchTest, OverwriteInvalidatesPrefetchedGeneration) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("generations"), metrics);
  const std::vector<uint8_t> gen1 = PatternPayload(80, 1);
  const std::vector<uint8_t> gen2 = PatternPayload(80, 2);
  ASSERT_TRUE(spill.Write(3, gen1).ok());
  spill.Prefetch(3);
  LetReaderRun();  // Generation 1 is (very likely) latched and ready.
  ASSERT_TRUE(spill.Write(3, gen2).ok());
  auto read = spill.Read(3);
  ASSERT_TRUE(read.ok());
  // The overwrite dropped any latched gen-1 payload: never stale bytes.
  EXPECT_EQ(*read, gen2);
}

TEST(SpillPrefetchTest, DelayedReadInjectionStallsButNeverCorrupts) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("delay"), metrics);
  FaultInjectorConfig config;
  config.spill_read_delay_rate = 1.0;
  config.spill_read_delay_ms = 1.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);

  for (int64_t key = 0; key < 3; ++key) {
    ASSERT_TRUE(spill.Write(key, PatternPayload(50)).ok());
  }
  for (int64_t key = 0; key < 3; ++key) {
    auto read = spill.Read(key);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, PatternPayload(50));
  }
  // One stall per read, data and integrity counters untouched.
  EXPECT_EQ(injector.injected(FaultSite::kSpillReadDelay), 3);
  EXPECT_EQ(spill.blocks_verified(), 3);
  EXPECT_EQ(spill.checksum_failures(), 0);
}

// ---------------------------------------------------------------------------
// Engine: exact accounting with prefetch on vs off

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

struct ChaosOutcome {
  std::vector<float> values;
  df::EngineStats stats;
};

/// One corruption-chaos pass: every partition of a derived table is forced
/// to spill through a bit-flipping writer, then read back (all reads hit
/// rotted blocks -> kDataLoss -> lineage recompute). `prefetch_depth`
/// controls read-ahead; the outcome must not depend on it.
ChaosOutcome RunChaos(int prefetch_depth) {
  ChaosOutcome out;
  df::EngineConfig config;
  config.cpus_per_worker = 2;
  config.budgets.storage = 64;  // Below any partition: everything spills.
  config.prefetch_depth = prefetch_depth;
  config.faults.seed = ChaosSeed();
  config.faults.spill_bit_flip_rate = 1.0;
  df::Engine engine(config);

  df::Table in = MakeNumbersTable(&engine, 96, 4);
  auto derived = engine.MapPartitions(
      in, [](std::vector<df::Record> records)
              -> Result<std::vector<df::Record>> {
        for (df::Record& r : records) r.struct_features[0] *= 2.0f;
        return records;
      });
  EXPECT_TRUE(derived.ok());
  EXPECT_TRUE(
      engine.Persist(&*derived, df::PersistenceFormat::kSerialized).ok());

  auto rows = engine.Collect(*derived);
  EXPECT_TRUE(rows.ok()) << rows.status();
  out.values.assign(96, -1.0f);
  for (const df::Record& r : *rows) out.values[r.id] = r.struct_features[0];
  out.stats = engine.stats();
  return out;
}

TEST(EnginePrefetchChaosTest, AccountingIdenticalWithPrefetchOnAndOff) {
  const ChaosOutcome serial = RunChaos(0);
  const ChaosOutcome pipelined = RunChaos(2);

  // Results healed identically through lineage.
  for (int i = 0; i < 96; ++i) {
    EXPECT_FLOAT_EQ(serial.values[i], 2.0f * i);
    EXPECT_FLOAT_EQ(pipelined.values[i], serial.values[i]);
  }
  // Prefetch moved the reads to another thread but changed no accounting:
  // the same corrupt blocks were detected and recomputed, counted once.
  EXPECT_GE(serial.stats.integrity.checksum_failures, 1);
  EXPECT_EQ(pipelined.stats.integrity.checksum_failures,
            serial.stats.integrity.checksum_failures);
  EXPECT_EQ(pipelined.stats.integrity.recomputes_triggered,
            serial.stats.integrity.recomputes_triggered);
  EXPECT_EQ(pipelined.stats.integrity.torn_writes_detected,
            serial.stats.integrity.torn_writes_detected);

  // The serial run issued no hints; the pipelined run's hints are fully
  // accounted for: every accepted hint ends as a hit, a claim-back, a
  // dropped-corrupt consumption, or an invalidation/shutdown drop.
  EXPECT_EQ(serial.stats.prefetch_requests, 0);
  EXPECT_GT(pipelined.stats.prefetch_requests, 0);
  EXPECT_EQ(pipelined.stats.prefetch_hits + pipelined.stats.prefetch_claimed +
                pipelined.stats.prefetch_corrupt_dropped +
                pipelined.stats.prefetch_dropped,
            pipelined.stats.prefetch_requests);
}

struct DelayOutcome {
  std::vector<float> values;
  int64_t delays_injected = 0;
  int64_t checksum_failures = 0;
};

DelayOutcome RunDelayed(int prefetch_depth) {
  DelayOutcome out;
  df::EngineConfig config;
  config.cpus_per_worker = 2;
  // Fits one partition: the table spills, but reads can fault back in.
  config.budgets.storage = 2048;
  config.prefetch_depth = prefetch_depth;
  config.faults.seed = ChaosSeed();
  config.faults.spill_read_delay_rate = 1.0;
  config.faults.spill_read_delay_ms = 1.0;
  df::Engine engine(config);

  df::Table table = MakeNumbersTable(&engine, 96, 4);
  EXPECT_TRUE(
      engine.Persist(&table, df::PersistenceFormat::kSerialized).ok());
  auto rows = engine.Collect(table);
  EXPECT_TRUE(rows.ok()) << rows.status();
  out.values.assign(96, -1.0f);
  for (const df::Record& r : *rows) out.values[r.id] = r.struct_features[0];
  out.delays_injected =
      engine.fault_injector().injected(FaultSite::kSpillReadDelay);
  out.checksum_failures = engine.stats().integrity.checksum_failures;
  return out;
}

TEST(EnginePrefetchTest, DelayedSpillReadsDrawIdenticalFaultsUnderReadAhead) {
  // Functional (not timing) check of the delay site at engine level:
  // moving a read into the prefetch thread must consume exactly the same
  // fault-injection draws as the sync path — same per-(key, attempt) delay
  // schedule, no extra or missing stalls, no data effects.
  const DelayOutcome serial = RunDelayed(0);
  const DelayOutcome pipelined = RunDelayed(2);
  for (int i = 0; i < 96; ++i) {
    EXPECT_FLOAT_EQ(serial.values[i], i);
    EXPECT_FLOAT_EQ(pipelined.values[i], serial.values[i]);
  }
  EXPECT_GE(serial.delays_injected, 4);  // Every spilled partition stalled.
  EXPECT_EQ(pipelined.delays_injected, serial.delays_injected);
  EXPECT_EQ(serial.checksum_failures, 0);
  EXPECT_EQ(pipelined.checksum_failures, 0);
}

// ---------------------------------------------------------------------------
// Executor: pipelined output is bit-identical at any depth

std::vector<std::vector<uint8_t>> MaterializeAtDepth(int depth) {
  df::EngineConfig engine_config;
  engine_config.cpus_per_worker = 2;
  engine_config.prefetch_depth = depth < 0 ? 0 : depth;
  df::Engine engine(engine_config);

  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  EXPECT_TRUE(arch.ok());
  auto model =
      dl::CnnModel::Instantiate(*arch, 21, dl::WeightInit::kGaborFirstConv);
  EXPECT_TRUE(model.ok());

  feat::MultimodalDatasetSpec spec;
  spec.num_records = 48;
  spec.num_struct_features = 12;
  spec.image_size = 32;
  spec.seed = 3;
  auto data = feat::GenerateMultimodal(spec);
  EXPECT_TRUE(data.ok());
  auto t_img = engine.MakeTable(std::move(data->t_img), 4);
  EXPECT_TRUE(t_img.ok());
  EXPECT_TRUE(
      engine.Persist(&*t_img, df::PersistenceFormat::kSerialized).ok());

  RealExecutor executor(&engine, &*model);
  RealExecutorConfig config;
  config.num_partitions = 4;
  config.train_models = false;
  config.prefetch_depth = depth;
  auto top = arch->TopLayers(1);
  EXPECT_TRUE(top.ok());
  int64_t flops = 0;
  auto features = executor.MaterializeLayer(*t_img, -1, -1, top->front(),
                                            config, &flops);
  EXPECT_TRUE(features.ok()) << features.status();
  EXPECT_GT(flops, 0);

  std::vector<std::vector<uint8_t>> blobs;
  for (const auto& p : features->partitions) {
    auto blob = p->ToBlob();
    EXPECT_TRUE(blob.ok());
    blobs.push_back(std::move(blob).value());
  }
  return blobs;
}

TEST(ExecutorPipelineTest, OutputsBitIdenticalAtEveryPrefetchDepth) {
  const auto baseline = MaterializeAtDepth(0);
  ASSERT_FALSE(baseline.empty());
  for (int depth : {1, 2, 4, -1}) {
    EXPECT_EQ(MaterializeAtDepth(depth), baseline)
        << "depth " << depth << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Depth policy + validation

TEST(ChoosePrefetchDepthTest, ScalesWithArithmeticIntensity) {
  // I/O-bound (< 64 FLOPs/byte): classic double buffering.
  EXPECT_EQ(ChoosePrefetchDepth(1000, 1000, -1, 8), 1);
  // Moderate intensity: two blocks ahead.
  EXPECT_EQ(ChoosePrefetchDepth(64 * 1000, 1000, -1, 8), 2);
  // GEMM-bound (>= 512 FLOPs/byte): the reader runs far ahead.
  EXPECT_EQ(ChoosePrefetchDepth(512 * 1000, 1000, -1, 8), 4);
}

TEST(ChoosePrefetchDepthTest, ClampsToHeadroomQueueAndSanity) {
  // Storage headroom caps the buffered bytes (2 blocks fit)...
  EXPECT_EQ(ChoosePrefetchDepth(512 * 1000, 1000, 2500, 8), 2);
  // ...but never below 1: one block ahead matches the sync path's own
  // transient footprint.
  EXPECT_EQ(ChoosePrefetchDepth(512 * 1000, 1000, 0, 8), 1);
  // The engine's queue capacity is a hard cap.
  EXPECT_EQ(ChoosePrefetchDepth(512 * 1000, 1000, -1, 3), 3);
  // Degenerate inputs stay sane.
  EXPECT_EQ(ChoosePrefetchDepth(0, 0, -1, 8), 1);
  EXPECT_EQ(ChoosePrefetchDepth(1000, 1000, -1, 0), 0);
}

TEST(RealExecutorConfigTest, ValidatesPrefetchDepth) {
  RealExecutorConfig config;
  config.train_models = false;
  for (int ok_depth : {-1, 0, 1, 4, 64}) {
    config.prefetch_depth = ok_depth;
    EXPECT_TRUE(config.Validate().ok()) << ok_depth;
  }
  for (int bad_depth : {-2, 65}) {
    config.prefetch_depth = bad_depth;
    EXPECT_TRUE(config.Validate().IsInvalidArgument()) << bad_depth;
  }
}

}  // namespace
}  // namespace vista
