#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/fault_injector.h"
#include "common/retry.h"
#include "common/status.h"
#include "dataflow/block_format.h"
#include "dataflow/engine.h"
#include "dataflow/spill.h"
#include "obs/metrics.h"
#include "serve/view_cache.h"

namespace vista {
namespace {

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 (iSCSI) CRC32C test vectors.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> ascending(32);
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, ExtendIsEquivalentToOneShot) {
  std::vector<uint8_t> data(1337);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  EXPECT_EQ(Crc32cExtend(0, data.data(), data.size()), whole);
  // Chunked at awkward boundaries (1, 7, 8, 64, remainder).
  const size_t cuts[] = {1, 8, 15, 79, 640};
  uint32_t crc = 0;
  size_t offset = 0;
  for (size_t cut : cuts) {
    crc = Crc32cExtend(crc, data.data() + offset, cut - offset);
    offset = cut;
  }
  crc = Crc32cExtend(crc, data.data() + offset, data.size() - offset);
  EXPECT_EQ(crc, whole);
  // Informational only — either dispatch target must produce the vectors
  // above, so just exercise the query.
  (void)Crc32cIsHardwareAccelerated();
}

// ---------------------------------------------------------------------------
// Durable block frame

std::vector<uint8_t> PatternPayload(size_t n) {
  std::vector<uint8_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  return payload;
}

TEST(BlockFormatTest, RoundTripsPayloadsAndSequenceNumbers) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    const std::vector<uint8_t> payload = PatternPayload(n);
    std::vector<uint8_t> frame;
    df::EncodeBlockFrame(payload, /*seq=*/n + 3, &frame);
    EXPECT_EQ(frame.size(), n + df::kBlockFrameOverhead);
    df::BlockDefect defect = df::BlockDefect::kNone;
    auto decoded =
        df::DecodeBlockFrame(frame.data(), frame.size(), /*expected_seq=*/-1,
                             &defect);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(defect, df::BlockDefect::kNone);
    EXPECT_EQ(decoded->payload, payload);
    EXPECT_EQ(decoded->seq, n + 3);
  }
}

// Satellite: fuzz the durable-block decoder the same way the record codec is
// fuzzed — every truncation point and every single-bit flip must decode to
// kDataLoss, never crash, never return a "successful" wrong payload.
TEST(BlockFormatFuzzTest, EveryTruncationIsDataLoss) {
  const std::vector<uint8_t> payload = PatternPayload(64);
  std::vector<uint8_t> frame;
  df::EncodeBlockFrame(payload, /*seq=*/1, &frame);
  for (size_t len = 0; len < frame.size(); ++len) {
    df::BlockDefect defect = df::BlockDefect::kNone;
    auto decoded = df::DecodeBlockFrame(frame.data(), len, -1, &defect);
    EXPECT_FALSE(decoded.ok()) << "truncated to " << len;
    EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status();
    EXPECT_NE(defect, df::BlockDefect::kNone);
  }
}

TEST(BlockFormatFuzzTest, EverySingleBitFlipIsDataLoss) {
  const std::vector<uint8_t> payload = PatternPayload(48);
  std::vector<uint8_t> frame;
  df::EncodeBlockFrame(payload, /*seq=*/9, &frame);
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = frame;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      df::BlockDefect defect = df::BlockDefect::kNone;
      auto decoded =
          df::DecodeBlockFrame(mutated.data(), mutated.size(), 9, &defect);
      EXPECT_FALSE(decoded.ok()) << "flip at byte " << byte << " bit " << bit;
      EXPECT_TRUE(decoded.status().IsDataLoss());
      EXPECT_NE(defect, df::BlockDefect::kNone);
    }
  }
}

TEST(BlockFormatTest, ClassifiesDefectShapes) {
  const std::vector<uint8_t> payload = PatternPayload(32);
  std::vector<uint8_t> frame;
  df::EncodeBlockFrame(payload, /*seq=*/4, &frame);
  df::BlockDefect defect = df::BlockDefect::kNone;

  // Trailing garbage: a partial overwrite left bytes beyond the frame.
  std::vector<uint8_t> garbage = frame;
  garbage.push_back(0xAB);
  EXPECT_TRUE(df::DecodeBlockFrame(garbage.data(), garbage.size(), -1,
                                   &defect)
                  .status()
                  .IsDataLoss());
  EXPECT_EQ(defect, df::BlockDefect::kTrailingGarbage);
  EXPECT_FALSE(df::IsTornWriteDefect(defect));

  // Torn tail: right length, wrong footer sentinel.
  std::vector<uint8_t> torn = frame;
  torn[torn.size() - 1] ^= 0xFF;
  EXPECT_TRUE(
      df::DecodeBlockFrame(torn.data(), torn.size(), -1, &defect)
          .status()
          .IsDataLoss());
  EXPECT_EQ(defect, df::BlockDefect::kBadFooter);
  EXPECT_TRUE(df::IsTornWriteDefect(defect));

  // Unknown version with an intact (recomputed) header CRC.
  std::vector<uint8_t> version = frame;
  version[4] = 0x7F;
  const uint32_t header_crc = Crc32c(version.data(), 28);
  std::memcpy(version.data() + 28, &header_crc, sizeof(header_crc));
  EXPECT_TRUE(df::DecodeBlockFrame(version.data(), version.size(), -1,
                                   &defect)
                  .status()
                  .IsDataLoss());
  EXPECT_EQ(defect, df::BlockDefect::kBadVersion);

  // Stale generation: internally consistent frame, wrong expected seq.
  EXPECT_TRUE(df::DecodeBlockFrame(frame.data(), frame.size(),
                                   /*expected_seq=*/5, &defect)
                  .status()
                  .IsDataLoss());
  EXPECT_EQ(defect, df::BlockDefect::kStale);
  EXPECT_FALSE(df::IsTornWriteDefect(defect));
}

// ---------------------------------------------------------------------------
// SpillManager: durable frames + verify-on-read under injected corruption

std::string FreshSpillDir(const std::string& tag) {
  const std::string dir = "/tmp/vista_integrity_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

RetryPolicy FastRetries(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.base_backoff_ms = 0.0;
  return policy;
}

TEST(SpillIntegrityTest, CleanRoundTripWritesFramedBlocks) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("clean"), metrics);
  const std::vector<uint8_t> blob = PatternPayload(200);
  ASSERT_TRUE(spill.Write(3, blob).ok());
  // The on-disk file is a framed block, not the raw payload.
  bool found = false;
  for (const auto& entry :
       std::filesystem::directory_iterator("/tmp/vista_integrity_clean")) {
    found = true;
    EXPECT_EQ(std::filesystem::file_size(entry.path()),
              blob.size() + df::kBlockFrameOverhead);
  }
  EXPECT_TRUE(found);
  auto read = spill.Read(3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, blob);
  EXPECT_EQ(spill.blocks_verified(), 1);
  EXPECT_EQ(spill.checksum_failures(), 0);
  // Byte counters meter payload bytes, excluding frame overhead.
  EXPECT_EQ(spill.bytes_written(), static_cast<int64_t>(blob.size()));
  EXPECT_EQ(spill.bytes_read(), static_cast<int64_t>(blob.size()));
}

TEST(SpillIntegrityTest, InjectedBitFlipIsCaughtOnRead) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("flip"), metrics);
  FaultInjectorConfig config;
  config.spill_bit_flip_rate = 1.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(3));

  ASSERT_TRUE(spill.Write(11, PatternPayload(100)).ok());
  EXPECT_EQ(injector.injected(FaultSite::kSpillBitFlip), 1);
  auto read = spill.Read(11);
  ASSERT_FALSE(read.ok());
  // Corruption is kDataLoss — non-retryable by design: a corrupt block
  // stays corrupt on re-read, so retrying would only burn time.
  EXPECT_TRUE(read.status().IsDataLoss());
  EXPECT_EQ(spill.checksum_failures(), 1);
  EXPECT_EQ(spill.torn_writes_detected(), 0);
  EXPECT_EQ(spill.io_retries(), 0);
}

TEST(SpillIntegrityTest, InjectedTornWriteIsCaughtOnRead) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("torn"), metrics);
  FaultInjectorConfig config;
  config.spill_torn_write_rate = 1.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(3));

  ASSERT_TRUE(spill.Write(12, PatternPayload(100)).ok());
  EXPECT_EQ(injector.injected(FaultSite::kSpillTornWrite), 1);
  auto read = spill.Read(12);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsDataLoss());
  EXPECT_EQ(spill.checksum_failures(), 1);
  EXPECT_EQ(spill.torn_writes_detected(), 1);
}

TEST(SpillIntegrityTest, InjectedStaleReadBackIsCaughtBySequenceCheck) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("stale"), metrics);
  FaultInjectorConfig config;
  config.spill_stale_read_rate = 1.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(3));

  // First write of a key cannot be stale (there is no previous generation).
  const std::vector<uint8_t> gen1 = PatternPayload(80);
  ASSERT_TRUE(spill.Write(13, gen1).ok());
  EXPECT_EQ(injector.injected(FaultSite::kSpillStaleRead), 0);
  auto first = spill.Read(13);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, gen1);

  // The overwrite "succeeds" but the device serves the old generation; the
  // frame is internally consistent, so only the sequence check catches it.
  ASSERT_TRUE(spill.Write(13, PatternPayload(90)).ok());
  EXPECT_EQ(injector.injected(FaultSite::kSpillStaleRead), 1);
  auto read = spill.Read(13);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsDataLoss());
  EXPECT_EQ(spill.torn_writes_detected(), 0);
}

TEST(SpillIntegrityTest, EnospcFailsTheWriteUpFrontAndRetries) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("enospc"), metrics);
  FaultInjectorConfig config;
  config.spill_enospc_rate = 1.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(3));

  Status st = spill.Write(14, PatternPayload(50));
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(spill.io_retries(), 2);
  EXPECT_EQ(spill.num_spills(), 0);
  EXPECT_TRUE(spill.Read(14).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Async writer: the silent-failure window (satellite)

TEST(SpillAsyncErrorTest, AsyncWriteFailureIsStickyPerKey) {
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("sticky"), metrics);
  FaultInjectorConfig config;
  config.spill_write_failure_rate = 1.0;
  FaultInjector injector(config);
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(2));

  ASSERT_TRUE(spill.WriteAsync(5, PatternPayload(40)).ok());
  // The failure surfaces on Read — never a silent NotFound.
  EXPECT_TRUE(spill.Read(5).status().IsIOError());
  // ...and on Flush, exactly once per error.
  EXPECT_TRUE(spill.Flush().IsIOError());
  EXPECT_TRUE(spill.Flush().ok());
  // The per-key latch survives Flush: the key stays poisoned...
  EXPECT_TRUE(spill.Read(5).status().IsIOError());
  // ...until a successful rewrite clears it.
  FaultInjectorConfig clean;
  injector.Configure(clean);
  const std::vector<uint8_t> blob = PatternPayload(44);
  ASSERT_TRUE(spill.Write(5, blob).ok());
  auto read = spill.Read(5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, blob);
}

TEST(SpillAsyncErrorTest, FailedOverwriteNeverServesThePreviousGeneration) {
  // The regression this satellite pins: an async overwrite fails after the
  // last Append but before Finish/Flush. The old bug window would serve the
  // previous generation on Read as if the overwrite never happened.
  obs::Registry metrics;
  df::SpillManager spill(FreshSpillDir("overwrite"), metrics);
  FaultInjector injector;  // Inert for the clean first generation.
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(FastRetries(2));

  ASSERT_TRUE(spill.Write(9, PatternPayload(64)).ok());

  FaultInjectorConfig fail_all;
  fail_all.spill_write_failure_rate = 1.0;
  injector.Configure(fail_all);
  ASSERT_TRUE(spill.WriteAsync(9, PatternPayload(65)).ok());

  // Both the next read of the key AND Finish/Flush must surface the error;
  // serving generation 1 here would be a silent wrong result.
  EXPECT_TRUE(spill.Read(9).status().IsIOError());
  EXPECT_TRUE(spill.Flush().IsIOError());

  // Remove clears the latch; the key reads as absent, not as the old blob.
  spill.Remove(9);
  EXPECT_TRUE(spill.Read(9).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Engine: in-memory blob rot is caught before header-scan / decode paths

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

void CorruptResidentBlob(const df::Table& table) {
  for (const auto& p : table.partitions) {
    if (p->resident() && p->format() == df::PersistenceFormat::kSerialized) {
      std::vector<uint8_t>* blob = p->mutable_blob_for_testing();
      ASSERT_FALSE(blob->empty());
      (*blob)[blob->size() / 2] ^= 0x20;
      return;
    }
  }
  FAIL() << "no serialized-resident partition to corrupt";
}

TEST(EngineIntegrityTest, RottedBlobWithoutLineageFailsAsDataLoss) {
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  config.enable_lineage = false;
  df::Engine engine(config);
  df::Table table = MakeNumbersTable(&engine, 120, 4);
  ASSERT_TRUE(engine.Persist(&table, df::PersistenceFormat::kSerialized).ok());
  CorruptResidentBlob(table);

  auto rows = engine.Collect(table);
  ASSERT_FALSE(rows.ok());
  // Base tables have no lineage: the corruption must surface as kDataLoss
  // to the caller — never a silent wrong result, never an endless retry.
  EXPECT_TRUE(rows.status().IsDataLoss()) << rows.status();
  const auto integrity = engine.stats().integrity;
  EXPECT_GE(integrity.checksum_failures, 1);
  EXPECT_EQ(integrity.recomputes_triggered, 0);
}

TEST(EngineIntegrityTest, RottedBlobWithLineageIsRecomputedExactly) {
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  df::Engine engine(config);
  df::Table in = MakeNumbersTable(&engine, 120, 4);
  auto derived = engine.MapPartitions(in, DoubleFirstFeature());
  ASSERT_TRUE(derived.ok());
  ASSERT_TRUE(
      engine.Persist(&*derived, df::PersistenceFormat::kSerialized).ok());
  CorruptResidentBlob(*derived);

  auto rows = engine.Collect(*derived);
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<float> values(120, -1.0f);
  for (const df::Record& r : *rows) values[r.id] = r.struct_features[0];
  for (int i = 0; i < 120; ++i) {
    EXPECT_FLOAT_EQ(values[i], 2.0f * i);
  }
  const auto integrity = engine.stats().integrity;
  EXPECT_GE(integrity.checksum_failures, 1);
  EXPECT_GE(integrity.recomputes_triggered, 1);
  EXPECT_GT(integrity.blocks_verified, 0);
}

TEST(EngineIntegrityTest, ZeroDecodeShuffleFallsBackOnCorruptInput) {
  // Repartition of serialized-resident tables takes the zero-decode
  // header-scan path; a corrupt blob must divert it to the decoding path
  // (where lineage recomputation heals the partition) instead of splicing
  // rotted bytes into the output.
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  df::Engine engine(config);
  df::Table in = MakeNumbersTable(&engine, 120, 4);
  auto derived = engine.MapPartitions(in, DoubleFirstFeature());
  ASSERT_TRUE(derived.ok());
  ASSERT_TRUE(
      engine.Persist(&*derived, df::PersistenceFormat::kSerialized).ok());
  CorruptResidentBlob(*derived);

  auto repartitioned = engine.Repartition(*derived, 3);
  ASSERT_TRUE(repartitioned.ok()) << repartitioned.status();
  auto rows = engine.Collect(*repartitioned);
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<float> values(120, -1.0f);
  for (const df::Record& r : *rows) values[r.id] = r.struct_features[0];
  for (int i = 0; i < 120; ++i) {
    EXPECT_FLOAT_EQ(values[i], 2.0f * i);
  }
  const auto integrity = engine.stats().integrity;
  EXPECT_GE(integrity.checksum_failures, 1);
  EXPECT_GE(integrity.recomputes_triggered, 1);
}

// ---------------------------------------------------------------------------
// FeatureViewCache: never resume inference from rotted features

TEST(ViewCacheIntegrityTest, CorruptViewIsDroppedNotServed) {
  df::MemoryBudgets budgets;
  budgets.storage = 64 << 20;
  df::MemoryManager memory(budgets);
  obs::Registry registry;
  serve::FeatureViewCache cache(&memory, registry);

  df::EngineConfig ec;
  df::Engine engine(ec);
  serve::MaterializedView view;
  view.table = MakeNumbersTable(&engine, 60, 2);
  view.layer = 3;
  for (const auto& p : view.table.partitions) {
    ASSERT_TRUE(p->ConvertTo(df::PersistenceFormat::kSerialized).ok());
  }
  ASSERT_TRUE(cache.Insert("alexnet", /*fingerprint=*/42, view,
                           /*recompute_flops=*/1 << 20));
  ASSERT_TRUE(cache.Lookup("alexnet", 42, 5).has_value());

  // Rot one partition of the cached view in place (the cache shares the
  // partitions with `view` via shared_ptr).
  std::vector<uint8_t>* blob =
      view.table.partitions[0]->mutable_blob_for_testing();
  ASSERT_FALSE(blob->empty());
  (*blob)[blob->size() / 3] ^= 0x01;

  // The lookup verifies before handing the view out, drops the corrupt
  // entry, and reports a miss — resuming from it would poison every layer
  // downstream.
  EXPECT_FALSE(cache.Lookup("alexnet", 42, 5).has_value());
  EXPECT_EQ(cache.num_views(), 0);
  EXPECT_EQ(cache.resident_bytes(), 0);
  EXPECT_EQ(memory.Used(df::MemoryRegion::kStorage), 0);
  EXPECT_EQ(registry.counter("serve.view_cache.corrupt_drops")->value(), 1);
  EXPECT_GE(registry.counter("integrity.checksum_failures")->value(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end corruption chaos: injected spill-block corruption heals through
// lineage with exact integrity accounting (the CI matrix runs this under
// several seeds via VISTA_CHAOS_SEED).

uint64_t ChaosSeed() {
  const char* env = std::getenv("VISTA_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 17;
}

TEST(CorruptionChaosTest, InjectedCorruptionHealsWithExactAccounting) {
  const uint64_t seed = ChaosSeed();

  // Clean baseline on an unconstrained engine.
  df::EngineConfig clean_config;
  clean_config.cpus_per_worker = 4;
  df::Engine clean(clean_config);
  df::Table clean_in = MakeNumbersTable(&clean, 400, 8);
  auto clean_out = clean.MapPartitions(clean_in, DoubleFirstFeature());
  ASSERT_TRUE(clean_out.ok());
  auto clean_rows = clean.Collect(*clean_out);
  ASSERT_TRUE(clean_rows.ok());
  std::vector<float> expected(400, -1.0f);
  for (const df::Record& r : *clean_rows) {
    expected[r.id] = r.struct_features[0];
  }

  // Faulted engine: a storage budget tiny enough that Persist spills most
  // partitions, with bit-flip and torn-write mutations armed.
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  config.budgets.storage = 2 * 1024;
  config.faults.seed = seed;
  config.faults.spill_bit_flip_rate = 0.5;
  config.faults.spill_torn_write_rate = 0.3;
  config.retry.max_attempts = 3;
  config.retry.base_backoff_ms = 0.0;
  df::Engine engine(config);
  df::Table in = MakeNumbersTable(&engine, 400, 8);
  auto derived = engine.MapPartitions(in, DoubleFirstFeature());
  ASSERT_TRUE(derived.ok());
  ASSERT_TRUE(
      engine.Persist(&*derived, df::PersistenceFormat::kSerialized).ok());
  ASSERT_GT(engine.stats().num_spills, 0);

  // Every corruption drawn so far sits in a durably-written block. Disarm
  // the injector before reading back: evictions during Collect re-spill
  // restored partitions, and new mutations on those (never re-read) blocks
  // would break the exact-accounting equality below.
  const int64_t injected_flips =
      engine.fault_injector().injected(FaultSite::kSpillBitFlip);
  const int64_t injected_torn =
      engine.fault_injector().injected(FaultSite::kSpillTornWrite);
  FaultInjectorConfig disarmed;
  disarmed.seed = seed;
  engine.fault_injector().Configure(disarmed);

  auto rows = engine.Collect(*derived);
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<float> values(400, -1.0f);
  for (const df::Record& r : *rows) values[r.id] = r.struct_features[0];
  // Zero silent wrong results: every value matches the clean baseline
  // bit for bit, through however many lineage recomputes it took.
  EXPECT_EQ(values, expected);

  const auto integrity = engine.stats().integrity;
  // Non-vacuity: the seed must actually have corrupted something. Seeds
  // 1-5 and the default 17 all do; P(no fault) < 1e-3 per spilled block
  // set at these rates.
  ASSERT_GT(injected_flips + injected_torn, 0);
  // Exact accounting: each corrupt block was read exactly once, detected
  // exactly once, and healed by exactly one lineage recompute.
  EXPECT_EQ(integrity.checksum_failures, injected_flips + injected_torn);
  EXPECT_EQ(integrity.torn_writes_detected, injected_torn);
  EXPECT_EQ(integrity.recomputes_triggered, integrity.checksum_failures);
  EXPECT_GT(integrity.blocks_verified, 0);

  // Determinism: the same seed draws the same corruption schedule.
  df::Engine replay(config);
  df::Table replay_in = MakeNumbersTable(&replay, 400, 8);
  auto replay_out = replay.MapPartitions(replay_in, DoubleFirstFeature());
  ASSERT_TRUE(replay_out.ok());
  ASSERT_TRUE(
      replay.Persist(&*replay_out, df::PersistenceFormat::kSerialized).ok());
  EXPECT_EQ(replay.fault_injector().injected(FaultSite::kSpillBitFlip),
            injected_flips);
  EXPECT_EQ(replay.fault_injector().injected(FaultSite::kSpillTornWrite),
            injected_torn);
}

}  // namespace
}  // namespace vista
