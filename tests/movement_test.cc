// Tests for the parallel streaming data-movement plane: the two-phase
// shuffle's determinism across parallelism levels (and under injected
// faults), the FlatMap join build table, the widened shuffle task keys,
// and the async double-buffered spill writer.

#include <algorithm>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/flat_map.h"
#include "common/random.h"
#include "dataflow/engine.h"
#include "dataflow/spill.h"

namespace vista::df {
namespace {

// ---------------------------------------------------------------- FlatMap.

TEST(FlatMapTest, InsertFindAndGrowth) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), nullptr);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(map.emplace(i * 7 - 5000, i));
  }
  EXPECT_EQ(map.size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    const int* v = map.find(i * 7 - 5000);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(map.find(3), nullptr);  // Not a multiple of 7 offset.
}

TEST(FlatMapTest, KeepsFirstValueOnDuplicateKey) {
  // Matches unordered_map::emplace, which the join build side relied on.
  FlatMap<int> map(4);
  EXPECT_TRUE(map.emplace(42, 1));
  EXPECT_FALSE(map.emplace(42, 2));
  EXPECT_EQ(*map.find(42), 1);
}

TEST(FlatMapTest, MatchesUnorderedMapOnRandomKeys) {
  Rng rng(31);
  FlatMap<int64_t> flat;
  std::unordered_map<int64_t, int64_t> reference;
  for (int i = 0; i < 5000; ++i) {
    // Small key range forces duplicates; negative keys included.
    const int64_t key = static_cast<int64_t>(rng.NextUint64(2000)) - 1000;
    flat.emplace(key, i);
    reference.emplace(key, i);
  }
  EXPECT_EQ(flat.size(), reference.size());
  for (int64_t key = -1200; key <= 1200; ++key) {
    const int64_t* v = flat.find(key);
    auto it = reference.find(key);
    if (it == reference.end()) {
      EXPECT_EQ(v, nullptr) << key;
    } else {
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(*v, it->second) << key;
    }
  }
}

// ------------------------------------------------------- Shuffle task keys.

TEST(ShuffleTaskUnitTest, SidesNeverCollide) {
  // The old packing (right side = op<<16 | 0x8000+i) collided with left
  // once a table passed 0x8000 partitions: left i=0x8000+k equaled right
  // i=k. The widened packing keeps a dedicated side bit above 32 index
  // bits, so no index can reach it.
  const uint64_t op = 7;
  for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{0x7FFF}, int64_t{0x8000},
                    int64_t{0xFFFF}, int64_t{1} << 20, int64_t{1} << 31}) {
    EXPECT_NE(ShuffleTaskUnit(op, 0, 0x8000 + k), ShuffleTaskUnit(op, 1, k));
  }
  std::set<uint64_t> seen;
  for (uint64_t o : {uint64_t{1}, uint64_t{2}, uint64_t{900}}) {
    for (int side : {0, 1}) {
      for (int64_t i : {int64_t{0}, int64_t{5}, int64_t{0x8000},
                        int64_t{0x8005}, int64_t{1} << 30}) {
        EXPECT_TRUE(seen.insert(ShuffleTaskUnit(o, side, i)).second)
            << o << "/" << side << "/" << i;
      }
    }
  }
}

// -------------------------------------------------- Shuffle determinism.

std::vector<Record> MakeJoinRecords(int n, uint64_t seed, bool with_features) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(i), with_features ? 2.0f : 1.0f};
    if (with_features) {
      Tensor t(Shape{64});
      for (int64_t j = 0; j < 64; ++j) {
        if (rng.NextBool(0.25)) {
          t.set(j, static_cast<float>(rng.NextGaussian()));
        }
      }
      r.features.Append(std::move(t));
    }
    records.push_back(std::move(r));
  }
  return records;
}

/// Serializes every output partition; byte-equality of these blobs is the
/// "bit-identical output" the two-phase shuffle must preserve.
std::vector<std::vector<uint8_t>> TableBlobs(const Table& table) {
  std::vector<std::vector<uint8_t>> blobs;
  for (const auto& p : table.partitions) {
    auto blob = p->ToBlob();
    EXPECT_TRUE(blob.ok());
    blobs.push_back(blob.ok() ? std::move(blob).value()
                              : std::vector<uint8_t>{});
  }
  return blobs;
}

struct MovementRun {
  std::vector<std::vector<uint8_t>> join_shuffle;
  std::vector<std::vector<uint8_t>> join_broadcast;
  std::vector<std::vector<uint8_t>> repartition;
  std::vector<std::vector<uint8_t>> union_;
};

MovementRun RunMovementOps(int threads, FaultInjectorConfig faults = {},
                           int max_attempts = 1) {
  EngineConfig config;
  config.num_workers = 1;
  config.cpus_per_worker = threads;
  config.faults = faults;
  config.retry.max_attempts = std::max(max_attempts, 1);
  config.retry.base_backoff_ms = 0.0;
  Engine engine(config);
  auto left = engine.MakeTable(MakeJoinRecords(400, 3, false), 5);
  auto right = engine.MakeTable(MakeJoinRecords(400, 4, true), 3);
  EXPECT_TRUE(left.ok() && right.ok());

  MovementRun run;
  auto shuffle =
      engine.Join(*left, *right, JoinStrategy::kShuffleHash, 7);
  EXPECT_TRUE(shuffle.ok()) << shuffle.status();
  if (shuffle.ok()) run.join_shuffle = TableBlobs(*shuffle);

  auto broadcast = engine.Join(*left, *right, JoinStrategy::kBroadcast, 5);
  EXPECT_TRUE(broadcast.ok()) << broadcast.status();
  if (broadcast.ok()) run.join_broadcast = TableBlobs(*broadcast);

  auto repart = engine.Repartition(*left, 11);
  EXPECT_TRUE(repart.ok()) << repart.status();
  if (repart.ok()) run.repartition = TableBlobs(*repart);

  auto more = engine.MakeTable(MakeJoinRecords(100, 5, false), 5);
  EXPECT_TRUE(more.ok());
  auto unioned = engine.Union(*left, *more);
  EXPECT_TRUE(unioned.ok()) << unioned.status();
  if (unioned.ok()) run.union_ = TableBlobs(*unioned);
  return run;
}

TEST(ShuffleDeterminismTest, OutputsBitIdenticalAcrossParallelism) {
  const MovementRun serial = RunMovementOps(1);
  for (int threads : {2, 4, 8}) {
    const MovementRun parallel = RunMovementOps(threads);
    EXPECT_EQ(serial.join_shuffle, parallel.join_shuffle) << threads;
    EXPECT_EQ(serial.join_broadcast, parallel.join_broadcast) << threads;
    EXPECT_EQ(serial.repartition, parallel.repartition) << threads;
    EXPECT_EQ(serial.union_, parallel.union_) << threads;
  }
}

TEST(ShuffleDeterminismTest, OutputsBitIdenticalUnderInjectedFaults) {
  const MovementRun clean = RunMovementOps(4);
  FaultInjectorConfig faults;
  faults.seed = 21;
  faults.shuffle_failure_rate = 0.3;
  const MovementRun faulted = RunMovementOps(4, faults, /*max_attempts=*/10);
  EXPECT_EQ(clean.join_shuffle, faulted.join_shuffle);
  EXPECT_EQ(clean.join_broadcast, faulted.join_broadcast);
  EXPECT_EQ(clean.repartition, faulted.repartition);
  EXPECT_EQ(clean.union_, faulted.union_);
  // And the faulted run keeps its schedule deterministic at any thread
  // count, too.
  const MovementRun faulted1 = RunMovementOps(1, faults, /*max_attempts=*/10);
  EXPECT_EQ(faulted1.join_shuffle, faulted.join_shuffle);
}

// ------------------------------------- Zero-decode serialized fast path.

struct SerializedRun {
  std::vector<std::vector<uint8_t>> join;
  std::vector<std::vector<uint8_t>> repartition;
  bool outputs_serialized = true;
};

/// Same tables and ops as RunMovementOps, but the inputs are persisted in
/// serialized form first, which routes Join/Repartition through the
/// zero-decode splice path (and leaves its outputs serialized-resident).
SerializedRun RunSerializedOps(int threads, FaultInjectorConfig faults = {},
                               int max_attempts = 1) {
  EngineConfig config;
  config.num_workers = 1;
  config.cpus_per_worker = threads;
  config.faults = faults;
  config.retry.max_attempts = std::max(max_attempts, 1);
  config.retry.base_backoff_ms = 0.0;
  Engine engine(config);
  auto left = engine.MakeTable(MakeJoinRecords(400, 3, false), 5);
  auto right = engine.MakeTable(MakeJoinRecords(400, 4, true), 3);
  EXPECT_TRUE(left.ok() && right.ok());
  EXPECT_TRUE(engine.Persist(&*left, PersistenceFormat::kSerialized).ok());
  EXPECT_TRUE(engine.Persist(&*right, PersistenceFormat::kSerialized).ok());

  SerializedRun run;
  auto join = engine.Join(*left, *right, JoinStrategy::kShuffleHash, 7);
  EXPECT_TRUE(join.ok()) << join.status();
  if (join.ok()) {
    run.join = TableBlobs(*join);
    for (const auto& p : join->partitions) {
      run.outputs_serialized &=
          p->resident() && p->format() == PersistenceFormat::kSerialized;
    }
  }
  auto repart = engine.Repartition(*left, 11);
  EXPECT_TRUE(repart.ok()) << repart.status();
  if (repart.ok()) {
    run.repartition = TableBlobs(*repart);
    for (const auto& p : repart->partitions) {
      run.outputs_serialized &=
          p->resident() && p->format() == PersistenceFormat::kSerialized;
    }
  }
  return run;
}

TEST(SerializedFastPathTest, MatchesDecodedPathBitForBit) {
  // The splice path never materializes a record, yet its output blobs must
  // equal decode + MergeRecords + re-encode byte for byte.
  const MovementRun decoded = RunMovementOps(4);
  const SerializedRun wire = RunSerializedOps(4);
  EXPECT_TRUE(wire.outputs_serialized);
  EXPECT_EQ(decoded.join_shuffle, wire.join);
  EXPECT_EQ(decoded.repartition, wire.repartition);
}

TEST(SerializedFastPathTest, BitIdenticalAcrossParallelism) {
  const SerializedRun serial = RunSerializedOps(1);
  for (int threads : {2, 4, 8}) {
    const SerializedRun parallel = RunSerializedOps(threads);
    EXPECT_EQ(serial.join, parallel.join) << threads;
    EXPECT_EQ(serial.repartition, parallel.repartition) << threads;
  }
}

TEST(SerializedFastPathTest, BitIdenticalUnderInjectedFaults) {
  const SerializedRun clean = RunSerializedOps(4);
  FaultInjectorConfig faults;
  faults.seed = 23;
  faults.shuffle_failure_rate = 0.3;
  const SerializedRun faulted =
      RunSerializedOps(4, faults, /*max_attempts=*/10);
  EXPECT_EQ(clean.join, faulted.join);
  EXPECT_EQ(clean.repartition, faulted.repartition);
  const SerializedRun faulted1 =
      RunSerializedOps(1, faults, /*max_attempts=*/10);
  EXPECT_EQ(faulted1.join, faulted.join);
}

TEST(SerializedFastPathTest, MixedResidencyFallsBackToDecodedPath) {
  // One serialized side is not enough for the splice path; the join must
  // fall back to the decoding path and still produce the same bytes.
  EngineConfig config;
  config.cpus_per_worker = 4;
  Engine engine(config);
  auto left = engine.MakeTable(MakeJoinRecords(400, 3, false), 5);
  auto right = engine.MakeTable(MakeJoinRecords(400, 4, true), 3);
  ASSERT_TRUE(left.ok() && right.ok());
  ASSERT_TRUE(engine.Persist(&*left, PersistenceFormat::kSerialized).ok());
  auto join = engine.Join(*left, *right, JoinStrategy::kShuffleHash, 7);
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_EQ(join->partitions[0]->format(), PersistenceFormat::kDeserialized);
  EXPECT_EQ(RunMovementOps(4).join_shuffle, TableBlobs(*join));
}

// ------------------------------------------------------ Async spill I/O.

TEST(AsyncSpillTest, WriteAsyncIsReadableAfterwards) {
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_movement_spill_a", metrics);
  Rng rng(8);
  std::vector<uint8_t> blob(1 << 16);
  for (auto& b : blob) b = static_cast<uint8_t>(rng.NextUint64(256));
  ASSERT_TRUE(spill.WriteAsync(3, blob).ok());
  // Read waits for the pending write of the key (read-after-write order).
  auto back = spill.Read(3);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, blob);
  EXPECT_TRUE(spill.Flush().ok());
}

TEST(AsyncSpillTest, CounterAccessorsDrainPendingWrites) {
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_movement_spill_b", metrics);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(spill.WriteAsync(i, std::vector<uint8_t>(4096, 7)).ok());
  }
  // No explicit Flush: the accessors themselves must settle first.
  EXPECT_EQ(spill.num_spills(), 5);
  EXPECT_EQ(spill.bytes_written(), 5 * 4096);
}

TEST(AsyncSpillTest, FlushPropagatesAndClearsAsyncErrors) {
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_movement_spill_c", metrics);
  FaultInjectorConfig config;
  config.spill_write_failure_rate = 1.0;
  FaultInjector injector(config);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_ms = 0.0;
  spill.set_fault_injector(&injector);
  spill.set_retry_policy(policy);

  ASSERT_TRUE(spill.WriteAsync(9, {1, 2, 3}).ok());  // Queues fine...
  EXPECT_TRUE(spill.Flush().IsIOError());            // ...fails at flush.
  EXPECT_TRUE(spill.Flush().ok());                   // Error is cleared.
  // The per-key latch outlives Flush: reads of the failed key surface the
  // write's IOError (retryable, so lineage recomputation still recovers) —
  // never a silent NotFound that could mask the failed write.
  EXPECT_TRUE(spill.Read(9).status().IsIOError());
  EXPECT_EQ(spill.num_spills(), 0);
  // Remove drops the latch; only then does the key read as absent.
  spill.Remove(9);
  EXPECT_TRUE(spill.Read(9).status().IsNotFound());
}

TEST(AsyncSpillTest, SyncWriteAfterAsyncWriteOfSameKeyWins) {
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_movement_spill_d", metrics);
  ASSERT_TRUE(spill.WriteAsync(1, std::vector<uint8_t>(512, 1)).ok());
  ASSERT_TRUE(spill.Write(1, std::vector<uint8_t>(256, 2)).ok());
  auto back = spill.Read(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 256u);
  EXPECT_EQ((*back)[0], 2);
}

// --------------------------------------------- Engine-level async spills.

TEST(EngineAsyncSpillTest, SerializedPersistOverlapsSpillWrites) {
  EngineConfig config;
  config.cpus_per_worker = 4;
  config.budgets.storage = 40 * 1024;  // Tight: most partitions spill.
  Engine engine(config);
  auto table = engine.MakeTable(MakeJoinRecords(600, 6, true), 12);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      engine.Persist(&*table, PersistenceFormat::kSerialized).ok());
  const EngineStats stats = engine.stats();
  ASSERT_GT(stats.num_spills, 0);
  // Queue depth > 0 proves blobs were queued behind the writer thread,
  // i.e. serialization and disk I/O actually overlapped.
  EXPECT_GT(stats.spill_queue_depth_peak, 0);
  // Spilled data stays readable through the cache (writer drained).
  auto rows = engine.Collect(*table);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(static_cast<int>(rows->size()), 600);
}

TEST(EngineAsyncSpillTest, PersistSurfacesAsyncWriteFailures) {
  EngineConfig config;
  config.cpus_per_worker = 2;
  config.budgets.storage = 10 * 1024;  // Force spills...
  config.faults.spill_write_failure_rate = 1.0;  // ...that always fail.
  config.retry.max_attempts = 2;
  config.retry.base_backoff_ms = 0.0;
  Engine engine(config);
  auto table = engine.MakeTable(MakeJoinRecords(400, 2, true), 8);
  ASSERT_TRUE(table.ok());
  // The ordered flush at the end of Persist reports the writer's failure.
  Status st = engine.Persist(&*table, PersistenceFormat::kSerialized);
  EXPECT_TRUE(st.IsIOError()) << st;
}

// ----------------------------------------------- Serialized size model.

TEST(MovementSizingTest, PartitionBlobMatchesSerializedRecordBytes) {
  std::vector<Record> records = MakeJoinRecords(50, 12, true);
  int64_t expected = 0;
  for (const Record& r : records) expected += SerializedRecordBytes(r);
  Partition p(std::move(records));
  auto blob = p.ToBlob();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(static_cast<int64_t>(blob->size()), expected);
  EXPECT_EQ(p.memory_bytes_as(PersistenceFormat::kSerialized), expected);
}

}  // namespace
}  // namespace vista::df
