#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataflow/cache.h"
#include "dataflow/engine.h"
#include "dataflow/memory.h"
#include "dataflow/partition.h"
#include "dataflow/spill.h"

namespace vista::df {
namespace {

std::vector<Record> MakeRecords(int n, int features_per_record = 0,
                                double density = 1.0) {
  Rng rng(n);
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(i), 1.0f};
    for (int f = 0; f < features_per_record; ++f) {
      Tensor t(Shape{32});
      for (int64_t j = 0; j < 32; ++j) {
        if (rng.NextBool(density)) {
          t.set(j, static_cast<float>(rng.NextGaussian()));
        }
      }
      r.features.Append(std::move(t));
    }
    records.push_back(std::move(r));
  }
  return records;
}

// ---------------------------------------------------------------- Memory.

TEST(MemoryManagerTest, ReserveAndRelease) {
  MemoryBudgets budgets;
  budgets.user = 100;
  MemoryManager mem(budgets);
  EXPECT_TRUE(mem.TryReserve(MemoryRegion::kUser, 60).ok());
  EXPECT_EQ(mem.Used(MemoryRegion::kUser), 60);
  EXPECT_EQ(mem.Available(MemoryRegion::kUser), 40);
  auto st = mem.TryReserve(MemoryRegion::kUser, 50);
  EXPECT_TRUE(st.IsResourceExhausted());
  mem.Release(MemoryRegion::kUser, 60);
  EXPECT_EQ(mem.Used(MemoryRegion::kUser), 0);
  EXPECT_EQ(mem.Peak(MemoryRegion::kUser), 60);
}

TEST(MemoryManagerTest, UnlimitedRegion) {
  MemoryManager mem;
  EXPECT_TRUE(mem.TryReserve(MemoryRegion::kStorage, int64_t{1} << 50).ok());
}

TEST(MemoryManagerTest, ZeroAndNegativeAreNoOps) {
  MemoryBudgets budgets;
  budgets.core = 10;
  MemoryManager mem(budgets);
  EXPECT_TRUE(mem.TryReserve(MemoryRegion::kCore, 0).ok());
  EXPECT_TRUE(mem.TryReserve(MemoryRegion::kCore, -5).ok());
  EXPECT_EQ(mem.Used(MemoryRegion::kCore), 0);
}

TEST(MemoryManagerTest, ConcurrentReservations) {
  MemoryBudgets budgets;
  budgets.user = 1000;
  MemoryManager mem(budgets);
  ThreadPool pool(4);
  std::atomic<int> granted{0};
  pool.ParallelFor(100, [&](int64_t) {
    if (mem.TryReserve(MemoryRegion::kUser, 10).ok()) {
      granted.fetch_add(1);
    }
  });
  EXPECT_EQ(granted.load(), 100);
  EXPECT_EQ(mem.Used(MemoryRegion::kUser), 1000);
  EXPECT_TRUE(mem.TryReserve(MemoryRegion::kUser, 1).IsResourceExhausted());
}

// -------------------------------------------------------------- Partition.

TEST(PartitionTest, FormatsRoundTrip) {
  Partition p(MakeRecords(10, 2, 0.1));
  EXPECT_EQ(p.num_records(), 10);
  EXPECT_EQ(p.format(), PersistenceFormat::kDeserialized);
  const int64_t deser = p.memory_bytes();
  ASSERT_TRUE(p.ConvertTo(PersistenceFormat::kSerialized).ok());
  const int64_t ser = p.memory_bytes();
  EXPECT_LT(ser, deser);  // Sparse features compress.
  ASSERT_TRUE(p.ConvertTo(PersistenceFormat::kDeserialized).ok());
  auto records = p.ReadRecords();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[3].id, 3);
  EXPECT_EQ((*records)[3].features.size(), 2);
}

TEST(PartitionTest, ReadFromSerialized) {
  Partition p(MakeRecords(5, 1));
  ASSERT_TRUE(p.ConvertTo(PersistenceFormat::kSerialized).ok());
  auto records = p.ReadRecords();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 5u);
}

TEST(PartitionTest, EvictAndRestore) {
  Partition p(MakeRecords(4, 1));
  auto blob = p.ToBlob();
  ASSERT_TRUE(blob.ok());
  p.Evict();
  EXPECT_FALSE(p.resident());
  EXPECT_EQ(p.memory_bytes(), 0);
  EXPECT_FALSE(p.ReadRecords().ok());
  ASSERT_TRUE(p.Restore(*blob, PersistenceFormat::kDeserialized).ok());
  EXPECT_TRUE(p.resident());
  auto records = p.ReadRecords();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 4u);
}

// ------------------------------------------------------------------ Spill.

TEST(SpillManagerTest, WriteReadRemove) {
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_test_spill_a", metrics);
  std::vector<uint8_t> blob = {1, 2, 3, 4, 5};
  ASSERT_TRUE(spill.Write(7, blob).ok());
  EXPECT_EQ(spill.bytes_written(), 5);
  auto back = spill.Read(7);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, blob);
  EXPECT_EQ(spill.bytes_read(), 5);
  spill.Remove(7);
  EXPECT_FALSE(spill.Read(7).ok());
}

TEST(SpillManagerTest, MissingKeyIsNotFound) {
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_test_spill_b", metrics);
  EXPECT_TRUE(spill.Read(99).status().IsNotFound());
}

// ------------------------------------------------------------------ Cache.

TEST(StorageCacheTest, EvictsLruToDiskUnderPressure) {
  MemoryBudgets budgets;
  budgets.storage = 2500;
  MemoryManager mem(budgets);
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_test_spill_c", metrics);
  StorageCache cache(&mem, &spill, /*allow_spill=*/true, metrics);

  std::vector<std::shared_ptr<Partition>> parts;
  for (int i = 0; i < 6; ++i) {
    auto p = std::make_shared<Partition>(MakeRecords(20));
    ASSERT_TRUE(cache.Insert(p).ok()) << i;
    parts.push_back(p);
  }
  EXPECT_EQ(cache.num_managed(), 6);
  EXPECT_GT(cache.num_spilled(), 0);
  EXPECT_GT(spill.num_spills(), 0);

  // Every partition is still readable (fault-in from disk).
  for (auto& p : parts) {
    auto records = cache.ReadThrough(p);
    ASSERT_TRUE(records.ok());
    EXPECT_EQ(records->size(), 20u);
  }
}

TEST(StorageCacheTest, MemoryOnlyModeCrashes) {
  MemoryBudgets budgets;
  budgets.storage = 2000;
  MemoryManager mem(budgets);
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_test_spill_d", metrics);
  StorageCache cache(&mem, &spill, /*allow_spill=*/false, metrics);

  Status last = Status::OK();
  for (int i = 0; i < 10 && last.ok(); ++i) {
    last = cache.Insert(std::make_shared<Partition>(MakeRecords(20)));
  }
  EXPECT_TRUE(last.IsResourceExhausted());
}

TEST(StorageCacheTest, RemoveReleasesMemory) {
  MemoryBudgets budgets;
  budgets.storage = 100000;
  MemoryManager mem(budgets);
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_test_spill_e", metrics);
  StorageCache cache(&mem, &spill, true, metrics);
  auto p = std::make_shared<Partition>(MakeRecords(10));
  ASSERT_TRUE(cache.Insert(p).ok());
  EXPECT_GT(mem.Used(MemoryRegion::kStorage), 0);
  cache.Remove(p);
  EXPECT_EQ(mem.Used(MemoryRegion::kStorage), 0);
}

TEST(StorageCacheTest, ExportsCountersThroughRegistry) {
  MemoryBudgets budgets;
  budgets.storage = 2500;
  MemoryManager mem(budgets);
  obs::Registry metrics;
  SpillManager spill("/tmp/vista_test_spill_f", metrics);
  StorageCache cache(&mem, &spill, /*allow_spill=*/true, metrics);

  std::vector<std::shared_ptr<Partition>> parts;
  for (int i = 0; i < 6; ++i) {
    auto p = std::make_shared<Partition>(MakeRecords(20));
    ASSERT_TRUE(cache.Insert(p).ok()) << i;
    parts.push_back(p);
  }
  for (auto& p : parts) {
    ASSERT_TRUE(cache.ReadThrough(p).ok());
  }

  EXPECT_EQ(metrics.counter("cache.inserts")->value(), 6);
  EXPECT_GT(metrics.counter("cache.evictions")->value(), 0);
  // Every managed read is exactly one of: resident (hit) or fault-in
  // (miss). Under this budget both cases occur.
  const int64_t hits = metrics.counter("cache.read_hits")->value();
  const int64_t misses = metrics.counter("cache.read_misses")->value();
  EXPECT_GT(misses, 0);
  EXPECT_EQ(hits + misses, 6);
  EXPECT_EQ(metrics.gauge("cache.resident_bytes")->value(),
            mem.Used(MemoryRegion::kStorage));
}

// EngineStats mirrors the same "cache.*" instruments, so engine-level and
// registry-level cache accounting cannot drift apart.
TEST(StorageCacheTest, EngineStatsMirrorsCacheCounters) {
  EngineConfig config;
  config.budgets.storage = 4000;
  Engine engine(config);
  auto table = engine.MakeTable(MakeRecords(120), 8);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      engine.Persist(&*table, PersistenceFormat::kSerialized).ok());
  for (const auto& p : table->partitions) {
    ASSERT_TRUE(engine.cache().ReadThrough(p).ok());
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_inserts,
            engine.metrics().counter("cache.inserts")->value());
  EXPECT_EQ(stats.cache_read_hits + stats.cache_read_misses, 8);
  EXPECT_EQ(stats.cache_resident_bytes,
            engine.metrics().gauge("cache.resident_bytes")->value());
  EXPECT_GT(stats.cache_inserts, 0);
}

// ----------------------------------------------------------------- Engine.

EngineConfig SmallEngineConfig() {
  EngineConfig config;
  config.num_workers = 2;
  config.cpus_per_worker = 2;
  return config;
}

TEST(EngineTest, MakeTablePartitionsById) {
  Engine engine(SmallEngineConfig());
  auto table = engine.MakeTable(MakeRecords(100), 8);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_partitions(), 8);
  EXPECT_EQ(table->num_records(), 100);
  // Same id always lands in the same partition.
  auto again = engine.MakeTable(MakeRecords(100), 8);
  ASSERT_TRUE(again.ok());
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(table->partitions[p]->num_records(),
              again->partitions[p]->num_records());
  }
}

TEST(EngineTest, MapPartitionsTransformsEveryRecord) {
  Engine engine(SmallEngineConfig());
  auto table = engine.MakeTable(MakeRecords(50), 4);
  ASSERT_TRUE(table.ok());
  auto mapped = engine.MapPartitions(
      *table, [](std::vector<Record> records) -> Result<std::vector<Record>> {
        for (Record& r : records) r.struct_features[1] += 10.0f;
        return records;
      });
  ASSERT_TRUE(mapped.ok());
  auto collected = engine.Collect(*mapped);
  ASSERT_TRUE(collected.ok());
  ASSERT_EQ(collected->size(), 50u);
  for (const Record& r : *collected) {
    EXPECT_FLOAT_EQ(r.struct_features[1], 11.0f);
  }
}

TEST(EngineTest, MapPartitionsPropagatesErrors) {
  Engine engine(SmallEngineConfig());
  auto table = engine.MakeTable(MakeRecords(10), 2);
  ASSERT_TRUE(table.ok());
  auto mapped = engine.MapPartitions(
      *table, [](std::vector<Record>) -> Result<std::vector<Record>> {
        return Status::Internal("udf failed");
      });
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInternal);
}

TEST(EngineTest, JoinStrategiesAgree) {
  Engine engine(SmallEngineConfig());
  // Left: ids 0..59; right: ids 30..89 -> intersection 30..59.
  std::vector<Record> left_rows = MakeRecords(60);
  std::vector<Record> right_rows;
  for (int i = 30; i < 90; ++i) {
    Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(-i)};
    right_rows.push_back(std::move(r));
  }
  auto left = engine.MakeTable(left_rows, 4);
  auto right = engine.MakeTable(right_rows, 4);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());

  for (JoinStrategy strategy :
       {JoinStrategy::kShuffleHash, JoinStrategy::kBroadcast}) {
    auto joined = engine.Join(*left, *right, strategy, 4);
    ASSERT_TRUE(joined.ok()) << JoinStrategyToString(strategy);
    auto rows = engine.Collect(*joined);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 30u) << JoinStrategyToString(strategy);
    std::sort(rows->begin(), rows->end(),
              [](const Record& a, const Record& b) { return a.id < b.id; });
    EXPECT_EQ(rows->front().id, 30);
    EXPECT_EQ(rows->back().id, 59);
    // Merge keeps left fields first, then right.
    EXPECT_FLOAT_EQ(rows->front().struct_features[0], 30.0f);
    EXPECT_FLOAT_EQ(rows->front().struct_features.back(), -30.0f);
  }
}

TEST(EngineTest, JoinMergesImageAndFeatures) {
  Engine engine(SmallEngineConfig());
  std::vector<Record> str_rows = MakeRecords(10);
  std::vector<Record> img_rows;
  for (int i = 0; i < 10; ++i) {
    Record r;
    r.id = i;
    Rng rng(i);
    r.set_image(Tensor::RandomGaussian(Shape{1, 2, 2}, &rng));
    r.features.Append(Tensor(Shape{4}));
    img_rows.push_back(std::move(r));
  }
  auto str = engine.MakeTable(str_rows, 2);
  auto img = engine.MakeTable(img_rows, 2);
  auto joined = engine.Join(*str, *img, JoinStrategy::kShuffleHash, 2);
  ASSERT_TRUE(joined.ok());
  auto rows = engine.Collect(*joined);
  ASSERT_TRUE(rows.ok());
  for (const Record& r : *rows) {
    EXPECT_TRUE(r.has_image());
    EXPECT_EQ(r.features.size(), 1);
    EXPECT_EQ(r.struct_features.size(), 2u);
  }
}

TEST(EngineTest, BroadcastJoinChargesCoreMemory) {
  EngineConfig config = SmallEngineConfig();
  // Core fits one side's records once. The broadcast charges the smaller
  // side once per worker (total x num_workers), which does not fit. The
  // shuffle join charges each bucket's smaller side while it builds, and
  // however many buckets build at the same time, their smaller sides sum
  // to at most one side's total, which does.
  int64_t side_bytes = 0;
  for (const Record& r : MakeRecords(50)) side_bytes += EstimateRecordBytes(r);
  config.budgets.core = side_bytes;
  ASSERT_LT(config.budgets.core, side_bytes * config.num_workers);
  Engine engine(config);
  auto left = engine.MakeTable(MakeRecords(50), 4);
  auto right = engine.MakeTable(MakeRecords(50), 4);
  auto joined = engine.Join(*left, *right, JoinStrategy::kBroadcast, 4);
  EXPECT_TRUE(joined.status().IsResourceExhausted());
  // Shuffle join splits the build side per bucket and fits.
  auto shuffled = engine.Join(*left, *right, JoinStrategy::kShuffleHash, 4);
  EXPECT_TRUE(shuffled.ok());
}

TEST(EngineTest, CollectEnforcesDriverMemory) {
  Engine engine(SmallEngineConfig());
  auto table = engine.MakeTable(MakeRecords(100, 2), 4);
  ASSERT_TRUE(table.ok());
  auto too_small = engine.Collect(*table, 100);
  EXPECT_TRUE(too_small.status().IsResourceExhausted());
  auto fine = engine.Collect(*table, int64_t{1} << 40);
  EXPECT_TRUE(fine.ok());
}

TEST(EngineTest, PersistWithSpillsStaysReadable) {
  EngineConfig config = SmallEngineConfig();
  config.budgets.storage = 20000;
  Engine engine(config);
  auto table = engine.MakeTable(MakeRecords(200, 4, 0.8), 10);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      engine.Persist(&*table, PersistenceFormat::kDeserialized).ok());
  EXPECT_GT(engine.stats().num_spills, 0);
  auto rows = engine.Collect(*table);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 200u);
  EXPECT_GT(engine.stats().spill_bytes_read, 0);
  engine.Unpersist(&*table);
}

TEST(EngineTest, MemoryOnlyPersistCrashes) {
  EngineConfig config = SmallEngineConfig();
  config.budgets.storage = 5000;
  config.allow_spill = false;
  Engine engine(config);
  auto table = engine.MakeTable(MakeRecords(200, 4, 0.8), 10);
  ASSERT_TRUE(table.ok());
  auto st = engine.Persist(&*table, PersistenceFormat::kDeserialized);
  EXPECT_TRUE(st.IsResourceExhausted());
}

TEST(EngineTest, SerializedPersistenceShrinksSparseTables) {
  Engine engine(SmallEngineConfig());
  auto t1 = engine.MakeTable(MakeRecords(100, 4, 0.05), 4);
  auto t2 = engine.MakeTable(MakeRecords(100, 4, 0.05), 4);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(engine.Persist(&*t1, PersistenceFormat::kDeserialized).ok());
  ASSERT_TRUE(engine.Persist(&*t2, PersistenceFormat::kSerialized).ok());
  EXPECT_LT(t2->memory_bytes(), t1->memory_bytes() / 2);
}

TEST(EngineTest, ShuffleJoinCountsShuffledBytes) {
  Engine engine(SmallEngineConfig());
  auto left = engine.MakeTable(MakeRecords(50), 4);
  auto right = engine.MakeTable(MakeRecords(50), 4);
  ASSERT_TRUE(
      engine.Join(*left, *right, JoinStrategy::kShuffleHash, 4).ok());
  EXPECT_GT(engine.stats().shuffle_bytes, 0);
  EXPECT_EQ(engine.stats().broadcast_bytes, 0);
}


TEST(EngineTest, FilterKeepsMatchingRecords) {
  Engine engine(SmallEngineConfig());
  auto table = engine.MakeTable(MakeRecords(100), 4);
  ASSERT_TRUE(table.ok());
  auto even = engine.Filter(
      *table, [](const Record& r) { return r.id % 2 == 0; });
  ASSERT_TRUE(even.ok());
  EXPECT_EQ(even->num_records(), 50);
  auto rows = engine.Collect(*even).value();
  for (const Record& r : rows) EXPECT_EQ(r.id % 2, 0);
}

TEST(EngineTest, UnionConcatenatesTables) {
  Engine engine(SmallEngineConfig());
  auto a = engine.MakeTable(MakeRecords(30), 4).value();
  std::vector<Record> more;
  for (int i = 100; i < 120; ++i) {
    Record r;
    r.id = i;
    more.push_back(std::move(r));
  }
  auto b = engine.MakeTable(more, 4).value();
  auto merged = engine.Union(a, b);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_records(), 50);
  // Mismatched partitioning is rejected.
  auto c = engine.MakeTable(MakeRecords(10), 2).value();
  EXPECT_FALSE(engine.Union(a, c).ok());
}

TEST(EngineTest, SampleIsDeterministicPerId) {
  Engine engine(SmallEngineConfig());
  auto table = engine.MakeTable(MakeRecords(2000), 8).value();
  auto s1 = engine.Sample(table, 0.3, 5).value();
  auto s2 = engine.Sample(table, 0.3, 5).value();
  EXPECT_EQ(s1.num_records(), s2.num_records());
  EXPECT_NEAR(s1.num_records() / 2000.0, 0.3, 0.05);
  // Different seed draws a different subset.
  auto s3 = engine.Sample(table, 0.3, 6).value();
  EXPECT_NE(s1.num_records(), 0);
  // Bad fraction rejected.
  EXPECT_FALSE(engine.Sample(table, 1.5).ok());
  (void)s3;
}

TEST(EngineTest, RepartitionPreservesRecords) {
  Engine engine(SmallEngineConfig());
  auto table = engine.MakeTable(MakeRecords(77), 3);
  ASSERT_TRUE(table.ok());
  auto repartitioned = engine.Repartition(*table, 11);
  ASSERT_TRUE(repartitioned.ok());
  EXPECT_EQ(repartitioned->num_partitions(), 11);
  EXPECT_EQ(repartitioned->num_records(), 77);
}

}  // namespace
}  // namespace vista::df
