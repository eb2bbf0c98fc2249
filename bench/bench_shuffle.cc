// Data-movement-plane bench: the two-phase parallel shuffle + one-allocation
// record codec against a faithful port of the serial implementation they
// replaced (growing-buffer Put*/per-element sparse Read* codec, global
// shuffle buckets, std::unordered_map join build, synchronous spill writes).
//
// Sections in the JSON report ("extras"):
//   shuffle_join    serial_ms / parallel_ms / speedup on the shuffle-join
//                   stage: serialized input partitions in, serialized
//                   output partitions out. The reference decodes every
//                   blob, buckets by hash, hash-joins, merges, and
//                   re-encodes the joined partitions; the engine's
//                   late-materialization path scans, buckets, and splices
//                   the same bytes without materializing a record
//   serialize       old codec vs one-allocation codec on the join output
//   persist_overlap serialized Persist of the join output through a
//                   storage-constrained engine: async spill queue high-water
//                   mark > 0 proves encode and disk I/O overlapped; the
//                   old encode-then-sync-write time is reported alongside
//   determinism     1 if the engine join is bit-identical at 1 vs N threads
//
// The regression gate tracks the machine-independent ratios (speedup,
// throughput_ratio), not the absolute latencies.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "dataflow/engine.h"
#include "dataflow/spill.h"

namespace vista::bench {
namespace {

using df::Record;
using df::Table;
using vista::Tensor;

// ------------------------------------------------------------------------
// Faithful port of the pre-optimization data plane. The wire format is
// unchanged, so both paths read and produce the same bytes; only the
// mechanics differ (per-element buffer growth, per-element bounds-checked
// sparse reads, one global bucket per destination, unordered_map builds).
namespace reference {

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  const size_t n = out->size();
  out->resize(n + 4);
  std::memcpy(out->data() + n, &v, 4);
}

void PutI64(int64_t v, std::vector<uint8_t>* out) {
  const size_t n = out->size();
  out->resize(n + 8);
  std::memcpy(out->data() + n, &v, 8);
}

void PutF32(float v, std::vector<uint8_t>* out) {
  const size_t n = out->size();
  out->resize(n + 4);
  std::memcpy(out->data() + n, &v, 4);
}

void PutFloats(const float* data, int64_t n, std::vector<uint8_t>* out) {
  if (n <= 0) return;
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(n) * 4);
  std::memcpy(out->data() + at, data, static_cast<size_t>(n) * 4);
}

bool CanRead(const std::vector<uint8_t>& buf, size_t offset, size_t n) {
  return offset + n <= buf.size();
}

Status ReadU32(const std::vector<uint8_t>& buf, size_t* offset, uint32_t* v) {
  if (!CanRead(buf, *offset, 4)) return Status::InvalidArgument("truncated");
  std::memcpy(v, buf.data() + *offset, 4);
  *offset += 4;
  return Status::OK();
}

Status ReadI64(const std::vector<uint8_t>& buf, size_t* offset, int64_t* v) {
  if (!CanRead(buf, *offset, 8)) return Status::InvalidArgument("truncated");
  std::memcpy(v, buf.data() + *offset, 8);
  *offset += 8;
  return Status::OK();
}

Status ReadF32(const std::vector<uint8_t>& buf, size_t* offset, float* v) {
  if (!CanRead(buf, *offset, 4)) return Status::InvalidArgument("truncated");
  std::memcpy(v, buf.data() + *offset, 4);
  *offset += 4;
  return Status::OK();
}

Status ReadFloats(const std::vector<uint8_t>& buf, size_t* offset, int64_t n,
                  float* dst) {
  if (!CanRead(buf, *offset, static_cast<size_t>(n) * 4)) {
    return Status::InvalidArgument("truncated");
  }
  if (n <= 0) return Status::OK();
  std::memcpy(dst, buf.data() + *offset, static_cast<size_t>(n) * 4);
  *offset += static_cast<size_t>(n) * 4;
  return Status::OK();
}

void SerializeTensor(const Tensor& t, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(t.shape().rank()), out);
  for (int i = 0; i < t.shape().rank(); ++i) PutI64(t.shape().dim(i), out);
  const int64_t n = t.num_elements();
  const float* data = t.data();
  int64_t nnz = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (data[i] != 0.0f) ++nnz;
  }
  if (nnz * 2 < n) {
    out->push_back(1);
    PutI64(nnz, out);
    for (int64_t i = 0; i < n; ++i) {
      if (data[i] != 0.0f) {
        PutU32(static_cast<uint32_t>(i), out);
        PutF32(data[i], out);
      }
    }
  } else {
    out->push_back(0);
    PutFloats(data, n, out);
  }
}

Result<Tensor> DeserializeTensor(const std::vector<uint8_t>& buf,
                                 size_t* offset) {
  uint32_t rank = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buf, offset, &rank));
  std::vector<int64_t> dims(rank);
  for (uint32_t i = 0; i < rank; ++i) {
    VISTA_RETURN_IF_ERROR(ReadI64(buf, offset, &dims[i]));
  }
  Shape shape(std::move(dims));
  if (!CanRead(buf, *offset, 1)) return Status::InvalidArgument("truncated");
  const uint8_t encoding = buf[(*offset)++];
  Tensor t(shape);
  if (encoding == 0) {
    VISTA_RETURN_IF_ERROR(
        ReadFloats(buf, offset, t.num_elements(), t.mutable_data()));
  } else {
    int64_t nnz = 0;
    VISTA_RETURN_IF_ERROR(ReadI64(buf, offset, &nnz));
    for (int64_t i = 0; i < nnz; ++i) {
      uint32_t idx = 0;
      float v = 0;
      VISTA_RETURN_IF_ERROR(ReadU32(buf, offset, &idx));
      VISTA_RETURN_IF_ERROR(ReadF32(buf, offset, &v));
      t.mutable_data()[idx] = v;
    }
  }
  return t;
}

void SerializeRecord(const Record& record, std::vector<uint8_t>* out) {
  PutI64(record.id, out);
  PutU32(static_cast<uint32_t>(record.struct_features.size()), out);
  PutFloats(record.struct_features.data(),
            static_cast<int64_t>(record.struct_features.size()), out);
  PutU32(static_cast<uint32_t>(record.images.size()), out);
  for (const Tensor& img : record.images) SerializeTensor(img, out);
  PutU32(static_cast<uint32_t>(record.features.size()), out);
  for (const Tensor& t : record.features.tensors()) SerializeTensor(t, out);
}

Result<Record> DeserializeRecord(const std::vector<uint8_t>& buffer,
                                 size_t* offset) {
  Record record;
  VISTA_RETURN_IF_ERROR(ReadI64(buffer, offset, &record.id));
  uint32_t n_struct = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &n_struct));
  record.struct_features.resize(n_struct);
  VISTA_RETURN_IF_ERROR(
      ReadFloats(buffer, offset, n_struct, record.struct_features.data()));
  uint32_t n_images = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &n_images));
  for (uint32_t i = 0; i < n_images; ++i) {
    VISTA_ASSIGN_OR_RETURN(Tensor img, DeserializeTensor(buffer, offset));
    record.images.push_back(std::move(img));
  }
  uint32_t n_tensors = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &n_tensors));
  for (uint32_t i = 0; i < n_tensors; ++i) {
    VISTA_ASSIGN_OR_RETURN(Tensor t, DeserializeTensor(buffer, offset));
    record.features.Append(std::move(t));
  }
  return record;
}

/// The old serial shuffle-join stage, serialized partitions in and
/// serialized partitions out (the state the next pipeline stage — persist
/// or wire transfer — consumes, and what the engine's zero-decode path
/// produces directly): decode every blob with the per-element codec, meter
/// the shuffle traffic record-by-record, funnel records into one global
/// bucket per output partition, unordered_map-join each bucket pair, and
/// re-encode each joined partition with the growing-buffer codec. Returns
/// the number of joined records (for cross-checking against the engine)
/// and accumulates the encoded output size into `*out_bytes`.
Result<int64_t> ShuffleJoinStage(
    const std::vector<std::vector<uint8_t>>& left_blobs,
    const std::vector<std::vector<uint8_t>>& right_blobs, int np,
    int64_t* out_bytes) {
  std::vector<std::vector<Record>> left_buckets(np);
  std::vector<std::vector<Record>> right_buckets(np);
  int64_t shuffle_bytes = 0;
  for (const auto& blob : left_blobs) {
    size_t offset = 0;
    while (offset < blob.size()) {
      VISTA_ASSIGN_OR_RETURN(Record r,
                             reference::DeserializeRecord(blob, &offset));
      shuffle_bytes += df::EstimateRecordBytes(r);
      left_buckets[df::ShuffleHashId(r.id) % np].push_back(std::move(r));
    }
  }
  for (const auto& blob : right_blobs) {
    size_t offset = 0;
    while (offset < blob.size()) {
      VISTA_ASSIGN_OR_RETURN(Record r,
                             reference::DeserializeRecord(blob, &offset));
      shuffle_bytes += df::EstimateRecordBytes(r);
      right_buckets[df::ShuffleHashId(r.id) % np].push_back(std::move(r));
    }
  }
  (void)shuffle_bytes;

  int64_t joined_total = 0;
  for (int i = 0; i < np; ++i) {
    std::vector<Record>& build =
        right_buckets[i].size() <= left_buckets[i].size() ? right_buckets[i]
                                                          : left_buckets[i];
    std::vector<Record>& probe =
        right_buckets[i].size() <= left_buckets[i].size() ? left_buckets[i]
                                                          : right_buckets[i];
    const bool build_is_right = &build == &right_buckets[i];
    std::unordered_map<int64_t, const Record*> hash_table;
    hash_table.reserve(build.size());
    for (const Record& r : build) hash_table.emplace(r.id, &r);
    std::vector<Record> joined;
    for (const Record& p : probe) {
      auto it = hash_table.find(p.id);
      if (it != hash_table.end()) {
        joined.push_back(build_is_right ? df::MergeRecords(p, *it->second)
                                        : df::MergeRecords(*it->second, p));
      }
    }
    std::vector<uint8_t> blob;
    for (const Record& r : joined) reference::SerializeRecord(r, &blob);
    *out_bytes += static_cast<int64_t>(blob.size());
    joined_total += static_cast<int64_t>(joined.size());
  }
  return joined_total;
}

/// The old persist path: old-codec-encode each output partition into a
/// growing buffer and write it to disk synchronously, one partition at a
/// time. Nothing overlaps.
Status PersistSync(const std::vector<std::vector<Record>>& partitions,
                   const std::string& spill_dir) {
  obs::Registry metrics;  // Outlives the manager, which reports into it.
  df::SpillManager spill(spill_dir, metrics);
  for (size_t i = 0; i < partitions.size(); ++i) {
    std::vector<uint8_t> blob;
    for (const Record& r : partitions[i]) {
      reference::SerializeRecord(r, &blob);
    }
    VISTA_RETURN_IF_ERROR(spill.Write(static_cast<int64_t>(i), blob));
  }
  return Status::OK();
}

}  // namespace reference

// ------------------------------------------------------------------------

/// Left side: image-bearing records (3x16x16 raw image + 2 struct fields).
std::vector<Record> MakeLeftRecords(int n) {
  Rng rng(41);
  std::vector<Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(i), 1.0f};
    r.set_image(Tensor::RandomGaussian(Shape{3, 16, 16}, &rng));
    records.push_back(std::move(r));
  }
  return records;
}

/// Right side: two wide ~25%-dense CNN-feature vectors per record, the
/// shape of the paper's materialized convolutional layers (sparse after
/// ReLU, one tensor per materialized layer).
std::vector<Record> MakeRightRecords(int n, int64_t dim, int tensors) {
  Rng rng(42);
  std::vector<Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    Record r;
    r.id = i;
    for (int k = 0; k < tensors; ++k) {
      Tensor t(Shape{dim});
      for (int64_t j = 0; j < dim; ++j) {
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

std::vector<std::vector<uint8_t>> PartitionBlobs(const Table& table) {
  std::vector<std::vector<uint8_t>> blobs;
  for (const auto& p : table.partitions) {
    auto blob = p->ToBlob();
    if (blob.ok()) blobs.push_back(std::move(blob).value());
  }
  return blobs;
}

struct EngineRun {
  double join_ms = 0;
  int64_t joined_records = 0;
  std::vector<std::vector<uint8_t>> output_blobs;
  Status status;
};

/// Builds a fresh engine with unconstrained budgets, persists the inputs
/// serialized (untimed), then times the shuffle-hash Join alone — the same
/// stage the serial reference performs.
EngineRun RunEngineJoin(int threads, int src_parts, int np,
                        const std::vector<Record>& left_records,
                        const std::vector<Record>& right_records) {
  EngineRun run;
  df::EngineConfig config;
  config.num_workers = 1;
  config.cpus_per_worker = threads;
  df::Engine engine(config);
  auto left = engine.MakeTable(left_records, src_parts);
  auto right = engine.MakeTable(right_records, src_parts);
  if (!left.ok() || !right.ok()) {
    run.status = left.ok() ? right.status() : left.status();
    return run;
  }
  run.status = engine.Persist(&*left, df::PersistenceFormat::kSerialized);
  if (run.status.ok()) {
    run.status = engine.Persist(&*right, df::PersistenceFormat::kSerialized);
  }
  if (!run.status.ok()) return run;

  Stopwatch timer;
  auto joined = engine.Join(*left, *right, df::JoinStrategy::kShuffleHash, np);
  run.join_ms = timer.ElapsedSeconds() * 1e3;
  if (!joined.ok()) {
    run.status = joined.status();
    return run;
  }
  run.joined_records = joined->num_records();
  run.output_blobs = PartitionBlobs(*joined);
  return run;
}

int Main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const std::string out =
      FlagValue(argc, argv, "--out",
                smoke ? "BENCH_smoke_shuffle.json" : "BENCH_shuffle.json");
  Banner("shuffle", "parallel data-movement plane vs serial reference");
  BenchReporter reporter(
      "shuffle",
      "two-phase shuffle-join + one-allocation codec + async spill writer "
      "vs the serial gather / growing-buffer codec / sync-write reference");

  const int n = smoke ? 4096 : 8192;
  const int64_t feature_dim =
      std::atol(FlagValue(argc, argv, "--dim", "2048").c_str());
  const int feature_tensors =
      std::atoi(FlagValue(argc, argv, "--tensors", "2").c_str());
  const int src_parts = 8;
  const int np = 16;
  const int threads = 8;
  const int reps = smoke ? 3 : 5;

  std::printf("building %d image records + %d records with %dx %ld-dim "
              "sparse features...\n",
              n, n, feature_tensors, static_cast<long>(feature_dim));
  const std::vector<Record> left_records = MakeLeftRecords(n);
  const std::vector<Record> right_records =
      MakeRightRecords(n, feature_dim, feature_tensors);

  // Pre-partitioned serialized inputs for the reference path (same
  // bucketing the engine's MakeTable applies).
  std::vector<std::vector<uint8_t>> left_blobs, right_blobs;
  {
    df::EngineConfig setup_config;
    df::Engine setup(setup_config);
    auto l = setup.MakeTable(left_records, src_parts);
    auto r = setup.MakeTable(right_records, src_parts);
    if (!l.ok() || !r.ok()) {
      std::fprintf(stderr, "setup failed\n");
      return 1;
    }
    left_blobs = PartitionBlobs(*l);
    right_blobs = PartitionBlobs(*r);
  }

  // --- Serial reference shuffle-join stage (best of `reps`).
  double serial_ms = 0;
  int64_t serial_joined = 0;
  int64_t serial_out_bytes = 0;
  for (int rep = 0; rep < reps; ++rep) {
    serial_out_bytes = 0;
    Stopwatch timer;
    auto joined = reference::ShuffleJoinStage(left_blobs, right_blobs, np,
                                              &serial_out_bytes);
    const double ms = timer.ElapsedSeconds() * 1e3;
    if (!joined.ok()) {
      std::fprintf(stderr, "reference join failed: %s\n",
                   joined.status().ToString().c_str());
      return 1;
    }
    serial_joined = *joined;
    serial_ms = rep == 0 ? ms : std::min(serial_ms, ms);
  }

  // --- Engine shuffle-join at `threads` threads (best of `reps`).
  EngineRun best;
  for (int rep = 0; rep < reps; ++rep) {
    EngineRun run =
        RunEngineJoin(threads, src_parts, np, left_records, right_records);
    if (!run.status.ok()) {
      std::fprintf(stderr, "engine join failed: %s\n",
                   run.status.ToString().c_str());
      return 1;
    }
    if (rep == 0 || run.join_ms < best.join_ms) {
      best = std::move(run);
    }
  }
  const double speedup = serial_ms / best.join_ms;
  std::printf(
      "shuffle-join of %d records -> %d partitions: serial %.1f ms, "
      "engine(%d threads) %.1f ms (%.2fx), joined %ld == %ld\n",
      2 * n, np, serial_ms, threads, best.join_ms, speedup,
      static_cast<long>(serial_joined),
      static_cast<long>(best.joined_records));
  if (serial_joined != best.joined_records) {
    std::fprintf(stderr, "joined record counts diverge\n");
    return 1;
  }
  // Both paths end serialized: the reference's re-encoded output must be
  // byte-for-byte the same size as the engine's spliced partitions.
  int64_t engine_out_bytes = 0;
  for (const auto& blob : best.output_blobs) {
    engine_out_bytes += static_cast<int64_t>(blob.size());
  }
  if (serial_out_bytes != engine_out_bytes) {
    std::fprintf(stderr, "serialized output sizes diverge: %ld vs %ld\n",
                 static_cast<long>(serial_out_bytes),
                 static_cast<long>(engine_out_bytes));
    return 1;
  }

  obs::Json join_section = obs::Json::Object();
  join_section.Set("records", obs::Json::Int(2 * n));
  join_section.Set("threads", obs::Json::Int(threads));
  join_section.Set("output_partitions", obs::Json::Int(np));
  join_section.Set("serial_ms", obs::Json::Num(serial_ms));
  join_section.Set("parallel_ms", obs::Json::Num(best.join_ms));
  join_section.Set("speedup", obs::Json::Num(speedup));
  reporter.AddSection("shuffle_join", std::move(join_section));

  // Decode the join output once (untimed) — it feeds the persist and
  // serialize sections below.
  std::vector<std::vector<Record>> output_parts;
  std::vector<Record> output_records;
  int64_t output_wire_bytes = 0;
  for (const auto& blob : best.output_blobs) {
    std::vector<Record> part;
    size_t offset = 0;
    while (offset < blob.size()) {
      auto r = df::DeserializeRecord(blob, &offset);
      if (!r.ok()) {
        std::fprintf(stderr, "output decode failed\n");
        return 1;
      }
      output_wire_bytes += df::SerializedRecordBytes(*r);
      output_records.push_back(*r);
      part.push_back(std::move(r).value());
    }
    output_parts.push_back(std::move(part));
  }

  // --- Serialized Persist of the join output through a storage-constrained
  // engine: most partitions must evict through the async spill writer, so a
  // non-zero queue high-water mark proves encode and disk write overlapped.
  // The old encode-everything-then-sync-write path runs for comparison.
  {
    double sync_ms = 0, async_ms = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch timer;
      Status st =
          reference::PersistSync(output_parts, "/tmp/vista_bench_shuffle_ref");
      const double ms = timer.ElapsedSeconds() * 1e3;
      if (!st.ok()) {
        std::fprintf(stderr, "reference persist failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      sync_ms = rep == 0 ? ms : std::min(sync_ms, ms);
    }

    df::EngineStats persist_stats;
    for (int rep = 0; rep < reps; ++rep) {
      df::EngineConfig config;
      config.num_workers = 1;
      config.cpus_per_worker = threads;
      // Room for ~1/4 of the output: the rest streams through the writer.
      config.budgets.storage = output_wire_bytes / 4;
      df::Engine engine(config);
      auto table = engine.MakeTable(output_records, np);
      if (!table.ok()) {
        std::fprintf(stderr, "persist setup failed\n");
        return 1;
      }
      Stopwatch timer;
      Status st = engine.Persist(&*table, df::PersistenceFormat::kSerialized);
      const double ms = timer.ElapsedSeconds() * 1e3;
      if (!st.ok()) {
        std::fprintf(stderr, "engine persist failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      if (rep == 0 || ms < async_ms) {
        async_ms = ms;
        persist_stats = engine.stats();
      }
    }
    std::printf(
        "persist of %zu output records: sync reference %.1f ms, async "
        "engine %.1f ms; spill queue depth peak %ld, %ld spills, %.1f MiB\n",
        output_records.size(), sync_ms, async_ms,
        static_cast<long>(persist_stats.spill_queue_depth_peak),
        static_cast<long>(persist_stats.num_spills),
        persist_stats.spill_bytes_written / (1024.0 * 1024.0));
    obs::Json overlap = obs::Json::Object();
    overlap.Set("records",
                obs::Json::Int(static_cast<int64_t>(output_records.size())));
    overlap.Set("sync_reference_ms", obs::Json::Num(sync_ms));
    overlap.Set("async_persist_ms", obs::Json::Num(async_ms));
    overlap.Set("queue_depth_peak",
                obs::Json::Int(persist_stats.spill_queue_depth_peak));
    overlap.Set("spill_bytes_written",
                obs::Json::Int(persist_stats.spill_bytes_written));
    overlap.Set("num_spills", obs::Json::Int(persist_stats.num_spills));
    reporter.AddSection("persist_overlap", std::move(overlap));
  }

  // --- Codec microbench on the joined output records (image + wide sparse
  // tensors per record): growing-buffer reference vs one-allocation codec.
  // Both reuse the buffer across reps so steady-state cost is measured.
  {
    const size_t sample_size = std::min<size_t>(output_records.size(), 1024);
    std::vector<Record> sample(output_records.begin(),
                               output_records.begin() + sample_size);
    double naive_ms = 0, optimized_ms = 0;
    std::vector<uint8_t> buf;
    for (int rep = 0; rep < 3; ++rep) {
      buf.clear();
      Stopwatch timer;
      for (const Record& r : sample) reference::SerializeRecord(r, &buf);
      const double ms = timer.ElapsedSeconds() * 1e3;
      naive_ms = rep == 0 ? ms : std::min(naive_ms, ms);
    }
    for (int rep = 0; rep < 3; ++rep) {
      buf.clear();
      Stopwatch timer;
      for (const Record& r : sample) df::SerializeRecord(r, &buf);
      const double ms = timer.ElapsedSeconds() * 1e3;
      optimized_ms = rep == 0 ? ms : std::min(optimized_ms, ms);
    }
    const double ratio = naive_ms / optimized_ms;
    std::printf("serialize %zu output records: old codec %.2f ms, "
                "one-allocation codec %.2f ms (%.2fx)\n",
                sample.size(), naive_ms, optimized_ms, ratio);
    obs::Json codec = obs::Json::Object();
    codec.Set("records", obs::Json::Int(static_cast<int64_t>(sample.size())));
    codec.Set("naive_ms", obs::Json::Num(naive_ms));
    codec.Set("optimized_ms", obs::Json::Num(optimized_ms));
    codec.Set("throughput_ratio", obs::Json::Num(ratio));
    reporter.AddSection("serialize", std::move(codec));
  }

  // --- Determinism: the parallel shuffle must be bit-identical to the
  // 1-thread run.
  {
    EngineRun serial_run =
        RunEngineJoin(1, src_parts, np, left_records, right_records);
    const bool identical = serial_run.status.ok() &&
                           serial_run.output_blobs == best.output_blobs;
    std::printf("determinism: 1-thread vs %d-thread outputs %s\n", threads,
                identical ? "bit-identical" : "DIVERGE");
    obs::Json det = obs::Json::Object();
    det.Set("bit_identical", obs::Json::Int(identical ? 1 : 0));
    reporter.AddSection("determinism", std::move(det));
    if (!identical) return 1;
  }

  Status st = reporter.Write(out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace vista::bench

int main(int argc, char** argv) { return vista::bench::Main(argc, argv); }
