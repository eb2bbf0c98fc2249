#include "vista/real_executor.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "common/stopwatch.h"
#include "features/synthetic.h"
#include "obs/export.h"
#include "tensor/ops.h"
#include "vista/estimator.h"

namespace vista {

namespace {

/// FLOPs of partial inference (from_layer, to_layer] for one record.
int64_t RangeFlops(const dl::CnnArchitecture& arch, int from_layer,
                   int to_layer) {
  const int64_t upto = arch.layer(to_layer).cumulative_flops;
  const int64_t before =
      from_layer < 0 ? 0 : arch.layer(from_layer).cumulative_flops;
  return upto - before;
}

/// Ops of (from_layer, to_layer] that run on the quantized int8 kernel for
/// one record (the conv/fc subset of RangeFlops).
int64_t RangeInt8Ops(const dl::CnnModel& model, int from_layer,
                     int to_layer) {
  int64_t ops = 0;
  for (int l = std::max(from_layer, -1) + 1; l <= to_layer; ++l) {
    ops += model.layer_int8_ops(l);
  }
  return ops;
}

}  // namespace

Status RealExecutorConfig::Validate() const {
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1, got " +
                                   std::to_string(num_partitions));
  }
  if (pooling_grid < 1) {
    return Status::InvalidArgument("pooling_grid must be >= 1, got " +
                                   std::to_string(pooling_grid));
  }
  if (!(test_fraction >= 0.0 && test_fraction < 1.0)) {
    return Status::InvalidArgument(
        "test_fraction must be in [0, 1), got " +
        std::to_string(test_fraction));
  }
  if (driver_memory_bytes < -1) {
    return Status::InvalidArgument(
        "driver_memory_bytes must be -1 (unlimited) or >= 0");
  }
  const int join_raw = static_cast<int>(join);
  if (join_raw < static_cast<int>(df::JoinStrategy::kShuffleHash) ||
      join_raw > static_cast<int>(df::JoinStrategy::kBroadcast)) {
    return Status::InvalidArgument("join strategy out of range");
  }
  const int fmt_raw = static_cast<int>(persistence);
  if (fmt_raw < static_cast<int>(df::PersistenceFormat::kDeserialized) ||
      fmt_raw > static_cast<int>(df::PersistenceFormat::kSerialized)) {
    return Status::InvalidArgument("persistence format out of range");
  }
  const int prec_raw = static_cast<int>(precision);
  if (prec_raw < static_cast<int>(dl::Precision::kFp32) ||
      prec_raw > static_cast<int>(dl::Precision::kInt8)) {
    return Status::InvalidArgument("precision out of range");
  }
  if (prefetch_depth < -1 || prefetch_depth > 64) {
    return Status::InvalidArgument(
        "prefetch_depth must be -1 (compute-aware), 0 (off) or a fixed "
        "depth <= 64, got " +
        std::to_string(prefetch_depth));
  }
  if (train_models) {
    if (lr.iterations < 0 || mlp.iterations < 0) {
      return Status::InvalidArgument("training iterations must be >= 0");
    }
    if (lr.learning_rate <= 0.0 || mlp.learning_rate <= 0.0) {
      return Status::InvalidArgument("learning rates must be > 0");
    }
    if (lr.reg_lambda < 0.0) {
      return Status::InvalidArgument("lr.reg_lambda must be >= 0");
    }
    if (lr.elastic_net_alpha < 0.0 || lr.elastic_net_alpha > 1.0) {
      return Status::InvalidArgument(
          "lr.elastic_net_alpha must be in [0, 1]");
    }
    for (int64_t width : mlp.hidden_sizes) {
      if (width < 1) {
        return Status::InvalidArgument("mlp hidden sizes must be >= 1");
      }
    }
    if (tree.max_depth < 1 || tree.min_samples_leaf < 1 ||
        tree.num_thresholds < 1) {
      return Status::InvalidArgument(
          "decision tree config values must be >= 1");
    }
  }
  return Status::OK();
}

Status RealExecutorConfig::Validate(const dl::CnnModel* model) const {
  VISTA_RETURN_IF_ERROR(Validate());
  if (precision == dl::Precision::kInt8 && model != nullptr &&
      !model->has_int8_calibration()) {
    return Status::InvalidArgument(
        "int8 precision configured but model '" + model->arch().name() +
        "' has no int8 calibration — run CnnModel::CalibrateInt8 on a "
        "sample batch before executing int8 plans");
  }
  return Status::OK();
}

ml::FeatureExtractor MakeTransferExtractor(int feature_slot,
                                           int pooling_grid) {
  return [feature_slot, pooling_grid](const df::Record& r,
                                      std::vector<float>* x,
                                      float* label) -> Status {
    if (r.struct_features.empty()) {
      return Status::InvalidArgument("record has no structured features");
    }
    *label = r.struct_features[0];
    x->clear();
    x->insert(x->end(), r.struct_features.begin() + 1,
              r.struct_features.end());
    if (feature_slot >= 0) {
      if (feature_slot >= r.features.size()) {
        return Status::InvalidArgument(
            "record has no feature tensor in slot " +
            std::to_string(feature_slot));
      }
      VISTA_ASSIGN_OR_RETURN(
          Tensor g,
          dl::TransferFeaturize(r.features.at(feature_slot), pooling_grid));
      x->insert(x->end(), g.data(), g.data() + g.num_elements());
    }
    return Status::OK();
  };
}

int ChoosePrefetchDepth(int64_t partition_flops, int64_t partition_bytes,
                        int64_t storage_headroom_bytes, int max_depth) {
  if (max_depth < 1) return 0;
  if (partition_bytes <= 0) partition_bytes = 1;
  const int64_t intensity = partition_flops / partition_bytes;
  int depth = intensity >= 512 ? 4 : intensity >= 64 ? 2 : 1;
  // Never buffer past the Storage region's current headroom — but never
  // below 1 either: one read-ahead block is the same transient footprint
  // the synchronous read path already takes.
  if (storage_headroom_bytes >= 0) {
    const int64_t fit = storage_headroom_bytes / partition_bytes;
    depth = static_cast<int>(
        std::max<int64_t>(1, std::min<int64_t>(depth, fit)));
  }
  return std::min(depth, max_depth);
}

RealExecutor::RealExecutor(df::Engine* engine, const dl::CnnModel* model)
    : engine_(engine), model_(model) {}

Result<df::Table> RealExecutor::RunInference(const PlanStep& step,
                                             const df::Table& input,
                                             const RealExecutorConfig& config,
                                             int64_t* flops,
                                             int64_t* int8_ops) {
  const dl::CnnArchitecture& arch = model_->arch();
  const int source_layer = step.source_layer;
  const int source_slot = step.source_slot;
  const std::vector<int>& produce = step.produce_layers;
  if (produce.empty()) {
    return Status::InvalidArgument("inference step produces no layers");
  }

  // FLOP accounting (per record) for the whole chain, skipping the
  // pass-through case where the first produced layer is the source itself.
  int64_t per_record_flops = 0;
  if (!(produce.size() == 1 && produce[0] == source_layer)) {
    per_record_flops =
        RangeFlops(arch, std::max(source_layer, -1), produce.back());
    if (config.precision == dl::Precision::kInt8) {
      *int8_ops += RangeInt8Ops(*model_, source_layer, produce.back()) *
                   input.num_records();
    }
  }
  *flops += per_record_flops * input.num_records();

  // Inference threading: the engine already runs partitions in parallel;
  // within a partition the pool runs one task per image (a one-image
  // partition spends it inside the kernels). ParallelFor is
  // caller-inclusive, so this nesting cannot deadlock.
  dl::CnnOptions opts;
  opts.pool = engine_->pool();
  opts.precision = config.precision;

  df::MemoryManager& memory = engine_->memory();

  // Read-ahead distance for this step. Fixed depths pass straight through;
  // compute-aware mode (-1) sizes the distance from this layer range's
  // arithmetic intensity — the same per-layer FLOP figures the "dl.flops.*"
  // counters meter — over the bytes a spilled partition would have to come
  // back as, clamped by current Storage headroom so the read-ahead never
  // out-buffers the MemoryManager budget.
  int depth = config.prefetch_depth;
  if (depth < 0) {
    const int np = std::max(input.num_partitions(), 1);
    const int64_t partition_flops =
        per_record_flops * input.num_records() / np;
    int64_t partition_bytes = input.memory_bytes() / np;
    if (partition_bytes <= 0) {
      // Everything already spilled (resident footprint ~0): estimate from
      // the source representation's per-record tensor size.
      const int64_t per_record_bytes =
          source_layer < 0
              ? arch.input_shape().num_bytes()
              : arch.layer(source_layer).output_shape.num_bytes();
      partition_bytes =
          std::max<int64_t>(1, per_record_bytes * input.num_records() / np);
    }
    int64_t headroom = memory.Available(df::MemoryRegion::kStorage);
    if (headroom != INT64_MAX) {
      // The GEMM kernels' per-thread scratch (packed panels, and the FC
      // layers' stacked batch — Eq. 16 Temp) is real memory the Storage
      // region cannot use while this hop's layers run; subtract it so
      // read-ahead depth reflects the headroom the kernels actually leave
      // free. An FC layer's scratch grows with the partition's batch, up
      // to one kFcBlockColumns block.
      int64_t batch = 1;
      for (const auto& partition : input.partitions) {
        batch = std::max(batch, partition->num_records());
      }
      int64_t conv_temp = 0;
      for (int l = std::max(source_layer + 1, 0); l <= produce.back(); ++l) {
        conv_temp = std::max(conv_temp,
                             ConvTempBytes(arch, l, config.precision, batch));
      }
      headroom = std::max<int64_t>(
          0, headroom - conv_temp * engine_->parallelism());
    }
    depth = ChoosePrefetchDepth(
        partition_flops, partition_bytes,
        headroom == INT64_MAX ? -1 : headroom,
        std::max(engine_->config().prefetch_queue_capacity, 1));
  }
  return engine_->MapPartitions(
      input,
      [&, source_layer, source_slot, produce,
       opts](std::vector<df::Record> records)
          -> Result<std::vector<df::Record>> {
        // Per-partition feature buffer charge against User memory: the
        // produced tensors of every record in the partition are live at
        // once inside the UDF (the paper's crash scenario 2).
        int64_t buffer_bytes = 0;
        for (int l : produce) {
          buffer_bytes +=
              arch.layer(l).output_shape.num_bytes() *
              static_cast<int64_t>(records.size());
        }
        VISTA_RETURN_IF_ERROR(
            memory.TryReserve(df::MemoryRegion::kUser, buffer_bytes));
        auto release = [&memory, buffer_bytes] {
          memory.Release(df::MemoryRegion::kUser, buffer_bytes);
        };

        // Gather every record's in-flight tensors (raw images or the
        // source slot) once; the whole partition then advances together
        // through the layer chain as one batch per hop. Multi-image
        // records: each image flows through the chain independently and
        // per-layer outputs are aggregated element-wise (mean), the
        // multiple-images-per-record extension.
        std::vector<std::vector<Tensor>> currents(records.size());
        std::vector<df::Record> out(records.size());
        for (size_t ri = 0; ri < records.size(); ++ri) {
          df::Record& r = records[ri];
          if (source_slot < 0) {
            if (!r.has_image()) {
              release();
              return Status::InvalidArgument(
                  "inference from raw image but record has no image");
            }
            currents[ri] = r.images;
          } else {
            if (source_slot >= r.features.size()) {
              release();
              return Status::InvalidArgument(
                  "inference source slot missing in record");
            }
            currents[ri] = {r.features.at(source_slot)};
          }
          out[ri].id = r.id;
          out[ri].struct_features = r.struct_features;
        }

        int from = source_layer;
        for (int target : produce) {
          if (target == from) {
            // Pass-through (pre-materialized base layer).
            for (size_t ri = 0; ri < records.size(); ++ri) {
              out[ri].features.Append(currents[ri].front());
            }
            continue;
          }
          std::vector<Tensor> batch;
          for (std::vector<Tensor>& imgs : currents) {
            for (Tensor& t : imgs) batch.push_back(std::move(t));
          }
          auto run = model_->RunRangeBatch(batch, from + 1, target, opts);
          if (!run.ok()) {
            release();
            return run.status();
          }
          std::vector<Tensor> advanced = std::move(run).value();
          size_t at = 0;
          for (size_t ri = 0; ri < records.size(); ++ri) {
            for (Tensor& t : currents[ri]) t = std::move(advanced[at++]);
            Tensor aggregated = currents[ri].front();
            if (currents[ri].size() > 1) {
              aggregated = currents[ri].front().Clone();
              float* acc = aggregated.mutable_data();
              for (size_t i = 1; i < currents[ri].size(); ++i) {
                const float* src = currents[ri][i].data();
                for (int64_t j = 0; j < aggregated.num_elements(); ++j) {
                  acc[j] += src[j];
                }
              }
              const float inv =
                  1.0f / static_cast<float>(currents[ri].size());
              for (int64_t j = 0; j < aggregated.num_elements(); ++j) {
                acc[j] *= inv;
              }
            }
            out[ri].features.Append(aggregated);
          }
          from = target;
        }
        release();
        return out;
      },
      depth);
}

Result<LayerRunResult> RealExecutor::RunTrain(
    const PlanStep& step, const TransferWorkload& workload,
    const df::Table& input, const RealExecutorConfig& config) {
  LayerRunResult result;
  result.layer_index = step.train_layer;
  result.layer_name = model_->arch().layer(step.train_layer).name;
  if (!config.train_models) return result;

  Stopwatch watch;
  const auto extractor =
      MakeTransferExtractor(step.feature_slot, config.pooling_grid);
  const double test_fraction = config.test_fraction;

  // One featurize pass: the deterministic train/test split by id hash
  // routes each record's row to the train or the held-out blocks.
  const auto is_test = [test_fraction](const df::Record& r) {
    return feat::IsTestId(r.id, test_fraction);
  };
  VISTA_ASSIGN_OR_RETURN(ml::DenseSplit split,
                         ml::Featurize(engine_, input, extractor, is_test));

  // Train the configured downstream model and collect test predictions.
  std::function<int(const float*)> predict;
  switch (workload.model) {
    case DownstreamModel::kLogisticRegression: {
      ml::LogisticRegressionConfig lr = config.lr;
      lr.iterations = workload.training_iterations;
      VISTA_ASSIGN_OR_RETURN(
          ml::LogisticRegressionModel model,
          ml::TrainLogisticRegression(engine_, split.train, lr));
      predict = [model = std::move(model)](const float* x) {
        return model.Predict(x);
      };
      break;
    }
    case DownstreamModel::kMlp: {
      ml::MlpConfig mlp = config.mlp;
      mlp.iterations = workload.training_iterations;
      VISTA_ASSIGN_OR_RETURN(ml::MlpModel model,
                             ml::TrainMlp(engine_, split.train, mlp));
      predict = [model = std::move(model)](const float* x) {
        return model.Predict(x);
      };
      break;
    }
    case DownstreamModel::kDecisionTree: {
      VISTA_ASSIGN_OR_RETURN(
          ml::DecisionTreeModel model,
          ml::TrainDecisionTree(split.train, config.tree));
      predict = [model = std::move(model)](const float* x) {
        return model.Predict(x);
      };
      break;
    }
  }

  // Evaluate on the held-out rows: one confusion partial per block, merged
  // in block order.
  const ml::DenseRows& test = split.holdout;
  std::vector<ml::BinaryMetrics> partial(test.num_blocks());
  engine_->pool()->ParallelFor(test.num_blocks(), [&](int64_t b) {
    for (int64_t r = 0; r < test.rows(b); ++r) {
      partial[b].Add(predict(test.x(b, r)), test.label(b, r) > 0.5f ? 1 : 0);
    }
  });
  ml::BinaryMetrics metrics;
  for (const ml::BinaryMetrics& local : partial) {
    metrics.true_positives += local.true_positives;
    metrics.false_positives += local.false_positives;
    metrics.true_negatives += local.true_negatives;
    metrics.false_negatives += local.false_negatives;
  }

  result.train_seconds = watch.ElapsedSeconds();
  result.test_metrics = metrics;
  result.test_f1 = metrics.F1();
  return result;
}

Status RealExecutor::RunSteps(const CompiledPlan& plan,
                              const TransferWorkload& workload,
                              const df::Table& t_str, const df::Table& t_img,
                              const RealExecutorConfig& config,
                              std::map<std::string, TableState>* tables_ptr,
                              RealRunResult* run_ptr) {
  std::map<std::string, TableState>& tables = *tables_ptr;
  RealRunResult& run = *run_ptr;

  // Layer pipeline: while step k runs, hint the engine to read step k+1's
  // spilled input partitions in the background. Only tables that already
  // exist are hinted (the next step's input is often the current step's
  // output, which cannot be read ahead of its own production). Hints are
  // fire-and-forget — results and fault accounting are identical with or
  // without them.
  const auto prefetch_step_inputs = [&](size_t next) {
    if (config.prefetch_depth == 0 || next >= plan.steps.size()) return;
    const PlanStep& n = plan.steps[next];
    for (const std::string* name : {&n.input, &n.input2}) {
      if (name->empty()) continue;
      auto it = tables.find(*name);
      if (it != tables.end()) engine_->PrefetchTable(it->second.table);
    }
  };

  for (size_t si = 0; si < plan.steps.size(); ++si) {
    const PlanStep& step = plan.steps[si];
    prefetch_step_inputs(si + 1);
    switch (step.kind) {
      case PlanStep::Kind::kReadStruct: {
        obs::ScopedSpan span(&engine_->tracer(), "read", "stage");
        tables[step.output] = TableState{t_str, {}, false};
        break;
      }
      case PlanStep::Kind::kReadImages: {
        obs::ScopedSpan span(&engine_->tracer(), "read", "stage");
        TableState state;
        state.table = t_img;
        if (plan.pre_materialized_base) {
          state.slots = {workload.layers.front()};
        }
        tables[step.output] = std::move(state);
        break;
      }
      case PlanStep::Kind::kJoin: {
        auto left = tables.find(step.input);
        auto right = tables.find(step.input2);
        if (left == tables.end() || right == tables.end()) {
          return Status::Internal("join references unknown table");
        }
        obs::ScopedSpan span(&engine_->tracer(), "join", "stage");
        VISTA_ASSIGN_OR_RETURN(
            df::Table joined,
            engine_->Join(left->second.table, right->second.table,
                          config.join, config.num_partitions));
        TableState state;
        state.table = std::move(joined);
        state.slots = right->second.slots;  // Features come from the right.
        tables[step.output] = std::move(state);
        break;
      }
      case PlanStep::Kind::kInference: {
        auto in = tables.find(step.input);
        if (in == tables.end()) {
          return Status::Internal("inference references unknown table");
        }
        obs::ScopedSpan span(&engine_->tracer(), "inference", "stage");
        Stopwatch watch;
        int64_t flops = 0;
        int64_t int8_ops = 0;
        VISTA_ASSIGN_OR_RETURN(
            df::Table produced,
            RunInference(step, in->second.table, config, &flops, &int8_ops));
        run.inference_flops += flops;
        run.inference_int8_ops += int8_ops;
        // Attribute inference time to the layers being produced.
        const double seconds = watch.ElapsedSeconds();
        for (int l : step.produce_layers) {
          bool found = false;
          for (LayerRunResult& lr : run.per_layer) {
            if (lr.layer_index == l) found = true;
          }
          if (!found) {
            LayerRunResult lr;
            lr.layer_index = l;
            lr.layer_name = model_->arch().layer(l).name;
            lr.inference_seconds =
                seconds / static_cast<double>(step.produce_layers.size());
            run.per_layer.push_back(std::move(lr));
          }
        }
        TableState state;
        state.table = std::move(produced);
        state.slots = step.produce_layers;
        tables[step.output] = std::move(state);
        break;
      }
      case PlanStep::Kind::kTrain: {
        auto in = tables.find(step.input);
        if (in == tables.end()) {
          return Status::Internal("train references unknown table");
        }
        obs::ScopedSpan span(&engine_->tracer(), "train", "stage");
        VISTA_ASSIGN_OR_RETURN(
            LayerRunResult lr,
            RunTrain(step, workload, in->second.table, config));
        // Merge with the inference-time entry for this layer.
        bool merged = false;
        for (LayerRunResult& existing : run.per_layer) {
          if (existing.layer_index == lr.layer_index) {
            existing.train_seconds = lr.train_seconds;
            existing.test_metrics = lr.test_metrics;
            existing.test_f1 = lr.test_f1;
            merged = true;
            break;
          }
        }
        if (!merged) run.per_layer.push_back(std::move(lr));
        break;
      }
      case PlanStep::Kind::kPersist: {
        auto in = tables.find(step.input);
        if (in == tables.end()) {
          return Status::Internal("persist references unknown table");
        }
        obs::ScopedSpan span(&engine_->tracer(), "persistence", "stage");
        // Mark before persisting: a Persist that fails partway leaves some
        // partitions in the cache, and RunOnce's cleanup must release them
        // (Unpersist is a no-op for partitions that never made it in).
        in->second.persisted = true;
        VISTA_RETURN_IF_ERROR(
            engine_->Persist(&in->second.table, config.persistence));
        break;
      }
      case PlanStep::Kind::kRelease: {
        auto in = tables.find(step.input);
        if (in == tables.end()) break;
        if (in->second.persisted) {
          engine_->Unpersist(&in->second.table);
        }
        tables.erase(in);
        break;
      }
    }
  }
  return Status::OK();
}

Result<RealRunResult> RealExecutor::RunOnce(const CompiledPlan& plan,
                                            const TransferWorkload& workload,
                                            const df::Table& t_str,
                                            const df::Table& t_img,
                                            const RealExecutorConfig& config) {
  Stopwatch total_watch;
  RealRunResult run;
  std::map<std::string, TableState> tables;
  // Slice this attempt's spans out of the (possibly shared) collector.
  const size_t span_mark = engine_->tracer().size();
  Status st = RunSteps(plan, workload, t_str, t_img, config, &tables, &run);
  // Unpersist whatever the attempt left in managed storage — on failure so
  // a degraded re-run starts from clean Storage memory, on success so
  // back-to-back runs on one engine don't accumulate pressure.
  for (auto& [name, state] : tables) {
    if (state.persisted) engine_->Unpersist(&state.table);
  }
  VISTA_RETURN_IF_ERROR(st);

  // Order per-layer results by layer index for stable reporting.
  std::sort(run.per_layer.begin(), run.per_layer.end(),
            [](const LayerRunResult& a, const LayerRunResult& b) {
              return a.layer_index < b.layer_index;
            });
  run.total_seconds = total_watch.ElapsedSeconds();
  run.spans = engine_->tracer().SpansSince(span_mark);
  run.stage_seconds = obs::AggregateSpanSeconds(run.spans, "stage");
  return run;
}

Result<RealRunResult> RealExecutor::Run(const CompiledPlan& plan,
                                        const TransferWorkload& workload,
                                        const df::Table& t_str,
                                        const df::Table& t_img,
                                        const RealExecutorConfig& config) {
  VISTA_RETURN_IF_ERROR(config.Validate(model_));
  if (plan.precision != config.precision) {
    return Status::InvalidArgument(
        std::string("plan was compiled for ") +
        dl::PrecisionName(plan.precision) +
        " but the executor is configured for " +
        dl::PrecisionName(config.precision) +
        " — recompile the plan or align RealExecutorConfig::precision");
  }
  if (!config.auto_degrade) {
    return RunOnce(plan, workload, t_str, t_img, config);
  }

  // Degradation ladder (Section 4.4 as behavior): after a ResourceExhausted
  // crash, step down to the next-cheaper physical choice and re-run. Every
  // rung trades speed for a strictly smaller memory footprint, and the
  // Staged plan is the paper's most-reliable endpoint, so the ladder either
  // completes or proves that no configuration fits the budgets.
  RealExecutorConfig cfg = config;
  CompiledPlan current = plan;
  std::vector<std::string> degradations;
  for (;;) {
    auto result = RunOnce(current, workload, t_str, t_img, cfg);
    if (result.ok()) {
      result->degradations = degradations;
      return result;
    }
    if (!result.status().IsResourceExhausted()) return result;
    if (cfg.persistence == df::PersistenceFormat::kDeserialized) {
      cfg.persistence = df::PersistenceFormat::kSerialized;
      degradations.push_back("persistence: deserialized -> serialized");
      continue;
    }
    if (cfg.join == df::JoinStrategy::kBroadcast) {
      cfg.join = df::JoinStrategy::kShuffleHash;
      degradations.push_back("join: broadcast -> shuffle");
      continue;
    }
    if (current.logical != LogicalPlan::kStaged) {
      auto staged = CompilePlan(LogicalPlan::kStaged, workload,
                                current.pre_materialized_base);
      if (staged.ok()) {
        degradations.push_back(std::string("plan: ") +
                               LogicalPlanToString(current.logical) +
                               " -> Staged");
        current = std::move(staged).value();
        continue;
      }
    }
    return result;  // Ladder exhausted: genuinely under-provisioned.
  }
}

Result<df::Table> RealExecutor::PreMaterializeBase(
    const TransferWorkload& workload, const df::Table& t_img,
    const RealExecutorConfig& config) {
  int64_t flops = 0;
  return MaterializeLayer(t_img, -1, -1, workload.layers.front(), config,
                          &flops);
}

Result<df::Table> RealExecutor::MaterializeLayer(
    const df::Table& input, int source_slot, int source_layer,
    int target_layer, const RealExecutorConfig& config, int64_t* flops) {
  VISTA_RETURN_IF_ERROR(config.Validate(model_));
  if (target_layer < 0 || target_layer >= model_->arch().num_layers()) {
    return Status::InvalidArgument("target layer out of range");
  }
  if (source_layer >= 0 && source_layer > target_layer) {
    return Status::InvalidArgument(
        "cannot materialize below the source layer (inference only runs "
        "forward)");
  }
  PlanStep step;
  step.kind = PlanStep::Kind::kInference;
  if (source_layer < 0) {
    step.source_slot = -1;
    step.source_layer = -1;
  } else {
    step.source_slot = source_slot;
    step.source_layer = source_layer;
  }
  step.produce_layers = {target_layer};
  int64_t int8_ops = 0;
  return RunInference(step, input, config, flops, &int8_ops);
}

}  // namespace vista
