// The fit and score phases, untraced (end-to-end metrics through the public
// Trainer entry points) and traced (the same work issued layer by layer
// under spans).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "autograd/ops.h"
#include "baselines/baselines.h"
#include "bench.h"
#include "core/elda_net.h"
#include "data/sharded_loader.h"
#include "nn/serialize.h"
#include "optim/optimizer.h"
#include "tensor/tensor_ops.h"
#include "trace.h"
#include "train/checkpoint.h"
#include "train/task_head.h"
#include "train/trainer.h"
#include "util/stopwatch.h"

namespace perfbench {

using namespace elda;

namespace {

constexpr int64_t kFitBatch = 64;
constexpr int64_t kScoreBatch = 256;
constexpr int64_t kMinReps = 3;
constexpr int64_t kCheckedScores = 16;

// Keeps repeating `rep` (at least kMinReps times) while the next repetition,
// predicted from the last one, still fits in `budget_s`.
template <typename Fn>
void RepeatWithin(double budget_s, Fn rep) {
  Stopwatch phase;
  double last = 0.0;
  for (int64_t i = 0; i < kMinReps || phase.Seconds() + last <= budget_s;
       ++i) {
    Stopwatch sw;
    rep(i);
    last = sw.Seconds();
  }
}

// One stderr line per repeated measurement, for reading run-to-run noise.
void LogReps(const char* what, std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::fprintf(stderr, "%s: %zu reps, min %.4g median %.4g max %.4g\n", what,
               values.size(), values.front(), Median(values), values.back());
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The three ELDA core modules at the model's shapes (EldaNetConfig::Full),
// called directly so their cost shows per layer whatever model the
// workload trains.
class CoreLayers {
 public:
  CoreLayers()
      : config_(core::EldaNetConfig::Full()),
        rng_(kModelSeed),
        embedding_(config_.num_features, config_.embed_dim, config_.embedding,
                   config_.lower, config_.upper, true, &rng_),
        feature_(config_.num_features, config_.embed_dim, config_.compression,
                 &rng_),
        time_(config_.num_features * config_.compression, config_.hidden_dim,
              &rng_) {}

  void Run(const data::Batch& batch) {
    ag::Variable e, f;
    {
      Span span("core.embedding");
      e = embedding_.Forward(ag::Variable(batch.x), batch.mask);
    }
    {
      Span span("core.feature_interaction");
      f = feature_.Forward(e);
    }
    Span span("core.time_interaction");
    time_.Forward(f);
  }

 private:
  core::EldaNetConfig config_;
  Rng rng_;
  core::BiDirectionalEmbedding embedding_;
  core::FeatureInteraction feature_;
  core::TimeInteraction time_;
};

// Zero-pads a prepared stay to `steps` grid rows, as MakeBatch pads it in a
// batch with a longer stay; the valid-prefix length is unchanged.
data::PreparedSample PadTo(const data::PreparedSample& s, int64_t steps) {
  const int64_t rows = s.x.shape(0), c = s.x.shape(1);
  if (rows >= steps) return s;
  data::PreparedSample padded = s;
  auto pad = [&](const Tensor& t) {
    Tensor out = Tensor::Zeros({steps, c});
    std::memcpy(out.data(), t.data(),
                static_cast<size_t>(rows * c) * sizeof(float));
    return out;
  };
  padded.x = pad(s.x);
  padded.mask = pad(s.mask);
  padded.delta = pad(s.delta);
  if (!padded.decomp_labels.empty()) {
    padded.decomp_labels.resize(static_cast<size_t>(steps), 0.0f);
  }
  return padded;
}

double PositiveRate(const Inputs& in, const std::vector<int64_t>& indices) {
  double pos = 0.0;
  for (int64_t i : indices) {
    pos += in.cohort[static_cast<size_t>(i)].mortality_label;
  }
  return indices.empty() ? 0.0 : pos / static_cast<double>(indices.size());
}

double SelfPerCall(const std::map<std::string, SpanStat>& stats,
                   const std::string& path) {
  auto it = stats.find(path);
  if (it == stats.end() || it->second.count == 0) return 0.0;
  return it->second.self_ms / static_cast<double>(it->second.count);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

LayerCounters LayerCounters::Now() {
  return {par::Stats(), mem::Pool::Global().Stats()};
}

void ReportLayerCounters(const std::string& prefix,
                         const LayerCounters& before, int64_t batches,
                         Result* out) {
  const LayerCounters now = LayerCounters::Now();
  const double b = static_cast<double>(std::max<int64_t>(1, batches));
  const int64_t acquires = now.pool.acquires - before.pool.acquires;
  const int64_t hits = now.pool.hits - before.pool.hits;
  out->Set(prefix + "mem.pool_cached_mb",
           static_cast<double>(now.pool.bytes_cached) / (1 << 20), "MiB");
  out->Set(prefix + "mem.pool_allocated_mb",
           static_cast<double>(now.pool.bytes_allocated -
                               before.pool.bytes_allocated) / (1 << 20),
           "MiB");
  out->Set(prefix + "mem.pool_hit_rate",
           acquires > 0 ? static_cast<double>(hits) / acquires : 0.0, "ratio");
  out->Set(prefix + "par.dispatches_per_batch",
           static_cast<double>(now.par.parallel_dispatches -
                               before.par.parallel_dispatches) / b,
           "count");
  out->Set(prefix + "par.inline_runs_per_batch",
           static_cast<double>(now.par.inline_runs - before.par.inline_runs) /
               b,
           "count");
}

// ---------------------------------------------------------------- fit ----

void RunFit(const RunConfig& config, const Inputs& in, double budget_s,
            Result* out) {
  const double train_n = static_cast<double>(in.split.train.size());
  const int64_t batches_per_epoch =
      (static_cast<int64_t>(in.split.train.size()) + kFitBatch - 1) /
      kFitBatch;
  train::TrainerConfig tc;
  tc.max_epochs = config.fit_epochs;
  tc.batch_size = kFitBatch;
  tc.patience = config.fit_epochs;  // early stopping off
  tc.checkpoint_path = config.work_dir + "/fit.ckpt";
  tc.checkpoint_every = 1;
  {
    // Warm-up, untimed: a short run fills the buffer pool at the shapes
    // the timed runs use (B=64 training, B=256 evaluation).
    data::SplitIndices warm;
    warm.train.assign(in.split.train.begin(),
                      in.split.train.begin() +
                          std::min<size_t>(2 * kFitBatch, in.split.train.size()));
    warm.val = in.split.val;
    warm.test = in.split.val;
    auto model = baselines::MakeModel(config.model_name, kNumFeatures,
                                      kModelSeed);
    train::Trainer(tc).Train(model.get(), in.cohort, warm,
                             data::Task::kMortality);
  }
  std::vector<double> rates;
  double auc_pr = std::numeric_limits<double>::quiet_NaN();
  RepeatWithin(budget_s, [&](int64_t rep) {
    auto model = baselines::MakeModel(config.model_name, kNumFeatures,
                                      kModelSeed);
    Stopwatch sw;
    const train::TrainResult r = train::Trainer(tc).Train(
        model.get(), in.cohort, in.split, data::Task::kMortality);
    const double wall = sw.Seconds();
    out->attempted += batches_per_epoch * r.epochs_run;
    out->failed += r.skipped_batches + r.checkpoint_write_failures +
                   (r.status == health::TrainStatus::kOk ? 0 : 1);
    out->Check(r.status == health::TrainStatus::kOk,
               std::string("fit: Train ended ") +
                   health::TrainStatusName(r.status) + ": " +
                   r.status_message);
    out->Check(r.epochs_run == config.fit_epochs, "fit: Train stopped early");
    out->Check(std::isfinite(r.val.bce) && std::isfinite(r.test.bce),
               "fit: non-finite loss");
    rates.push_back(train_n * static_cast<double>(r.epochs_run) / wall);
    if (rep == 0) auc_pr = r.test.auc_pr;
  });
  const double positive_rate = PositiveRate(in, in.split.test);
  out->Check(auc_pr > positive_rate,
             "fit: test AUC-PR " + std::to_string(auc_pr) +
                 " not above the positive rate " +
                 std::to_string(positive_rate));
  LogReps("train_adm_per_s", rates);
  out->Set("train_adm_per_s", Median(rates), "admissions/s");
  out->Set("train_auc_pr", auc_pr, "AUC-PR");
}

namespace {

// Trainer::Train's per-batch work issued call by call: Batcher::Next, the
// encoder, readout + loss, Backward, clipping and Adam, then per epoch the
// validation pass and a checkpoint. The core modules run beside each step
// at the batch's shapes. Returns seconds per training admission.
struct FitReplicaStats {
  int64_t steps = 0;
  int64_t tape_nodes = 0;
  double seconds_per_admission = 0.0;
};

FitReplicaStats FitReplica(const RunConfig& config, const Inputs& in,
                           double budget_s) {
  auto model =
      baselines::MakeModel(config.model_name, kNumFeatures, kModelSeed);
  std::vector<ag::Variable> params = model->Parameters();
  optim::Adam adam(params, 1e-3f);
  Rng rng(1);
  data::Batcher batcher(&in.cohort, in.split.train, kFitBatch,
                        data::Task::kMortality, &rng);
  nn::ForwardContext ctx;
  ctx.training = true;
  ctx.rng = &rng;
  CoreLayers core_layers;
  FitReplicaStats stats;
  Stopwatch wall;
  int64_t epochs = 0;
  while (epochs == 0 || wall.Seconds() < budget_s) {
    batcher.StartEpoch();
    for (int64_t b = 0; b < batcher.NumBatchesPerEpoch(); ++b) {
      data::Batch batch;
      {
        Span step("fit.step");
        {
          Span span("data.make_batch");
          batcher.Next(&batch);
        }
        {
          Span span("optim.zero_grad");
          adam.ZeroGrad();
        }
        const int64_t tape0 = ag::TapeNodesAllocated();
        ag::Variable rep, loss;
        {
          Span span("train.encode");
          rep = model->EncodeTerminal(batch, &ctx);
        }
        {
          Span span("train.readout_loss");
          loss = ag::BceWithLogits(model->Readout(rep, &ctx), batch.y);
        }
        stats.tape_nodes += ag::TapeNodesAllocated() - tape0;
        {
          Span span("autograd.backward");
          loss.Backward();
        }
        {
          Span span("optim.clip");
          optim::ClipGradNorm(params, 5.0f);
        }
        {
          Span span("optim.adam_step");
          adam.Step();
        }
        ++stats.steps;
      }
      Span span("fit.core");
      core_layers.Run(batch);
    }
    Span span("fit.epoch_end");
    {
      Span eval("train.eval");
      train::Trainer::Evaluate(model.get(), in.cohort, in.split.val,
                               data::Task::kMortality);
    }
    Span ckpt_span("health.checkpoint");
    train::TrainCheckpoint ckpt;
    ckpt.next_epoch = ++epochs;
    ckpt.params_blob = nn::EncodeParameters(*model);
    ckpt.adam = adam.ExportState();
    ckpt.rng = rng.SaveState();
    ckpt.batch_order = batcher.order();
    train::SaveTrainCheckpoint(config.work_dir + "/fit-trace.ckpt", ckpt);
  }
  stats.seconds_per_admission =
      wall.Seconds() /
      (static_cast<double>(epochs) * static_cast<double>(in.split.train.size()));
  return stats;
}

}  // namespace

void TraceFit(const RunConfig& config, const Inputs& in, double budget_s,
              Result* out) {
  Tracer& tracer = Tracer::Get();
  tracer.SetEnabled(false);
  const FitReplicaStats plain = FitReplica(config, in, budget_s / 2);
  mem::Pool::Global().Trim();
  const LayerCounters before = LayerCounters::Now();
  tracer.Clear();
  tracer.SetEnabled(true);
  const FitReplicaStats traced = FitReplica(config, in, budget_s / 2);
  tracer.SetEnabled(false);
  out->attempted += plain.steps + traced.steps;

  const auto stats = tracer.Aggregate();
  const double steps = static_cast<double>(std::max<int64_t>(1, traced.steps));
  auto per_step = [&](const char* child) {
    return SelfPerCall(stats, std::string("fit.step/") + child);
  };
  out->Set("fit.data.make_batch_ms", per_step("data.make_batch"), "ms");
  out->Set("fit.train.encode_ms", per_step("train.encode"), "ms");
  out->Set("fit.train.readout_loss_ms", per_step("train.readout_loss"), "ms");
  out->Set("fit.autograd.backward_ms", per_step("autograd.backward"), "ms");
  out->Set("fit.autograd.tape_nodes",
           static_cast<double>(traced.tape_nodes) / steps, "count");
  out->Set("fit.optim.clip_ms", per_step("optim.clip"), "ms");
  out->Set("fit.optim.adam_step_ms", per_step("optim.adam_step"), "ms");
  out->Set("fit.step.unattributed_ms", SelfPerCall(stats, "fit.step"), "ms");
  out->Set("fit.train.eval_ms",
           SelfPerCall(stats, "fit.epoch_end/train.eval"), "ms");
  out->Set("fit.health.checkpoint_ms",
           SelfPerCall(stats, "fit.epoch_end/health.checkpoint"), "ms");
  out->Set("fit.core.embedding_ms",
           SelfPerCall(stats, "fit.core/core.embedding"), "ms");
  out->Set("fit.core.feature_interaction_ms",
           SelfPerCall(stats, "fit.core/core.feature_interaction"), "ms");
  out->Set("fit.core.time_interaction_ms",
           SelfPerCall(stats, "fit.core/core.time_interaction"), "ms");
  ReportLayerCounters("fit.", before, traced.steps, out);
  out->Set("fit.trace.overhead_pct",
           100.0 * (traced.seconds_per_admission /
                        plain.seconds_per_admission -
                    1.0),
           "%");
}

// -------------------------------------------------------------- score ----

namespace {

data::ShardedLoaderOptions LoaderOptions(const Inputs& in, bool prefetch) {
  data::ShardedLoaderOptions options;
  options.batch_size = kScoreBatch;
  options.num_buckets = 4;
  options.prefetch = prefetch;
  options.task = data::Task::kMortality;
  options.seed = in.loader_seed;
  return options;
}

}  // namespace

void RunScore(const RunConfig& config, const Inputs& in, double budget_s,
              Result* out) {
  auto model =
      baselines::MakeModel(config.model_name, kNumFeatures, kModelSeed);
  train::InferenceOptions options;
  options.batch_size = kScoreBatch;

  // Mortality over the shards, one loader epoch per repetition.
  data::ShardedLoader loader(in.shard_paths, &in.shard_standardizer,
                             LoaderOptions(in, /*prefetch=*/true));
  std::vector<double> rates;
  std::vector<float> first_scores;
  RepeatWithin(budget_s / 2, [&](int64_t rep) {
    Stopwatch sw;
    const train::PredictResult r =
        train::Trainer::PredictSource(model.get(), &loader, options);
    rates.push_back(static_cast<double>(r.scores.size()) / sw.Seconds());
    int64_t bad = 0;
    for (float s : r.scores) bad += std::isfinite(s) ? 0 : 1;
    out->attempted += static_cast<int64_t>(r.scores.size());
    out->failed += bad;
    out->Check(bad == 0, "score: " + std::to_string(bad) +
                             " non-finite mortality scores");
    out->Check(static_cast<int64_t>(r.scores.size()) == in.shard_records,
               "score: an epoch did not score every stay");
    if (rep == 0) first_scores = r.scores;
  });
  LogReps("score_adm_per_s", rates);
  out->Set("score_adm_per_s", Median(rates), "admissions/s");

  // Rescore a fixed sample of the first epoch at B=1 through in-RAM
  // Predict; the loader's epoch plan is a pure function of its seed, so a
  // fresh loader replays the order the scores came in. Each stay is padded
  // to its batch's grid first: ELDA-Net reads the whole padded window of a
  // ragged batch (only the recurrent baselines honour Batch::lengths), so
  // the bitwise contract is batch-size independence at equal padding.
  data::ShardedLoader replay(in.shard_paths, &in.shard_standardizer,
                             LoaderOptions(in, /*prefetch=*/false));
  replay.StartEpoch();
  std::vector<int64_t> order, grid;
  data::Batch batch;
  while (replay.Next(&batch)) {
    order.insert(order.end(), batch.sample_indices.begin(),
                 batch.sample_indices.end());
    grid.insert(grid.end(), batch.sample_indices.size(), batch.x.shape(1));
  }
  out->Check(order.size() == first_scores.size(),
             "score: replayed epoch order differs in size");
  train::InferenceOptions single;
  single.batch_size = 1;
  for (int64_t k = 0; k < kCheckedScores && !order.empty(); ++k) {
    const size_t pos = static_cast<size_t>(k) * order.size() / kCheckedScores;
    const std::vector<data::PreparedSample> one = {
        PadTo(ReadShardRecord(in, order[pos]), grid[pos])};
    const float expect = train::Trainer::Predict(model.get(), one, {0},
                                                 data::Task::kMortality,
                                                 single)
                             .scores[0];
    out->Check(pos < first_scores.size() && SameBits(first_scores[pos], expect),
               "score: stay " + std::to_string(order[pos]) +
                   " scored at B=256 differs from B=1 Predict");
  }

  // Per-step decompensation over the in-RAM subset.
  train::MultiHead heads;
  heads.Add(std::make_unique<train::DecompensationHead>());
  std::vector<double> decomp_rates;
  RepeatWithin(budget_s / 2, [&](int64_t) {
    Stopwatch sw;
    const train::MultiTaskEvalResult r = train::Trainer::EvaluateMultiTask(
        model.get(), &heads, in.cohort, in.decomp, data::Task::kMortality,
        options);
    decomp_rates.push_back(static_cast<double>(in.decomp.size()) /
                           sw.Seconds());
    out->attempted += static_cast<int64_t>(in.decomp.size());
    const bool finite = std::isfinite(r.per_task[0].bce);
    out->failed += finite ? 0 : static_cast<int64_t>(in.decomp.size());
    out->Check(finite, "score: non-finite decompensation loss");
  });
  LogReps("decomp_adm_per_s", decomp_rates);
  out->Set("decomp_adm_per_s", Median(decomp_rates), "admissions/s");
}

namespace {

struct ScoreReplicaStats {
  int64_t batches = 0;
  int64_t admissions = 0;
  double seconds_per_round = 0.0;
};

// One round is a loader epoch of mortality scoring (Next, encoder, readout)
// plus one pass of per-step decompensation over the in-RAM subset; the core
// modules run beside each mortality batch at its shapes.
ScoreReplicaStats ScoreReplica(const RunConfig& config, const Inputs& in,
                               data::ShardedLoader* loader, double budget_s) {
  auto model =
      baselines::MakeModel(config.model_name, kNumFeatures, kModelSeed);
  train::DecompensationHead decomp_head;
  CoreLayers core_layers;
  ag::NoGradScope no_grad;
  nn::ForwardContext ctx;
  ScoreReplicaStats stats;
  Stopwatch wall;
  int64_t rounds = 0;
  while (rounds == 0 || wall.Seconds() < budget_s) {
    loader->StartEpoch();
    for (int64_t b = 0; b < loader->NumBatchesPerEpoch(); ++b) {
      data::Batch batch;
      {
        Span step("score.batch");
        {
          Span span("data.loader_wait");
          ELDA_CHECK(loader->Next(&batch));
        }
        ag::Variable rep;
        {
          Span span("train.encode");
          rep = model->EncodeTerminal(batch, &ctx);
        }
        Span span("train.readout");
        elda::Sigmoid(model->Readout(rep, &ctx).value());
      }
      ++stats.batches;
      stats.admissions += batch.x.shape(0);
      Span span("score.core");
      core_layers.Run(batch);
    }
    for (size_t start = 0; start < in.decomp.size(); start += kScoreBatch) {
      Span step("score.decomp");
      const size_t end = std::min(in.decomp.size(), start + kScoreBatch);
      const std::vector<int64_t> chunk(in.decomp.begin() + start,
                                       in.decomp.begin() + end);
      data::Batch batch;
      {
        Span span("data.make_batch");
        batch = data::MakeBatch(in.cohort, chunk, data::Task::kMortality);
      }
      train::Encoding enc;
      {
        Span span("train.encode_steps");
        enc.steps = model->EncodeSteps(batch, &ctx);
      }
      Span span("train.readout_steps");
      elda::Sigmoid(decomp_head.Logits(*model, enc, &ctx).value());
    }
    ++rounds;
  }
  stats.seconds_per_round = wall.Seconds() / static_cast<double>(rounds);
  return stats;
}

}  // namespace

void TraceScore(const RunConfig& config, const Inputs& in, double budget_s,
                Result* out) {
  Tracer& tracer = Tracer::Get();
  data::ShardedLoader loader(in.shard_paths, &in.shard_standardizer,
                             LoaderOptions(in, /*prefetch=*/true));
  tracer.SetEnabled(false);
  const ScoreReplicaStats plain =
      ScoreReplica(config, in, &loader, budget_s / 2);
  mem::Pool::Global().Trim();
  const LayerCounters before = LayerCounters::Now();
  tracer.Clear();
  tracer.SetEnabled(true);
  const ScoreReplicaStats traced =
      ScoreReplica(config, in, &loader, budget_s / 2);
  tracer.SetEnabled(false);
  out->attempted += plain.admissions + traced.admissions;

  const auto stats = tracer.Aggregate();
  out->Set("score.data.loader_wait_ms",
           SelfPerCall(stats, "score.batch/data.loader_wait"), "ms");
  out->Set("score.data.padding_waste", loader.PaddingWaste(), "ratio");
  out->Set("score.train.encode_ms",
           SelfPerCall(stats, "score.batch/train.encode"), "ms");
  out->Set("score.train.readout_ms",
           SelfPerCall(stats, "score.batch/train.readout"), "ms");
  out->Set("score.batch.unattributed_ms", SelfPerCall(stats, "score.batch"),
           "ms");
  out->Set("score.core.embedding_ms",
           SelfPerCall(stats, "score.core/core.embedding"), "ms");
  out->Set("score.core.feature_interaction_ms",
           SelfPerCall(stats, "score.core/core.feature_interaction"), "ms");
  out->Set("score.core.time_interaction_ms",
           SelfPerCall(stats, "score.core/core.time_interaction"), "ms");
  out->Set("score.train.encode_steps_ms",
           SelfPerCall(stats, "score.decomp/train.encode_steps"), "ms");
  ReportLayerCounters("score.", before, traced.batches, out);
  out->Set("score.trace.overhead_pct",
           100.0 * (traced.seconds_per_round / plain.seconds_per_round - 1.0),
           "%");
}

}  // namespace perfbench
