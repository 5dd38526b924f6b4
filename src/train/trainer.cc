#include "train/trainer.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>

#include "autograd/ops.h"
#include "health/health.h"
#include "metrics/metrics.h"
#include "nn/serialize.h"
#include "optim/optimizer.h"
#include "par/par.h"
#include "tensor/tensor_ops.h"
#include "train/checkpoint.h"
#include "util/stopwatch.h"

namespace elda {
namespace train {
namespace {

// Injected fault: corrupts the first available gradient with a NaN, the way
// a numerically blown-up backward pass would.
void PoisonGradients(const std::vector<ag::Variable>& params) {
  for (const ag::Variable& p : params) {
    if (!p.has_grad()) continue;
    // Gradients are logically mutable state owned by the optimizer loop.
    const_cast<float*>(p.grad().data())[0] =
        std::numeric_limits<float>::quiet_NaN();
    return;
  }
}

// The weight-1 BinaryTerminalHead a plain model trains and scores through:
// bitwise its own Forward + BCE. The head is stateless, so one shared
// instance serves concurrent callers.
const MultiHead& TerminalHead() {
  static const MultiHead* heads = [] {
    auto* h = new MultiHead();
    h->Add(std::make_unique<BinaryTerminalHead>());
    return h;
  }();
  return *heads;
}

// Flattened (score, label, valid) cells per head, in MultiHead Add order.
struct HeadScores {
  std::vector<float> scores, labels;
  std::vector<uint8_t> valid;
};
using Scores = std::vector<HeadScores>;

// The per-minibatch scoring step behind every scoring path: one encoding
// bundle, every head's sigmoid probabilities collected over it.
void ScoreBatch(const SequenceModel& model, const MultiHead& heads,
                const data::Batch& batch, nn::ForwardContext* ctx,
                Scores* out) {
  const Encoding enc = model.Encode(batch, ctx, heads.wants_steps());
  for (int64_t h = 0; h < heads.size(); ++h) {
    const TaskHead& head = heads.head(h);
    const Tensor probs = Sigmoid(head.Logits(model, enc, ctx).value());
    HeadScores& s = (*out)[h];
    head.Collect(model, probs, batch, &s.scores, &s.labels, &s.valid);
  }
}

// Serial driver: scores every batch `next` yields under one graph-free
// inference context, leaving the elda::par pool to the kernels. Grad mode
// is thread-local, so a parallel caller runs one drain per worker.
Scores ScoreSerial(const SequenceModel& model, const MultiHead& heads,
                   const InferenceOptions& options,
                   const std::function<bool(data::Batch*)>& next) {
  par::ScopedNumThreads scoped_threads(options.num_threads);
  ag::NoGradScope no_grad;
  nn::ForwardContext ctx;
  ctx.capture = options.capture;
  Scores out(heads.size());
  data::Batch batch;
  while (next(&batch)) ScoreBatch(model, heads, batch, &ctx, &out);
  return out;
}

// One epoch of `source` (StartEpoch + drain) through the serial driver.
Scores ScoreSource(const SequenceModel& model, const MultiHead& heads,
                   data::BatchSource* source, const InferenceOptions& options) {
  ELDA_CHECK(source != nullptr);
  source->StartEpoch();
  return ScoreSerial(model, heads, options, [source](data::Batch* batch) {
    return source->Next(batch);
  });
}

// Minibatches of options.batch_size over `indices`, in order. With
// options.parallel (and no capture sink: shared last-writer-wins state),
// ranges of minibatches drain concurrently, bitwise the serial result.
Scores ScoreIndices(const SequenceModel& model, const MultiHead& heads,
                    const std::vector<data::PreparedSample>& prepared,
                    const std::vector<int64_t>& indices, data::Task task,
                    const InferenceOptions& options) {
  const int64_t batch_size = std::max<int64_t>(1, options.batch_size);
  const int64_t count = static_cast<int64_t>(indices.size());
  const int64_t num_batches = (count + batch_size - 1) / batch_size;
  auto minibatches = [&](int64_t b0, int64_t b1) {
    return [&, b = b0, b1](data::Batch* batch) mutable {
      if (b == b1) return false;
      const int64_t start = b++ * batch_size;
      const std::vector<int64_t> chunk(
          indices.begin() + start,
          indices.begin() + std::min(count, start + batch_size));
      *batch = data::MakeBatch(prepared, chunk, task);
      return true;
    };
  };
  if (!options.parallel || options.capture != nullptr) {
    return ScoreSerial(model, heads, options, minibatches(0, num_batches));
  }
  // Each worker range drains into the slot of its first minibatch, with
  // default options: the thread count is process-wide, not per worker.
  std::vector<Scores> ranges(num_batches);
  par::ParallelFor(
      0, num_batches, /*grain=*/1,
      [&](int64_t b0, int64_t b1) {
        ranges[b0] = ScoreSerial(model, heads, {}, minibatches(b0, b1));
      },
      options.num_threads);
  Scores out(heads.size());
  auto append = [](auto* to, const auto& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (const Scores& range : ranges) {
    for (size_t h = 0; h < range.size(); ++h) {
      append(&out[h].scores, range[h].scores);
      append(&out[h].labels, range[h].labels);
      append(&out[h].valid, range[h].valid);
    }
  }
  return out;
}

// Masked BCE / AUC-ROC / AUC-PR per head (padding and non-finite warm-up
// scores excluded) and the mean AUC-PR that drives model selection.
MultiTaskEvalResult Metrics(const MultiHead& heads, const Scores& scored) {
  MultiTaskEvalResult result;
  const int64_t num_heads = heads.size();
  for (int64_t h = 0; h < num_heads; ++h) {
    const HeadScores& s = scored[h];
    const EvalResult er{metrics::BceLoss(s.scores, s.labels, s.valid),
                        metrics::AucRoc(s.scores, s.labels, s.valid),
                        metrics::AucPr(s.scores, s.labels, s.valid)};
    result.tasks.push_back(heads.head(h).task_name());
    result.per_task.push_back(er);
    result.mean_auc_pr += er.auc_pr / num_heads;
  }
  return result;
}

PredictResult FirstHead(Scores scored) {
  return PredictResult{std::move(scored[0].scores),
                       std::move(scored[0].labels)};
}

TrainResult SingleHead(const MultiTaskTrainResult& run) {
  TrainResult out;
  static_cast<TrainRun&>(out) = run;
  if (!run.val.per_task.empty()) out.val = run.val.per_task[0];
  if (!run.test.per_task.empty()) out.test = run.test.per_task[0];
  return out;
}

// What the training loop runs: minibatches of `train` through `heads` over
// `model`. `saved` is the module Adam updates and checkpoints serialize —
// the model itself for single-task runs (so parameter names stay the
// model's), the ModelWithHead bundle for multi-task ones.
struct LoopJob {
  const SequenceModel* model;
  const MultiHead* heads;
  nn::Module* saved;
  data::BatchSource* train;
  Rng* rng;  // dropout stream (and the Batcher's shuffle)
  std::function<MultiTaskEvalResult()> eval_val;   // null: no selection
  std::function<MultiTaskEvalResult()> eval_test;  // null: no test metrics
};

// The one training loop. Its bookkeeping lives in a TrainCheckpoint: at each
// epoch boundary the run state (parameters, Adam, rng, source cursor) is
// captured into it, so writing a checkpoint is saving that state, a
// rollback restores it, and resuming is loading it.
MultiTaskTrainResult RunLoop(const TrainerConfig& config, const LoopJob& job) {
  // Pin the thread count for the whole run (0: the global setting).
  par::ScopedNumThreads scoped_threads(config.num_threads);
  MultiTaskTrainResult result;
  result.num_parameters = job.saved->NumParameters();
  if (job.train->NumBatchesPerEpoch() == 0) {
    const std::string rejected = job.train->error();
    result.status = health::TrainStatus::kEmptyTrainSplit;
    result.status_message =
        rejected.empty() ? "train split is empty; nothing to train on"
                         : "train source rejected its input: " + rejected;
    return result;
  }
  const SequenceModel& model = *job.model;
  Rng& rng = *job.rng;
  std::vector<ag::Variable> params = job.saved->Parameters();
  optim::Adam adam(params, config.learning_rate);
  health::HealthMonitor monitor(config.health);
  health::FaultInjector* inject = health::GlobalFaultInjector();

  auto capture = [&](TrainCheckpoint* state) {
    state->params_blob = nn::EncodeParameters(*job.saved);
    state->adam = adam.ExportState();
    state->rng = rng.SaveState();
    state->source_state = job.train->ExportState();
  };
  auto restore = [&](const TrainCheckpoint& state, std::string* err) {
    if (!nn::DecodeParameters(job.saved, state.params_blob, err)) return false;
    if (!job.train->RestoreState(state.source_state)) {
      *err = config.checkpoint_path +
             " was written for a different train split";
      return false;
    }
    adam.RestoreState(state.adam);
    rng.RestoreState(state.rng);
    return true;
  };

  TrainCheckpoint state;
  if (config.resume && !config.checkpoint_path.empty() &&
      std::ifstream(config.checkpoint_path).good()) {
    std::string* err = &result.status_message;
    if (!LoadTrainCheckpoint(config.checkpoint_path, &state, err) ||
        !restore(state, err)) {
      result.status = health::TrainStatus::kCheckpointError;
      return result;
    }
    // A single head's best-epoch metrics ride in the checkpoint.
    if (job.heads->size() == 1 && !state.best_params.empty()) {
      result.val = {{job.heads->head(0).task_name()}, {state.best_val},
                    state.best_val.auc_pr};
    }
    if (state.epochs_without_improvement > config.patience) {
      // Early stopping had already fired: finalize, as the original run did.
      state.next_epoch = config.max_epochs;
    }
    if (config.verbose) {
      std::cerr << model.name() << " resumed at epoch " << state.next_epoch
                << "\n";
    }
  }
  capture(&state);
  int64_t global_step = state.total_batches;  // for deterministic faults

  // Dropout draws come from the checkpoint-saved rng, so resumed runs stay
  // bitwise identical to uninterrupted ones.
  nn::ForwardContext train_ctx;
  train_ctx.training = true;
  train_ctx.rng = &rng;

  bool aborted = false;
  for (int64_t epoch = state.next_epoch; epoch < config.max_epochs; ++epoch) {
    job.train->StartEpoch();
    double epoch_loss = 0.0;
    int64_t epoch_batches = 0;
    bool rolled_back = false;
    data::Batch batch;
    while (job.train->Next(&batch)) {
      Stopwatch sw;
      adam.ZeroGrad();
      const Encoding enc =
          model.Encode(batch, &train_ctx, job.heads->wants_steps());
      ag::Variable loss = job.heads->JointLoss(model, enc, batch, &train_ctx);
      loss.Backward();
      if (inject->ConsumePoisonGrad(global_step)) PoisonGradients(params);
      // The returned norm doubles as a fused NaN/Inf scan over the
      // post-clip gradients (non-finite norms pass through unscaled).
      const float grad_norm =
          config.clip_norm > 0.0f
              ? optim::ClipGradNorm(params, config.clip_norm)
              : optim::GlobalGradNorm(params);
      const double loss_value = loss.value()[0];
      ++global_step;
      const health::StepVerdict verdict =
          monitor.Check(loss_value, grad_norm);
      if (verdict != health::StepVerdict::kHealthy) {
        if (config.verbose) {
          std::cerr << model.name() << " epoch " << epoch << " step "
                    << global_step - 1 << ": "
                    << health::StepVerdictName(verdict) << " (loss "
                    << loss_value << ", grad norm " << grad_norm << ")\n";
        }
        const health::RecoveryPolicy policy = config.health.policy;
        if (policy == health::RecoveryPolicy::kSkipBatch &&
            state.skipped_batches < config.health.max_skipped_batches) {
          ++state.skipped_batches;
          continue;  // drop this batch's update
        }
        if (policy == health::RecoveryPolicy::kRollback &&
            state.recoveries < config.health.max_rollbacks) {
          ++state.recoveries;
          const float halved_lr = adam.lr() * 0.5f;
          std::string err;
          ELDA_CHECK(restore(state, &err)) << err;
          adam.set_lr(halved_lr);
          monitor.Reset();
          rolled_back = true;
          break;
        }
        // kAbort, or the skip/rollback budget is exhausted.
        aborted = true;
        result.status_message =
            std::string("unhealthy step (") +
            health::StepVerdictName(verdict) + ") at step " +
            std::to_string(global_step - 1) + "; policy " +
            (policy == health::RecoveryPolicy::kAbort
                 ? "abort"
                 : "recovery budget exhausted");
        break;
      }
      adam.Step();
      monitor.Observe(loss_value);
      state.total_batch_seconds += sw.Seconds();
      ++state.total_batches;
      epoch_loss += loss_value;
      ++epoch_batches;
    }
    if (rolled_back) {
      --epoch;  // replay it from its boundary state
      continue;
    }
    state.epochs_run = epoch + 1;
    if (aborted) break;

    MultiTaskEvalResult val;
    if (job.eval_val) val = job.eval_val();
    if (config.verbose) {
      std::cerr << model.name() << " epoch " << epoch << " train_loss="
                << (epoch_batches > 0 ? epoch_loss / epoch_batches : 0.0)
                << " val_auc_pr=" << val.mean_auc_pr << "\n";
    }
    bool stop = false;
    if (job.eval_val && val.mean_auc_pr > state.best_val_auc_pr) {
      state.best_val_auc_pr = val.mean_auc_pr;
      if (val.per_task.size() == 1) state.best_val = val.per_task[0];
      state.best_epoch = epoch;
      state.epochs_without_improvement = 0;
      state.best_params.clear();
      for (const ag::Variable& p : params) {
        state.best_params.push_back(p.value().Clone());
      }
      result.val = std::move(val);
    } else if (job.eval_val) {
      stop = ++state.epochs_without_improvement > config.patience;
    }
    state.next_epoch = epoch + 1;
    capture(&state);
    std::string err;
    if (config.checkpoint_every > 0 && !config.checkpoint_path.empty() &&
        state.next_epoch % config.checkpoint_every == 0 &&
        !SaveTrainCheckpoint(config.checkpoint_path, state, &err)) {
      ++result.checkpoint_write_failures;
      std::cerr << model.name() << ": checkpoint write failed (" << err
                << "); training continues\n";
    }
    if (stop) break;
  }

  // Restore the best-validation parameters before the final evaluation.
  for (size_t i = 0; i < state.best_params.size(); ++i) {
    *params[i].mutable_value() = state.best_params[i];
  }
  if (job.eval_val && result.val.per_task.empty()) result.val = job.eval_val();
  if (job.eval_test) result.test = job.eval_test();
  result.status = aborted ? health::TrainStatus::kAborted
                  : (state.recoveries > 0 || state.skipped_batches > 0)
                      ? health::TrainStatus::kRecovered
                      : health::TrainStatus::kOk;
  result.epochs_run = state.epochs_run;
  result.best_epoch = state.best_epoch;
  result.recoveries = state.recoveries;
  result.skipped_batches = state.skipped_batches;
  result.train_seconds_per_batch =
      state.total_batch_seconds / std::max<int64_t>(1, state.total_batches);
  return result;
}

// The loop over an in-RAM split: a Batcher sharing the run's rng, and
// validation/test scored by ScoreIndices under `eval_options`.
MultiTaskTrainResult TrainOnSplit(
    const TrainerConfig& config, const SequenceModel* model,
    const MultiHead& heads, nn::Module* saved,
    const std::vector<data::PreparedSample>& prepared,
    const data::SplitIndices& split, data::Task task,
    const InferenceOptions& eval_options) {
  Rng rng(config.seed);
  data::Batcher batcher(&prepared, split.train, config.batch_size, task,
                        &rng);
  auto eval = [&](const std::vector<int64_t>& indices) {
    return Metrics(heads, ScoreIndices(*model, heads, prepared, indices, task,
                                       eval_options));
  };
  return RunLoop(config, {model, &heads, saved, &batcher, &rng,
                          [&] { return eval(split.val); },
                          [&] { return eval(split.test); }});
}

}  // namespace

const EvalResult& MultiTaskEvalResult::ForTask(const std::string& task) const {
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] == task) return per_task[i];
  }
  ELDA_CHECK(false) << "no head evaluated for task " << task;
  return per_task.front();  // unreachable
}

PredictResult Trainer::Predict(
    const SequenceModel* model,
    const std::vector<data::PreparedSample>& prepared,
    const std::vector<int64_t>& indices, data::Task task,
    const InferenceOptions& options) {
  return FirstHead(ScoreIndices(*model, TerminalHead(), prepared, indices,
                                task, options));
}

EvalResult Trainer::Evaluate(
    const SequenceModel* model,
    const std::vector<data::PreparedSample>& prepared,
    const std::vector<int64_t>& indices, data::Task task,
    const InferenceOptions& options) {
  return Metrics(TerminalHead(), ScoreIndices(*model, TerminalHead(), prepared,
                                              indices, task, options))
      .per_task[0];
}

MultiTaskEvalResult Trainer::EvaluateMultiTask(
    const SequenceModel* model, const MultiHead* heads,
    const std::vector<data::PreparedSample>& prepared,
    const std::vector<int64_t>& indices, data::Task task,
    const InferenceOptions& options) {
  ELDA_CHECK(model != nullptr && heads != nullptr && heads->size() > 0);
  // Serial, so a lone large minibatch (per-step heads) keeps kernel-level
  // parallelism.
  InferenceOptions serial = options;
  serial.parallel = false;
  return Metrics(*heads, ScoreIndices(*model, *heads, prepared, indices, task,
                                      serial));
}

PredictResult Trainer::PredictSource(const SequenceModel* model,
                                     data::BatchSource* source,
                                     const InferenceOptions& options) {
  return FirstHead(ScoreSource(*model, TerminalHead(), source, options));
}

EvalResult Trainer::EvaluateSource(const SequenceModel* model,
                                   data::BatchSource* source,
                                   const InferenceOptions& options) {
  return Metrics(TerminalHead(),
                 ScoreSource(*model, TerminalHead(), source, options))
      .per_task[0];
}

TrainResult Trainer::Train(SequenceModel* model,
                           const std::vector<data::PreparedSample>& prepared,
                           const data::SplitIndices& split,
                           data::Task task) const {
  TrainResult result =
      SingleHead(TrainOnSplit(config_, model, TerminalHead(), model, prepared,
                              split, task, InferenceOptions{}));
  if (result.status == health::TrainStatus::kEmptyTrainSplit ||
      result.status == health::TrainStatus::kCheckpointError ||
      split.test.empty()) {
    return result;
  }
  // Single-sample prediction latency (Table III's "Prediction (ms)") on the
  // serial graph-free scoring path, with the run's thread count.
  const InferenceOptions one{.num_threads = config_.num_threads,
                             .parallel = false};
  const int64_t reps = 20;
  Stopwatch sw;
  for (int64_t r = 0; r < reps; ++r) {
    Predict(model, prepared, {split.test[0]}, task, one);
  }
  result.predict_ms_per_sample = sw.Milliseconds() / reps;
  return result;
}

MultiTaskTrainResult Trainer::TrainMultiTask(
    SequenceModel* model, MultiHead* heads,
    const std::vector<data::PreparedSample>& prepared,
    const data::SplitIndices& split, data::Task task) const {
  ELDA_CHECK(model != nullptr && heads != nullptr && heads->size() > 0);
  ModelWithHead bundle(model, heads);
  // Validation and test score like EvaluateMultiTask: serially.
  return TrainOnSplit(config_, model, *heads, &bundle, prepared, split, task,
                      {.parallel = false});
}

TrainResult Trainer::TrainStreamed(SequenceModel* model,
                                   data::BatchSource* train,
                                   data::BatchSource* val,
                                   data::BatchSource* test) const {
  ELDA_CHECK(train != nullptr);
  Rng rng(config_.seed);  // dropout stream; the source owns its shuffle
  auto eval = [&](data::BatchSource* source) {
    return Metrics(TerminalHead(),
                   ScoreSource(*model, TerminalHead(), source, {}));
  };
  LoopJob job{model, &TerminalHead(), model, train, &rng, {}, {}};
  if (val != nullptr) job.eval_val = [&] { return eval(val); };
  if (test != nullptr) job.eval_test = [&] { return eval(test); };
  return SingleHead(RunLoop(config_, job));
}

}  // namespace train
}  // namespace elda
