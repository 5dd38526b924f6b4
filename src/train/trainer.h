// Training and scoring for every model in the evaluation.
//
// Training is one loop over (data::BatchSource, MultiHead), mirroring the
// paper's protocol (Section V-A): Adam, learning rate 1e-3, batch size 64,
// early stopping on validation (mean) AUC-PR, best-epoch parameters
// restored before the test evaluation (BCE / AUC-ROC / AUC-PR). A plain
// model trains as (Batcher, one weight-1 BinaryTerminalHead): bitwise its
// own Forward + BCE. Checkpoints carry the source's ExportState, so
// kill-and-resume is bitwise for the Batcher and the ShardedLoader alike.
//
// Scoring is one per-minibatch function (one encoding, every head over it,
// graph-free) under two drivers: Predict / Evaluate spread an index set's
// minibatches over the elda::par pool; EvaluateMultiTask and the
// BatchSource paths drain serially, leaving the pool to the kernels. All
// metrics are the masked ones of metrics/metrics.h (non-finite scores skip).

#ifndef ELDA_TRAIN_TRAINER_H_
#define ELDA_TRAIN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/emr.h"
#include "data/pipeline.h"
#include "health/health.h"
#include "train/sequence_model.h"
#include "train/task_head.h"

namespace elda {
namespace train {

struct TrainerConfig {
  int64_t max_epochs = 20;
  int64_t batch_size = 64;
  float learning_rate = 1e-3f;
  float clip_norm = 5.0f;   // <= 0 disables clipping
  int64_t patience = 4;     // epochs without val AUC-PR improvement
  uint64_t seed = 1;
  bool verbose = false;     // per-epoch progress on stderr
  // Worker threads for the elda::par kernels and batched prediction during
  // this trainer's run; 0 = automatic (ELDA_THREADS env, then
  // hardware_concurrency). Applied for the duration of each run.
  int64_t num_threads = 0;

  // -- Fault tolerance -------------------------------------------------------
  // When `checkpoint_path` is non-empty and `checkpoint_every` > 0, the full
  // run state (parameters, Adam moments/step, RNG, batch-source cursor,
  // best-val snapshot, patience counters) is written atomically to
  // `checkpoint_path` every `checkpoint_every` epochs. With `resume` set, a
  // run restores from an existing checkpoint and continues; it converges to
  // the bitwise-identical parameters and metrics of an uninterrupted run.
  std::string checkpoint_path;
  int64_t checkpoint_every = 0;
  bool resume = false;

  // Per-step numerical-health monitoring and the recovery policy applied to
  // unhealthy steps (NaN/Inf loss or gradient norm, loss explosion).
  health::HealthConfig health;
};

// Batching/threading knobs shared by every inference surface: batched
// Trainer::Predict / Evaluate and the serve-side micro-batcher
// (serve/service.h). One struct so a knob added for one path exists on the
// other — there is deliberately no serve-local options type.
struct InferenceOptions {
  // Minibatch size: eval-mode batch for Predict, the coalescing cap for the
  // micro-batcher (most observations arriving within one flush window that
  // are scored as a single StepForward call).
  int64_t batch_size = 256;
  // Thread cap for the elda::par kernels during this call; 0 = the global
  // setting (--threads / ELDA_THREADS / hardware).
  int64_t num_threads = 0;
  // Evaluate independent minibatches concurrently on the elda::par pool.
  // Minibatch composition is fixed by batch_size, so results are bitwise
  // the serial path's. Ignored by EvaluateMultiTask, the BatchSource paths
  // and the micro-batcher (one scoring thread by construction).
  bool parallel = true;
  // Optional attention-capture sink threaded into every ForwardContext on
  // this path (nullptr = capture nothing). Forces Predict onto the serial
  // path: concurrent workers would interleave last-writer-wins captures.
  nn::CaptureSink* capture = nullptr;
};

// Scores and aligned labels for one index set, in `indices` order.
struct PredictResult {
  std::vector<float> scores;  // sigmoid probabilities
  std::vector<float> labels;  // task labels
};

struct EvalResult {
  double bce = 0.0;
  double auc_roc = 0.0;
  double auc_pr = 0.0;
};

// Per-head metrics in the MultiHead's Add order. Per-step heads
// (decompensation) micro-average over valid cells: padding is masked out,
// and warm-up steps score non-finite, which metrics/metrics.h skips.
struct MultiTaskEvalResult {
  std::vector<std::string> tasks;    // task_name per head
  std::vector<EvalResult> per_task;  // aligned with `tasks`
  // Unweighted mean AUC-PR across heads — the model-selection metric. With a
  // single head this is bitwise that head's AUC-PR.
  double mean_auc_pr = 0.0;

  // Metrics for a task by name; CHECK-fails when absent.
  const EvalResult& ForTask(const std::string& task) const;
};

// Run outcome shared by every training entry point. kOk / kRecovered:
// val/test metrics are valid. kAborted: they are best-so-far (test on the
// best epoch's parameters, or the abort's when no epoch completed). Other
// statuses: the run never started, metrics are zero. `val` is the best
// epoch's measurement, re-evaluated on the final parameters only when the
// run lacks it (per-head metrics after a multi-head resume, no epoch run).
struct TrainRun {
  int64_t epochs_run = 0;
  int64_t best_epoch = 0;
  int64_t num_parameters = 0;  // every trained parameter (trunk + heads)
  double train_seconds_per_batch = 0.0;
  health::TrainStatus status = health::TrainStatus::kOk;
  std::string status_message;
  int64_t recoveries = 0;        // rollback-and-halve interventions taken
  int64_t skipped_batches = 0;   // unhealthy batches dropped (skip policy)
  int64_t checkpoint_write_failures = 0;
};

struct MultiTaskTrainResult : TrainRun {
  MultiTaskEvalResult val;   // best-epoch parameters, validation split
  MultiTaskEvalResult test;  // best-epoch parameters, test split
};

struct TrainResult : TrainRun {
  EvalResult val;
  EvalResult test;
  // Single-sample graph-free latency (Table III), measured by Train only.
  double predict_ms_per_sample = 0.0;
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig config) : config_(config) {}

  // Trains `model` on `split`; checkpoints serialize the model itself.
  // Resuming from a checkpoint written for another train split (or with no
  // batch-source state) fails with kCheckpointError.
  TrainResult Train(SequenceModel* model,
                    const std::vector<data::PreparedSample>& prepared,
                    const data::SplitIndices& split, data::Task task) const;

  // Sigmoid probabilities and the aligned task labels over an index set, in
  // `indices` order, graph-free (ag::NoGradScope, inference-mode contexts).
  // With `options.parallel`, minibatches run across the elda::par pool.
  static PredictResult Predict(const SequenceModel* model,
                               const std::vector<data::PreparedSample>& prepared,
                               const std::vector<int64_t>& indices,
                               data::Task task,
                               const InferenceOptions& options = {});

  // Metrics over Predict(): BCE / AUC-ROC / AUC-PR on the given index set.
  static EvalResult Evaluate(const SequenceModel* model,
                             const std::vector<data::PreparedSample>& prepared,
                             const std::vector<int64_t>& indices,
                             data::Task task,
                             const InferenceOptions& options = {});

  // Trains one encoder trunk under a MultiHead's weighted joint loss; Adam
  // and checkpoints cover trunk and heads (ModelWithHead, trunk first).
  // `task` picks the primary label in batch.y (BinaryTerminalHead's);
  // other heads read the batch's multi-task slabs. With one weight-1
  // BinaryTerminalHead the run is bitwise the single-task Train().
  MultiTaskTrainResult TrainMultiTask(
      SequenceModel* model, MultiHead* heads,
      const std::vector<data::PreparedSample>& prepared,
      const data::SplitIndices& split,
      data::Task task = data::Task::kMortality) const;

  // Graph-free multi-task evaluation with masked metrics per head, drained
  // serially (options.parallel is ignored). Minibatch composition matches
  // Predict(), and head logits are batching-independent, so scores are
  // bitwise stable across batch sizes.
  static MultiTaskEvalResult EvaluateMultiTask(
      const SequenceModel* model, const MultiHead* heads,
      const std::vector<data::PreparedSample>& prepared,
      const std::vector<int64_t>& indices, data::Task task,
      const InferenceOptions& options = {});

  // Streamed paths: batches (labels in y) come from a data::BatchSource, so
  // cohorts never need to fit in memory. One full pass over `source`
  // (StartEpoch + drain), graph-free, in the source's epoch order.
  static PredictResult PredictSource(const SequenceModel* model,
                                     data::BatchSource* source,
                                     const InferenceOptions& options = {});

  // Metrics wrapper over PredictSource().
  static EvalResult EvaluateSource(const SequenceModel* model,
                                   data::BatchSource* source,
                                   const InferenceOptions& options = {});

  // Trains on `train`, selecting on `val` and reporting on `test` (either
  // may be null: no early stopping / no test metrics respectively). With a
  // self-contained source (ShardedLoader owns its shuffle rng) resume is
  // bitwise.
  TrainResult TrainStreamed(SequenceModel* model, data::BatchSource* train,
                            data::BatchSource* val,
                            data::BatchSource* test) const;

 private:
  TrainerConfig config_;
};

}  // namespace train
}  // namespace elda

#endif  // ELDA_TRAIN_TRAINER_H_
