// Experiment runner shared by the benchmark harness: prepares a cohort once
// (split, standardise, impute) and trains any registered model on it over
// one or more seeds, aggregating metrics as mean +/- std, mirroring the
// paper's "run five times per model per application" protocol.

#ifndef ELDA_TRAIN_EXPERIMENT_H_
#define ELDA_TRAIN_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/emr.h"
#include "data/pipeline.h"
#include "metrics/metrics.h"
#include "train/trainer.h"

namespace elda {
namespace train {

// A cohort prepared for a specific task.
class PreparedExperiment {
 public:
  // Splits 80/10/10 (stratified on the task label), fits the standardizer on
  // the training split, prepares all samples.
  PreparedExperiment(const data::EmrDataset& cohort, data::Task task,
                     uint64_t split_seed = 17);

  const std::vector<data::PreparedSample>& prepared() const {
    return prepared_;
  }
  const data::SplitIndices& split() const { return split_; }
  data::Task task() const { return task_; }
  const data::Standardizer& standardizer() const { return standardizer_; }
  int64_t num_features() const { return num_features_; }

 private:
  data::Task task_;
  int64_t num_features_;
  data::Standardizer standardizer_;
  data::SplitIndices split_;
  std::vector<data::PreparedSample> prepared_;
};

// Aggregated results of training one model `num_runs` times.
struct ModelStats {
  std::string name;
  int64_t num_parameters = 0;
  metrics::MeanStd bce;
  metrics::MeanStd auc_roc;
  metrics::MeanStd auc_pr;
  double train_seconds_per_batch = 0.0;
  double predict_ms_per_sample = 0.0;
  // Runs that ended with a terminal TrainStatus (aborted / checkpoint
  // error); their metrics are excluded from the aggregates above.
  int64_t failed_runs = 0;
  int64_t recovered_runs = 0;  // completed via skip/rollback recovery
};

// Trains `make_model(seed)` num_runs times on the prepared experiment and
// aggregates the test metrics over the runs that completed (status kOk or
// kRecovered). Failed runs are counted in `failed_runs` and skipped. When
// every run fails the aggregates stay zero and failed_runs == num_runs;
// callers report that instead of the empty aggregates.
ModelStats RunRepeated(
    const std::function<std::unique_ptr<SequenceModel>(uint64_t seed)>&
        make_model,
    const PreparedExperiment& experiment, const TrainerConfig& trainer_config,
    int64_t num_runs);

}  // namespace train
}  // namespace elda

#endif  // ELDA_TRAIN_EXPERIMENT_H_
