#include "train/experiment.h"

#include <iostream>

namespace elda {
namespace train {

PreparedExperiment::PreparedExperiment(const data::EmrDataset& cohort,
                                       data::Task task, uint64_t split_seed)
    : task_(task), num_features_(cohort.num_features()) {
  std::vector<float> labels;
  labels.reserve(cohort.size());
  for (const data::EmrSample& s : cohort.samples()) {
    labels.push_back(task == data::Task::kMortality ? s.mortality_label
                                                    : s.los_gt7_label);
  }
  Rng rng(split_seed);
  split_ = data::StratifiedSplit(labels, 0.8, 0.1, &rng);
  standardizer_.Fit(cohort, split_.train);
  prepared_ = data::PrepareDataset(cohort, standardizer_);
}

ModelStats RunRepeated(
    const std::function<std::unique_ptr<SequenceModel>(uint64_t seed)>&
        make_model,
    const PreparedExperiment& experiment, const TrainerConfig& trainer_config,
    int64_t num_runs) {
  ELDA_CHECK_GT(num_runs, 0);
  ModelStats stats;
  std::vector<double> bces, rocs, prs;
  double batch_seconds = 0.0, predict_ms = 0.0;
  for (int64_t run = 0; run < num_runs; ++run) {
    TrainerConfig config = trainer_config;
    config.seed = trainer_config.seed + run * 1000003;
    std::unique_ptr<SequenceModel> model = make_model(config.seed);
    if (run == 0) {
      stats.name = model->name();
      stats.num_parameters = model->NumParameters();
    }
    Trainer trainer(config);
    TrainResult result = trainer.Train(model.get(), experiment.prepared(),
                                       experiment.split(), experiment.task());
    if (result.status != health::TrainStatus::kOk &&
        result.status != health::TrainStatus::kRecovered) {
      // A failed run has no trustworthy metrics; report it instead of
      // letting garbage skew the aggregate.
      ++stats.failed_runs;
      std::cerr << stats.name << " run " << run << " failed ("
                << health::TrainStatusName(result.status) << ": "
                << result.status_message << "); excluded from aggregates\n";
      continue;
    }
    if (result.status == health::TrainStatus::kRecovered) {
      ++stats.recovered_runs;
    }
    bces.push_back(result.test.bce);
    rocs.push_back(result.test.auc_roc);
    prs.push_back(result.test.auc_pr);
    batch_seconds += result.train_seconds_per_batch;
    predict_ms += result.predict_ms_per_sample;
  }
  const int64_t completed = static_cast<int64_t>(bces.size());
  if (completed == 0) return stats;  // failed_runs == num_runs
  stats.bce = metrics::Aggregate(bces);
  stats.auc_roc = metrics::Aggregate(rocs);
  stats.auc_pr = metrics::Aggregate(prs);
  stats.train_seconds_per_batch = batch_seconds / completed;
  stats.predict_ms_per_sample = predict_ms / completed;
  return stats;
}

}  // namespace train
}  // namespace elda
