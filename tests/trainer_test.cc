#include <cmath>

#include "data/pipeline.h"
#include "gtest/gtest.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "tensor/tensor_ops.h"
#include "train/trainer.h"

namespace elda {
namespace train {
namespace {

// A minimal model: GRU over x, linear head on the last state.
class TinyGruModel : public SequenceModel {
 public:
  TinyGruModel(int64_t features, int64_t hidden, uint64_t seed)
      : SequenceModel(features),
        rng_(seed),
        gru_(features, hidden, &rng_),
        head_(hidden, 1, true, &rng_) {
    RegisterSubmodule("gru", &gru_);
    RegisterSubmodule("head", &head_);
  }

  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext*) const override {
    const int64_t b = batch.x.shape(0);
    const int64_t t = batch.x.shape(1);
    ag::Variable h = gru_.Forward(ag::Constant(batch.x));
    return ag::Reshape(ag::Slice(h, 1, t - 1, 1),
                       {b, gru_.cell().hidden_size()});
  }

  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext*) const override {
    return ag::Reshape(head_.Forward(rep), {rep.value().shape(0)});
  }

  int64_t encoding_dim() const override { return gru_.cell().hidden_size(); }
  std::string name() const override { return "TinyGRU"; }

 private:
  Rng rng_;
  nn::Gru gru_;
  nn::Linear head_;
};

// A learnable separable dataset: label = 1 when the mean of feature 0 over
// time is positive.
std::vector<data::PreparedSample> SeparableData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::PreparedSample> prepared;
  for (int64_t i = 0; i < n; ++i) {
    data::PreparedSample p;
    p.x = Tensor::Normal({6, 3}, 0.0f, 1.0f, &rng);
    const float shift = rng.Bernoulli(0.5) ? 1.2f : -1.2f;
    for (int64_t t = 0; t < 6; ++t) p.x.at({t, 0}) += shift;
    p.mask = Tensor::Ones({6, 3});
    p.delta = Tensor::Zeros({6, 3});
    p.mortality_label = shift > 0.0f ? 1.0f : 0.0f;
    p.los_gt7_label = p.mortality_label;
    prepared.push_back(std::move(p));
  }
  return prepared;
}

data::SplitIndices EvenSplit(int64_t n) {
  data::SplitIndices split;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 10 == 8) {
      split.val.push_back(i);
    } else if (i % 10 == 9) {
      split.test.push_back(i);
    } else {
      split.train.push_back(i);
    }
  }
  return split;
}

TEST(TrainerTest, LearnsSeparableTask) {
  auto prepared = SeparableData(300, 1);
  auto split = EvenSplit(300);
  TinyGruModel model(3, 8, 2);
  TrainerConfig config;
  config.max_epochs = 8;
  config.batch_size = 32;
  config.learning_rate = 0.01f;
  Trainer trainer(config);
  TrainResult result =
      trainer.Train(&model, prepared, split, data::Task::kMortality);
  EXPECT_GT(result.test.auc_roc, 0.95);
  EXPECT_GT(result.test.auc_pr, 0.9);
  EXPECT_LT(result.test.bce, 0.5);
  EXPECT_EQ(result.num_parameters, model.NumParameters());
  EXPECT_GT(result.train_seconds_per_batch, 0.0);
  EXPECT_GT(result.predict_ms_per_sample, 0.0);
}

TEST(TrainerTest, EarlyStoppingRunsNoMoreThanMaxEpochs) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  TinyGruModel model(3, 4, 4);
  TrainerConfig config;
  config.max_epochs = 3;
  config.batch_size = 32;
  Trainer trainer(config);
  TrainResult result =
      trainer.Train(&model, prepared, split, data::Task::kMortality);
  EXPECT_LE(result.epochs_run, 3);
  EXPECT_LE(result.best_epoch, result.epochs_run - 1);
}

TEST(TrainerTest, EvaluateIsDeterministicInEvalMode) {
  auto prepared = SeparableData(100, 5);
  auto split = EvenSplit(100);
  TinyGruModel model(3, 4, 6);
  EvalResult a = Trainer::Evaluate(&model, prepared, split.test,
                                   data::Task::kMortality);
  EvalResult b = Trainer::Evaluate(&model, prepared, split.test,
                                   data::Task::kMortality);
  EXPECT_DOUBLE_EQ(a.bce, b.bce);
  EXPECT_DOUBLE_EQ(a.auc_roc, b.auc_roc);
}

TEST(TrainerTest, PredictScoresAreProbabilitiesInOrder) {
  auto prepared = SeparableData(50, 7);
  TinyGruModel model(3, 4, 8);
  std::vector<int64_t> indices = {4, 2, 9};
  PredictResult result =
      Trainer::Predict(&model, prepared, indices, data::Task::kMortality);
  ASSERT_EQ(result.scores.size(), 3u);
  ASSERT_EQ(result.labels.size(), 3u);
  for (float s : result.scores) {
    EXPECT_GT(s, 0.0f);
    EXPECT_LT(s, 1.0f);
  }
  EXPECT_FLOAT_EQ(result.labels[0], prepared[4].mortality_label);
  // Order matches the indices: recomputing one at a time agrees.
  PredictResult single =
      Trainer::Predict(&model, prepared, {2}, data::Task::kMortality);
  EXPECT_FLOAT_EQ(result.scores[1], single.scores[0]);
}

TEST(TrainerTest, PredictIsInvariantToBatchSizeAndThreads) {
  auto prepared = SeparableData(70, 11);
  TinyGruModel model(3, 4, 12);
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 70; ++i) indices.push_back(i);

  InferenceOptions reference;
  reference.batch_size = 256;
  reference.parallel = false;
  PredictResult base = Trainer::Predict(&model, prepared, indices,
                                        data::Task::kMortality, reference);

  for (int64_t batch_size : {1, 7, 64}) {
    for (int64_t threads : {1, 4}) {
      InferenceOptions options;
      options.batch_size = batch_size;
      options.num_threads = threads;
      PredictResult got = Trainer::Predict(&model, prepared, indices,
                                           data::Task::kMortality, options);
      ASSERT_EQ(got.scores.size(), base.scores.size());
      for (size_t i = 0; i < base.scores.size(); ++i) {
        EXPECT_EQ(got.scores[i], base.scores[i])
            << "batch_size=" << batch_size << " threads=" << threads
            << " i=" << i;
      }
      EXPECT_EQ(got.labels, base.labels);
    }
  }
}

TEST(TrainerTest, EmptyTrainSplitReturnsStructuredStatus) {
  auto prepared = SeparableData(20, 13);
  data::SplitIndices split;  // train empty on purpose
  for (int64_t i = 0; i < 10; ++i) split.val.push_back(i);
  for (int64_t i = 10; i < 20; ++i) split.test.push_back(i);
  TinyGruModel model(3, 4, 14);
  Trainer trainer(TrainerConfig{});
  TrainResult result =
      trainer.Train(&model, prepared, split, data::Task::kMortality);
  EXPECT_EQ(result.status, health::TrainStatus::kEmptyTrainSplit);
  EXPECT_FALSE(result.status_message.empty());
  EXPECT_EQ(result.epochs_run, 0);
  // No division by zero leaked into the averages.
  EXPECT_EQ(result.train_seconds_per_batch, 0.0);
  EXPECT_FALSE(std::isnan(result.train_seconds_per_batch));
}

TEST(TrainerTest, RestoresBestEpochParameters) {
  // With a huge learning rate the model degrades after early epochs; the
  // returned test metrics must come from the best-validation snapshot, so
  // evaluating the model after Train() reproduces result.test exactly.
  auto prepared = SeparableData(200, 9);
  auto split = EvenSplit(200);
  TinyGruModel model(3, 6, 10);
  TrainerConfig config;
  config.max_epochs = 5;
  config.learning_rate = 0.05f;
  Trainer trainer(config);
  TrainResult result =
      trainer.Train(&model, prepared, split, data::Task::kMortality);
  EvalResult now = Trainer::Evaluate(&model, prepared, split.test,
                                     data::Task::kMortality);
  EXPECT_DOUBLE_EQ(result.test.auc_roc, now.auc_roc);
  EXPECT_DOUBLE_EQ(result.test.bce, now.bce);
}

}  // namespace
}  // namespace train
}  // namespace elda
