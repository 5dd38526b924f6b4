#include "train/checkpoint.h"

#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "data/pipeline.h"
#include "gtest/gtest.h"
#include "health/health.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "train/task_head.h"
#include "train/trainer.h"

namespace elda {
namespace train {
namespace {

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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.max_epochs = 6;
  config.batch_size = 32;
  config.learning_rate = 0.01f;
  return config;
}

// The training entry points the fault-tolerance contracts are checked
// through: Train, and TrainMultiTask over one weight-1 BinaryTerminalHead
// (its checkpoints serialize the ModelWithHead bundle) reported in
// TrainResult form, so the same assertions apply to both.
using TrainEntry = TrainResult (*)(const TrainerConfig&, SequenceModel*,
                                   const std::vector<data::PreparedSample>&,
                                   const data::SplitIndices&);

TrainResult TrainSingleTask(const TrainerConfig& config,
                            SequenceModel* model,
                            const std::vector<data::PreparedSample>& prepared,
                            const data::SplitIndices& split) {
  return Trainer(config).Train(model, prepared, split,
                               data::Task::kMortality);
}

TrainResult TrainMultiTaskSingleHead(
    const TrainerConfig& config, SequenceModel* model,
    const std::vector<data::PreparedSample>& prepared,
    const data::SplitIndices& split) {
  MultiHead heads;
  heads.Add(std::make_unique<BinaryTerminalHead>());
  const MultiTaskTrainResult run = Trainer(config).TrainMultiTask(
      model, &heads, prepared, split, data::Task::kMortality);
  TrainResult result;
  static_cast<TrainRun&>(result) = run;
  if (!run.val.per_task.empty()) result.val = run.val.per_task[0];
  if (!run.test.per_task.empty()) result.test = run.test.per_task[0];
  return result;
}

const std::pair<const char*, TrainEntry> kEntries[] = {
    {"Train", &TrainSingleTask},
    {"TrainMultiTask", &TrainMultiTaskSingleHead}};

// Keeps the global fault injector pristine around each test.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { health::GlobalFaultInjector()->Disarm(); }
  void TearDown() override { health::GlobalFaultInjector()->Disarm(); }
};

TEST(TrainCheckpointTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip.ckpt");
  Rng rng(17);
  TrainCheckpoint ckpt;
  ckpt.next_epoch = 4;
  ckpt.epochs_run = 4;
  ckpt.best_epoch = 2;
  ckpt.epochs_without_improvement = 1;
  ckpt.total_batches = 57;
  ckpt.recoveries = 1;
  ckpt.skipped_batches = 2;
  ckpt.best_val_auc_pr = 0.875;
  ckpt.best_val.bce = 0.31;
  ckpt.best_val.auc_roc = 0.9;
  ckpt.best_val.auc_pr = 0.875;
  ckpt.total_batch_seconds = 1.5;
  ckpt.params_blob = "opaque parameter bytes";
  ckpt.adam.step_count = 57;
  ckpt.adam.lr = 0.005f;
  ckpt.adam.m.push_back(Tensor::Normal({3, 4}, 0.0f, 1.0f, &rng));
  ckpt.adam.v.push_back(Tensor::Normal({3, 4}, 0.0f, 1.0f, &rng));
  ckpt.rng = rng.SaveState();
  ckpt.batch_order = {3, 0, 2, 1};
  ckpt.best_params.push_back(Tensor::Normal({2, 2}, 0.0f, 1.0f, &rng));

  std::string error;
  ASSERT_TRUE(SaveTrainCheckpoint(path, ckpt, &error)) << error;
  TrainCheckpoint loaded;
  ASSERT_TRUE(LoadTrainCheckpoint(path, &loaded, &error)) << error;

  EXPECT_EQ(loaded.next_epoch, 4);
  EXPECT_EQ(loaded.epochs_run, 4);
  EXPECT_EQ(loaded.best_epoch, 2);
  EXPECT_EQ(loaded.epochs_without_improvement, 1);
  EXPECT_EQ(loaded.total_batches, 57);
  EXPECT_EQ(loaded.recoveries, 1);
  EXPECT_EQ(loaded.skipped_batches, 2);
  EXPECT_DOUBLE_EQ(loaded.best_val_auc_pr, 0.875);
  EXPECT_DOUBLE_EQ(loaded.best_val.bce, 0.31);
  EXPECT_DOUBLE_EQ(loaded.total_batch_seconds, 1.5);
  EXPECT_EQ(loaded.params_blob, "opaque parameter bytes");
  EXPECT_EQ(loaded.adam.step_count, 57);
  EXPECT_FLOAT_EQ(loaded.adam.lr, 0.005f);
  ASSERT_EQ(loaded.adam.m.size(), 1u);
  for (int64_t i = 0; i < loaded.adam.m[0].size(); ++i) {
    EXPECT_EQ(loaded.adam.m[0][i], ckpt.adam.m[0][i]);
    EXPECT_EQ(loaded.adam.v[0][i], ckpt.adam.v[0][i]);
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(loaded.rng.s[i], ckpt.rng.s[i]);
  EXPECT_EQ(loaded.batch_order, ckpt.batch_order);
  ASSERT_EQ(loaded.best_params.size(), 1u);
  for (int64_t i = 0; i < loaded.best_params[0].size(); ++i) {
    EXPECT_EQ(loaded.best_params[0][i], ckpt.best_params[0][i]);
  }
}

TEST(TrainCheckpointTest, LoadRejectsMissingFile) {
  TrainCheckpoint ckpt;
  std::string error;
  EXPECT_FALSE(
      LoadTrainCheckpoint(TempPath("does_not_exist.ckpt"), &ckpt, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FaultToleranceTest, KillAndResumeIsBitwiseIdentical) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);

  // Uninterrupted reference run.
  TrainerConfig config_a = BaseConfig();
  config_a.checkpoint_path = TempPath("resume_a.ckpt");
  config_a.checkpoint_every = 1;
  TinyGruModel model_a(3, 8, 2);
  TrainResult result_a = Trainer(config_a).Train(&model_a, prepared, split,
                                                 data::Task::kMortality);
  ASSERT_EQ(result_a.status, health::TrainStatus::kOk);
  const std::string params_a = nn::EncodeParameters(model_a);

  // The same run "killed" after 3 of 6 epochs...
  TrainerConfig config_b = BaseConfig();
  config_b.checkpoint_path = TempPath("resume_b.ckpt");
  config_b.checkpoint_every = 1;
  config_b.max_epochs = 3;
  TinyGruModel model_b(3, 8, 2);  // same init seed as model_a
  TrainResult partial = Trainer(config_b).Train(&model_b, prepared, split,
                                                data::Task::kMortality);
  ASSERT_EQ(partial.epochs_run, 3);

  // ...and resumed into a freshly (differently) initialized model.
  config_b.max_epochs = 6;
  config_b.resume = true;
  TinyGruModel model_c(3, 8, 99);
  TrainResult result_b = Trainer(config_b).Train(&model_c, prepared, split,
                                                 data::Task::kMortality);

  EXPECT_EQ(nn::EncodeParameters(model_c), params_a);
  EXPECT_DOUBLE_EQ(result_b.val.auc_pr, result_a.val.auc_pr);
  EXPECT_DOUBLE_EQ(result_b.val.auc_roc, result_a.val.auc_roc);
  EXPECT_DOUBLE_EQ(result_b.val.bce, result_a.val.bce);
  EXPECT_DOUBLE_EQ(result_b.test.auc_pr, result_a.test.auc_pr);
  EXPECT_DOUBLE_EQ(result_b.test.auc_roc, result_a.test.auc_roc);
  EXPECT_DOUBLE_EQ(result_b.test.bce, result_a.test.bce);
  EXPECT_EQ(result_b.best_epoch, result_a.best_epoch);
  EXPECT_EQ(result_b.epochs_run, result_a.epochs_run);
  EXPECT_EQ(result_b.status, health::TrainStatus::kOk);
}

void ExpectResumeRejectsCheckpointFromDifferentSplit(TrainEntry train) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  TrainerConfig config = BaseConfig();
  config.max_epochs = 1;
  config.checkpoint_path = TempPath("wrong_split.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  ASSERT_EQ(train(config, &model, prepared, split).status,
            health::TrainStatus::kOk);

  // Same file, different train indices.
  data::SplitIndices other = split;
  other.train.pop_back();
  config.resume = true;
  TinyGruModel model2(3, 4, 5);
  TrainResult result = train(config, &model2, prepared, other);
  EXPECT_EQ(result.status, health::TrainStatus::kCheckpointError);
  EXPECT_NE(result.status_message.find("different train split"),
            std::string::npos);
}

TEST_F(FaultToleranceTest, ResumeRejectsCheckpointFromDifferentSplit) {
  for (const auto& [name, train] : kEntries) {
    SCOPED_TRACE(name);
    ExpectResumeRejectsCheckpointFromDifferentSplit(train);
  }
}

TEST_F(FaultToleranceTest, ResumeRejectsCheckpointWithoutSourceState) {
  // A checkpoint in the older layout: the batcher permutation in
  // batch_order, no batch-source state. Resuming must fail cleanly rather
  // than abort.
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  TrainerConfig config = BaseConfig();
  config.max_epochs = 1;
  config.checkpoint_path = TempPath("no_source_state.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  ASSERT_EQ(Trainer(config)
                .Train(&model, prepared, split, data::Task::kMortality)
                .status,
            health::TrainStatus::kOk);
  TrainCheckpoint ckpt;
  std::string error;
  ASSERT_TRUE(LoadTrainCheckpoint(config.checkpoint_path, &ckpt, &error))
      << error;
  ASSERT_FALSE(ckpt.source_state.empty());
  ckpt.source_state.clear();
  ckpt.batch_order = split.train;
  ASSERT_TRUE(SaveTrainCheckpoint(config.checkpoint_path, ckpt, &error))
      << error;

  config.resume = true;
  TinyGruModel model2(3, 4, 5);
  TrainResult result = Trainer(config).Train(&model2, prepared, split,
                                             data::Task::kMortality);
  EXPECT_EQ(result.status, health::TrainStatus::kCheckpointError);
  EXPECT_NE(result.status_message.find("different train split"),
            std::string::npos)
      << result.status_message;
}

TEST_F(FaultToleranceTest, BitFlippedCheckpointIsRejectedOnResume) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  TrainerConfig config = BaseConfig();
  config.max_epochs = 2;
  config.checkpoint_path = TempPath("flipped.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  ASSERT_EQ(Trainer(config)
                .Train(&model, prepared, split, data::Task::kMortality)
                .status,
            health::TrainStatus::kOk);

  std::string bytes = ReadFile(config.checkpoint_path);
  ASSERT_GT(bytes.size(), 50u);
  bytes[40] ^= 0x01;  // inside the first section's payload
  WriteFile(config.checkpoint_path, bytes);

  config.resume = true;
  TinyGruModel model2(3, 4, 5);
  TrainResult result = Trainer(config).Train(&model2, prepared, split,
                                             data::Task::kMortality);
  EXPECT_EQ(result.status, health::TrainStatus::kCheckpointError);
  EXPECT_NE(result.status_message.find("checksum mismatch"),
            std::string::npos)
      << result.status_message;
}

TEST_F(FaultToleranceTest, PoisonedGradientTriggersRollbackAndRecovers) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);
  health::FaultPlan plan;
  plan.poison_grad_at_step = 7;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 4;
  TinyGruModel model(3, 8, 2);
  TrainResult result = Trainer(config).Train(&model, prepared, split,
                                             data::Task::kMortality);
  EXPECT_EQ(result.status, health::TrainStatus::kRecovered);
  EXPECT_EQ(result.recoveries, 1);
  EXPECT_EQ(result.skipped_batches, 0);
  EXPECT_EQ(result.epochs_run, 4);
  // The run still produced valid, finite metrics.
  EXPECT_TRUE(std::isfinite(result.test.bce));
  EXPECT_GT(result.test.auc_roc, 0.5);
}

TEST_F(FaultToleranceTest, SkipPolicyDropsThePoisonedBatch) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);
  health::FaultPlan plan;
  plan.poison_grad_at_step = 3;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 2;
  config.health.policy = health::RecoveryPolicy::kSkipBatch;
  TinyGruModel model(3, 8, 2);
  TrainResult result = Trainer(config).Train(&model, prepared, split,
                                             data::Task::kMortality);
  EXPECT_EQ(result.status, health::TrainStatus::kRecovered);
  EXPECT_EQ(result.skipped_batches, 1);
  EXPECT_EQ(result.recoveries, 0);
  EXPECT_EQ(result.epochs_run, 2);
}

void ExpectAbortPolicyReturnsStructuredStatus(TrainEntry train) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);
  health::FaultPlan plan;
  plan.poison_grad_at_step = 3;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.health.policy = health::RecoveryPolicy::kAbort;
  TinyGruModel model(3, 8, 2);
  TrainResult result = train(config, &model, prepared, split);
  EXPECT_EQ(result.status, health::TrainStatus::kAborted);
  EXPECT_NE(result.status_message.find("non-finite"), std::string::npos)
      << result.status_message;
  EXPECT_NE(result.status_message.find("step 3"), std::string::npos)
      << result.status_message;
  // Metrics are best-so-far: the test split scored on the parameters the
  // run leaves in the model.
  const EvalResult now = Trainer::Evaluate(&model, prepared, split.test,
                                           data::Task::kMortality);
  EXPECT_DOUBLE_EQ(result.test.auc_roc, now.auc_roc);
  EXPECT_DOUBLE_EQ(result.test.bce, now.bce);
}

TEST_F(FaultToleranceTest, AbortPolicyReturnsStructuredStatus) {
  for (const auto& [name, train] : kEntries) {
    SCOPED_TRACE(name);
    ExpectAbortPolicyReturnsStructuredStatus(train);
  }
}

TEST_F(FaultToleranceTest, FailedCheckpointWriteDoesNotStopTraining) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  health::FaultPlan plan;
  plan.fail_write_at = 1;  // second checkpoint write fails
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 3;
  config.checkpoint_path = TempPath("fail_write.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  TrainResult result = Trainer(config).Train(&model, prepared, split,
                                             data::Task::kMortality);
  health::GlobalFaultInjector()->Disarm();
  EXPECT_EQ(result.status, health::TrainStatus::kOk);
  EXPECT_EQ(result.checkpoint_write_failures, 1);
  EXPECT_EQ(result.epochs_run, 3);
  // The surviving file is the epoch-3 write, still loadable.
  TrainCheckpoint ckpt;
  std::string error;
  ASSERT_TRUE(LoadTrainCheckpoint(config.checkpoint_path, &ckpt, &error))
      << error;
  EXPECT_EQ(ckpt.next_epoch, 3);
}

TEST_F(FaultToleranceTest, TornCheckpointWriteIsRejectedAtResume) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  health::FaultPlan plan;
  plan.truncate_write_at = 0;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 1;
  config.checkpoint_path = TempPath("torn.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  TrainResult result = Trainer(config).Train(&model, prepared, split,
                                             data::Task::kMortality);
  health::GlobalFaultInjector()->Disarm();
  EXPECT_EQ(result.checkpoint_write_failures, 1);

  config.resume = true;
  TinyGruModel model2(3, 4, 5);
  TrainResult resumed = Trainer(config).Train(&model2, prepared, split,
                                              data::Task::kMortality);
  EXPECT_EQ(resumed.status, health::TrainStatus::kCheckpointError);
  EXPECT_FALSE(resumed.status_message.empty());
}

}  // namespace
}  // namespace train
}  // namespace elda
