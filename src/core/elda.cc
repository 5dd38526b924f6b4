#include "core/elda.h"

#include <cmath>
#include <cstdint>

#include "health/ckpt_io.h"
#include "nn/serialize.h"
#include "tensor/tensor_ops.h"
#include "util/byte_codec.h"

namespace elda {
namespace core {
namespace {

// The deployment file: a sectioned container (health/ckpt_io.h) with the
// net's parameter blob under "params" (so nn::LoadParameters reads it too)
// and, under "deployment":
//   u8 task (0 mortality, 1 LOS > 7 days) | i64 num_steps |
//   u8 clean_negative | u32 features |
//   per feature: u32 name_len | name | f32 mean | f32 stddev
constexpr char kParamsSection[] = "params";
constexpr char kDeploymentSection[] = "deployment";
constexpr size_t kMaxFeatureNameLength = 256;

}  // namespace

Elda::Elda(const EldaConfig& config) : config_(config) {
  net_ = std::make_unique<EldaNet>(config_.net);
}

train::TrainResult Elda::Fit(const data::EmrDataset& cohort,
                             data::Task task) {
  ELDA_CHECK_EQ(cohort.num_features(), config_.net.num_features);
  task_ = task;
  feature_names_ = cohort.feature_names();
  num_steps_ = cohort.num_steps();
  Rng split_rng(config_.split_seed);
  std::vector<float> labels;
  labels.reserve(cohort.size());
  for (const data::EmrSample& s : cohort.samples()) {
    labels.push_back(task == data::Task::kMortality ? s.mortality_label
                                                    : s.los_gt7_label);
  }
  split_ = data::StratifiedSplit(labels, config_.train_fraction,
                                 config_.val_fraction, &split_rng);
  standardizer_.Fit(cohort, split_.train);
  prepared_ = data::PrepareDataset(cohort, standardizer_);
  train::Trainer trainer(config_.trainer);
  train::TrainResult result =
      trainer.Train(net_.get(), prepared_, split_, task);
  fitted_ = true;
  return result;
}

std::vector<data::PreparedSample> Elda::PrepareRaw(
    const std::vector<data::EmrSample>& samples) const {
  ELDA_CHECK(fitted_) << "call Fit() before predicting";
  data::EmrDataset scratch(feature_names_, num_steps_);
  for (const data::EmrSample& s : samples) scratch.Add(s);
  return data::PrepareDataset(scratch, standardizer_);
}

std::vector<float> Elda::PredictRisk(
    const std::vector<data::EmrSample>& samples) {
  std::vector<data::PreparedSample> prepared = PrepareRaw(samples);
  std::vector<int64_t> indices(prepared.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int64_t>(i);
  }
  return train::Trainer::Predict(net_.get(), prepared, indices, task_).scores;
}

std::vector<bool> Elda::TriggerAlerts(
    const std::vector<data::EmrSample>& samples) {
  std::vector<float> risks = PredictRisk(samples);
  std::vector<bool> alerts(risks.size());
  for (size_t i = 0; i < risks.size(); ++i) {
    alerts[i] = risks[i] >= config_.alert_threshold;
  }
  return alerts;
}

bool Elda::Save(const std::string& path, std::string* error) const {
  if (!fitted_) return util::Fail(error, "cannot save an unfitted framework");
  util::ByteWriter deployment;
  deployment.Put(static_cast<uint8_t>(task_ == data::Task::kMortality ? 0 : 1));
  deployment.Put(num_steps_);
  deployment.Put(static_cast<uint8_t>(standardizer_.clean_negative()));
  deployment.Put(static_cast<uint32_t>(feature_names_.size()));
  for (size_t c = 0; c < feature_names_.size(); ++c) {
    deployment.PutString<uint32_t>(feature_names_[c]);
    deployment.Put(standardizer_.mean(c));
    deployment.Put(standardizer_.stddev(c));
  }
  return health::WriteSectionedFile(
      path,
      {{kParamsSection, nn::EncodeParameters(*net_)},
       {kDeploymentSection, deployment.Take()}},
      error);
}

bool Elda::Load(const std::string& path, std::string* error) {
  using util::Fail;
  std::vector<health::Section> sections;
  if (!health::ReadSectionedFile(path, &sections, error)) return false;
  const health::Section* params = health::FindSection(sections, kParamsSection);
  const health::Section* deployment =
      health::FindSection(sections, kDeploymentSection);
  if (params == nullptr || deployment == nullptr) {
    return Fail(error, path + " is not an ELDA deployment file");
  }
  // Everything is checked before the net or the standardiser changes.
  util::ByteReader reader(deployment->payload);
  uint8_t task = 0, clean_negative = 0;
  int64_t num_steps = 0;
  uint32_t features = 0;
  if (!reader.Get(&task) || !reader.Get(&num_steps) ||
      !reader.Get(&clean_negative) || !reader.Get(&features)) {
    return Fail(error, "truncated deployment header in " + path);
  }
  if (task > 1 || clean_negative > 1 || num_steps <= 0) {
    return Fail(error, "corrupt deployment header in " + path);
  }
  if (features != config_.net.num_features) {
    return Fail(error, path + " holds " + std::to_string(features) +
                           " features, the network takes " +
                           std::to_string(config_.net.num_features));
  }
  std::vector<std::string> names(features);
  std::vector<float> means(features), stddevs(features);
  for (uint32_t c = 0; c < features; ++c) {
    if (!reader.GetString<uint32_t>(&names[c], kMaxFeatureNameLength) ||
        !reader.Get(&means[c]) || !reader.Get(&stddevs[c])) {
      return Fail(error, "corrupt feature " + std::to_string(c) + " in " +
                             path);
    }
    if (!std::isfinite(means[c]) || !std::isfinite(stddevs[c]) ||
        !(stddevs[c] > 0.0f)) {
      return Fail(error, "feature " + names[c] + " in " + path +
                             " needs a finite mean and stddev > 0");
    }
  }
  if (!reader.AtEnd()) {
    return Fail(error, "trailing bytes in the deployment of " + path);
  }
  if (!nn::DecodeParameters(net_.get(), params->payload, error)) return false;
  task_ = task == 0 ? data::Task::kMortality : data::Task::kLosGt7;
  num_steps_ = num_steps;
  feature_names_ = std::move(names);
  standardizer_.Restore(std::move(means), std::move(stddevs),
                        clean_negative != 0);
  fitted_ = true;
  return true;
}

Elda::Interpretation Elda::Interpret(const data::EmrSample& sample) {
  std::vector<data::PreparedSample> prepared = PrepareRaw({sample});
  data::Batch batch = data::MakeBatch(prepared, {0}, task_);
  // Interpretation is pure inference: graph-free forward, surfaces via the
  // capture sink owned by this call.
  ag::NoGradScope no_grad;
  nn::CaptureSink sink;
  nn::ForwardContext ctx;
  ctx.capture = &sink;
  Interpretation out;
  Tensor logits = net_->Forward(batch, &ctx).value();
  out.risk = Sigmoid(logits)[0];
  const int64_t steps = sample.num_steps;
  const int64_t features = sample.num_features;
  if (config_.net.use_feature_module) {
    out.feature_attention =
        sink.Get("feature_attention").Reshape({steps, features, features});
  }
  if (config_.net.use_time_interactions) {
    out.time_attention = sink.Get("time_attention").Reshape({steps - 1});
  }
  return out;
}

}  // namespace core
}  // namespace elda
