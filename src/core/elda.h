// The ELDA framework (paper Section III): the clinician-facing API around
// ELDA-Net. It owns the preprocessing pipeline (cleaning, standardisation,
// imputation), trains the model with validation-based model selection, and
// exposes the three functionalities of Fig. 2:
//
//   * Predictive analytics — risk scores and threshold-based alerts for
//     newly admitted patients.
//   * Time-level interaction interpretation — attention over earlier hours
//     against the final hour (Fig. 8).
//   * Feature-level interaction interpretation — per-hour C x C attention
//     between medical features (Figs. 9-10).

#ifndef ELDA_CORE_ELDA_H_
#define ELDA_CORE_ELDA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/elda_net.h"
#include "data/emr.h"
#include "data/pipeline.h"
#include "train/trainer.h"

namespace elda {
namespace core {

struct EldaConfig {
  EldaNetConfig net;
  train::TrainerConfig trainer;
  // Risk threshold above which an alert is raised for a patient.
  float alert_threshold = 0.5f;
  // Split fractions (train / val; the remainder is the test set).
  double train_fraction = 0.8;
  double val_fraction = 0.1;
  uint64_t split_seed = 17;
};

class Elda {
 public:
  explicit Elda(const EldaConfig& config);

  // Trains ELDA-Net on a cohort for the given task. Fits the standardizer on
  // the training split only. Returns validation/test metrics and timing.
  train::TrainResult Fit(const data::EmrDataset& cohort, data::Task task);

  // Risk probabilities for new raw (unstandardised) admissions.
  std::vector<float> PredictRisk(const std::vector<data::EmrSample>& samples);

  // Alert decisions: true where predicted risk exceeds the alert threshold.
  std::vector<bool> TriggerAlerts(
      const std::vector<data::EmrSample>& samples);

  // Persists the fitted deployment (network weights + standardisation
  // statistics + task/feature metadata) to `path`, one crash-safe
  // sectioned file with a CRC per section. Load() restores onto a
  // framework constructed with the same EldaConfig, after which
  // PredictRisk/Interpret work without re-training. Load() returns false
  // with a message in `error`, leaving the framework unchanged, on an
  // unreadable, truncated or checksum-failing file, an unknown task, a
  // feature count other than the network's, a non-finite mean or stddev,
  // a stddev <= 0, or a feature name over 256 bytes.
  bool Save(const std::string& path, std::string* error = nullptr) const;
  bool Load(const std::string& path, std::string* error = nullptr);

  // Dual-level interpretation for one raw admission.
  struct Interpretation {
    float risk = 0.0f;
    Tensor feature_attention;  // [T, C, C]; row i = weights when processing i
    Tensor time_attention;     // [T-1]
  };
  Interpretation Interpret(const data::EmrSample& sample);

  // -- Accessors used by the benchmark harness --------------------------------
  bool fitted() const { return fitted_; }
  EldaNet* net() { return net_.get(); }
  const data::Standardizer& standardizer() const { return standardizer_; }
  const data::SplitIndices& split() const { return split_; }
  const std::vector<data::PreparedSample>& prepared() const {
    return prepared_;
  }
  data::Task task() const { return task_; }

 private:
  std::vector<data::PreparedSample> PrepareRaw(
      const std::vector<data::EmrSample>& samples) const;

  EldaConfig config_;
  std::unique_ptr<EldaNet> net_;
  data::Standardizer standardizer_;
  data::SplitIndices split_;
  std::vector<data::PreparedSample> prepared_;
  std::vector<std::string> feature_names_;
  int64_t num_steps_ = 0;
  data::Task task_ = data::Task::kMortality;
  bool fitted_ = false;
};

}  // namespace core
}  // namespace elda

#endif  // ELDA_CORE_ELDA_H_
