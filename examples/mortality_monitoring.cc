// Scenario example: continuous mortality-risk monitoring on an ICU ward
// (the "Predictive Analytics" functionality of the paper's Fig. 2).
//
// A model is trained on historical admissions; then, for each currently
// admitted patient, the ward is re-scored as data accrues: at hour 12, 24,
// 36 and 48 the patient's record is truncated to the data observed so far
// (later cells masked out) and ELDA re-estimates the risk. Patients whose
// risk crosses the alert threshold are flagged, and the interpretation API
// names the hour and feature interaction driving the alert.
//
//   $ ./examples/mortality_monitoring [--admissions N] [--epochs E]
//                                     [--threshold P]
//                                     [--checkpoint PATH]
//                                     [--checkpoint-every K] [--resume]
//                                     [--fault-plan SPEC]
//
// The fault-tolerance flags exercise elda::health: --checkpoint/-every
// write crash-safe training checkpoints, --resume continues a killed run
// from the checkpoint, and --fault-plan injects deterministic faults (e.g.
// "poison_grad@40" or "fail_write@0") to rehearse the recovery paths.

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/elda.h"
#include "health/health.h"
#include "synth/simulator.h"
#include "util/argparse.h"

int main(int argc, char** argv) {
  using namespace elda;
  int64_t admissions = 400;
  int64_t epochs = 6;
  double threshold = 0.4;
  std::string checkpoint;
  int64_t checkpoint_every = -1;  // default derived from --checkpoint below
  bool resume = false;
  std::string fault_spec;
  util::ArgParser parser(
      "mortality_monitoring",
      "Continuous mortality-risk monitoring on a synthetic ICU ward.");
  parser.Int("admissions", &admissions, "historical training admissions", 1)
      .Int("epochs", &epochs, "training epochs", 0)
      .Double("threshold", &threshold, "alert threshold on predicted risk")
      .String("checkpoint", &checkpoint, "crash-safe checkpoint path")
      .Int("checkpoint-every", &checkpoint_every,
           "checkpoint every K epochs (unset: 1 when --checkpoint set)", 0)
      .Bool("resume", &resume, "resume training from the checkpoint")
      .String("fault-plan", &fault_spec,
              "deterministic fault injection spec, e.g. poison_grad@40");
  parser.Parse(argc, argv);

  // Optional deterministic fault injection (same syntax as ELDA_FAULT_PLAN).
  if (!fault_spec.empty()) {
    health::FaultPlan plan;
    std::string parse_error;
    if (!health::FaultPlan::Parse(fault_spec, &plan, &parse_error)) {
      std::cerr << "bad --fault-plan: " << parse_error << "\n";
      return EXIT_FAILURE;
    }
    health::GlobalFaultInjector()->Arm(plan);
  }

  // Historical cohort and model training.
  synth::CohortConfig history_config = synth::SynthPhysioNet2012();
  history_config.num_admissions = admissions;
  data::EmrDataset history = synth::GenerateCohort(history_config);
  core::EldaConfig config;
  config.trainer.max_epochs = epochs;
  config.trainer.checkpoint_path = checkpoint;
  config.trainer.checkpoint_every =
      checkpoint_every >= 0 ? checkpoint_every : (checkpoint.empty() ? 0 : 1);
  config.trainer.resume = resume;
  config.alert_threshold = static_cast<float>(threshold);
  core::Elda elda(config);
  train::TrainResult fit = elda.Fit(history, data::Task::kMortality);
  if (fit.status != health::TrainStatus::kOk &&
      fit.status != health::TrainStatus::kRecovered) {
    std::cerr << "training failed (" << health::TrainStatusName(fit.status)
              << "): " << fit.status_message << "\n";
    return EXIT_FAILURE;
  }
  if (fit.status == health::TrainStatus::kRecovered) {
    std::cout << "training recovered from " << fit.recoveries
              << " rollback(s), " << fit.skipped_batches
              << " skipped batch(es)\n";
  }
  std::cout << "monitoring model ready (test AUC-PR " << fit.test.auc_pr
            << ", alert threshold " << config.alert_threshold << ")\n\n";

  // The current ward: a handful of ongoing admissions.
  synth::CohortConfig ward_config = history_config;
  ward_config.num_admissions = 8;
  ward_config.seed = 314159;
  data::EmrDataset ward = synth::GenerateCohort(ward_config);

  std::cout << "ward risk board (risk re-estimated as data accrues):\n";
  std::cout << "patient | condition |  h12 |  h24 |  h36 |  h48 | status\n";
  std::cout << "--------+-----------+------+------+------+------+-------\n";
  for (int64_t i = 0; i < ward.size(); ++i) {
    const data::EmrSample& patient = ward.sample(i);
    std::cout << "   " << i << "    | " << std::setw(9)
              << synth::ConditionName(
                     static_cast<synth::Condition>(patient.condition))
              << " |";
    bool alerted = false;
    float final_risk = 0.0f;
    for (int64_t hour : {12, 24, 36, 48}) {
      const float risk =
          elda.PredictRisk({data::TruncateToHour(patient, hour)})[0];
      std::cout << " " << std::fixed << std::setprecision(2) << risk << " |";
      alerted = alerted || risk >= config.alert_threshold;
      final_risk = risk;
    }
    std::cout << (alerted ? "  ALERT" : "  ok") << "\n";
    // For alerted patients, name the driver via the interpretation API.
    if (alerted) {
      core::Elda::Interpretation interp = elda.Interpret(patient);
      int64_t hot_hour = 0;
      for (int64_t t = 1; t < interp.time_attention.size(); ++t) {
        if (interp.time_attention[t] > interp.time_attention[hot_hour]) {
          hot_hour = t;
        }
      }
      // Strongest feature-to-feature attention at the hot hour.
      int64_t best_i = 0, best_j = 1;
      for (int64_t a = 0; a < patient.num_features; ++a) {
        for (int64_t b = 0; b < patient.num_features; ++b) {
          if (a == b) continue;
          if (interp.feature_attention.at({hot_hour, a, b}) >
              interp.feature_attention.at({hot_hour, best_i, best_j})) {
            best_i = a;
            best_j = b;
          }
        }
      }
      std::cout << "        `- risk " << std::setprecision(2) << final_risk
                << ": critical hour " << hot_hour << "; "
                << ward.feature_names()[best_i] << " <-> "
                << ward.feature_names()[best_j] << " interaction carries "
                << std::setprecision(0)
                << 100.0f *
                       interp.feature_attention.at({hot_hour, best_i, best_j})
                << "% of " << ward.feature_names()[best_i]
                << "'s attention\n";
    }
  }
  return 0;
}
