// Quickstart: train ELDA on a synthetic ICU cohort, predict mortality risk
// for newly admitted patients, and pull dual-level interpretations.
//
//   $ ./examples/quickstart [--admissions N] [--epochs E]

#include <iostream>

#include "core/elda.h"
#include "synth/simulator.h"
#include "util/argparse.h"

int main(int argc, char** argv) {
  using namespace elda;
  int64_t admissions = 400;
  int64_t epochs = 6;
  util::ArgParser parser("quickstart",
                         "Train ELDA on a synthetic ICU cohort, score new "
                         "admissions and interpret them.");
  parser.Int("admissions", &admissions, "synthetic cohort admissions", 1)
      .Int("epochs", &epochs, "training epochs", 0);
  parser.Parse(argc, argv);

  // 1. A cohort of ICU admissions (stand-in for a hospital EMR extract).
  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = admissions;
  data::EmrDataset cohort = synth::GenerateCohort(cohort_config);
  std::cout << "cohort: " << cohort.size() << " admissions, "
            << cohort.num_features() << " features, "
            << cohort.num_steps() << " hourly steps, "
            << 100.0 * cohort.MissingRate() << "% cells unobserved\n";

  // 2. Configure and fit ELDA for in-hospital mortality prediction.
  core::EldaConfig config;
  config.trainer.max_epochs = epochs;
  config.alert_threshold = 0.5f;
  core::Elda elda(config);
  train::TrainResult result = elda.Fit(cohort, data::Task::kMortality);
  std::cout << "trained ELDA-Net (" << result.num_parameters
            << " params) in " << result.epochs_run
            << " epochs; test AUC-ROC=" << result.test.auc_roc
            << " AUC-PR=" << result.test.auc_pr << "\n";

  // 3. Score newly admitted patients and raise alerts.
  synth::CohortConfig incoming_config = cohort_config;
  incoming_config.num_admissions = 5;
  incoming_config.seed = 424242;
  data::EmrDataset incoming = synth::GenerateCohort(incoming_config);
  std::vector<data::EmrSample> new_patients(incoming.samples().begin(),
                                            incoming.samples().end());
  std::vector<float> risks = elda.PredictRisk(new_patients);
  std::vector<bool> alerts = elda.TriggerAlerts(new_patients);
  for (size_t i = 0; i < new_patients.size(); ++i) {
    std::cout << "patient " << i << ": predicted mortality risk " << risks[i]
              << (alerts[i] ? "  << ALERT" : "") << "\n";
  }

  // 4. Dual-level interpretation of a high-risk diabetic patient.
  data::EmrSample patient = synth::MakeDlaShowcasePatient();
  core::Elda::Interpretation interp = elda.Interpret(patient);
  std::cout << "showcase DM+DLA patient: risk " << interp.risk << "\n";
  // Which earlier hour interacts most with the final state?
  int64_t peak_hour = 0;
  for (int64_t t = 1; t < interp.time_attention.size(); ++t) {
    if (interp.time_attention[t] > interp.time_attention[peak_hour]) {
      peak_hour = t;
    }
  }
  std::cout << "  most attended earlier hour: " << peak_hour << " (weight "
            << interp.time_attention[peak_hour] << ")\n";
  // Which feature does Glucose interact with most at that hour?
  const int64_t glucose = synth::FeatureIndexByName("Glucose");
  int64_t partner = 0;
  for (int64_t j = 1; j < cohort.num_features(); ++j) {
    if (interp.feature_attention.at({peak_hour, glucose, j}) >
        interp.feature_attention.at({peak_hour, glucose, partner})) {
      partner = j;
    }
  }
  std::cout << "  Glucose's strongest interaction at that hour: "
            << cohort.feature_names()[partner] << " ("
            << 100.0f * interp.feature_attention.at(
                            {peak_hour, glucose, partner})
            << "% of its attention)\n";

  // 5. Persist the deployment and restore it in a fresh process/framework.
  const std::string checkpoint = "/tmp/elda_quickstart.eldaw";
  std::string error;
  if (elda.Save(checkpoint, &error)) {
    core::Elda restored(config);
    if (restored.Load(checkpoint, &error)) {
      const float again = restored.PredictRisk({patient})[0];
      std::cout << "checkpoint round trip: risk " << interp.risk << " -> "
                << again << " (identical)\n";
    }
  }
  return 0;
}
