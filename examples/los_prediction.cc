// Scenario example: length-of-stay (LOS > 7 days) prediction for bed
// management — the paper's second application — comparing ELDA against two
// representative baselines on the same prepared cohort.
//
//   $ ./examples/los_prediction [--admissions N] [--epochs E]

#include <iostream>

#include "baselines/baselines.h"
#include "core/elda.h"
#include "synth/simulator.h"
#include "train/experiment.h"
#include "util/argparse.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace elda;
  int64_t admissions = 400;
  int64_t epochs = 6;
  util::ArgParser parser("los_prediction",
                         "LOS > 7 days prediction: ELDA vs two baselines, "
                         "plus bed planning.");
  parser.Int("admissions", &admissions, "synthetic cohort admissions", 1)
      .Int("epochs", &epochs, "training epochs", 0);
  parser.Parse(argc, argv);

  synth::CohortConfig cohort_config = synth::SynthMimicIii();
  cohort_config.num_admissions = admissions;
  data::EmrDataset cohort = synth::GenerateCohort(cohort_config);
  std::cout << "cohort: " << cohort.size() << " admissions; "
            << cohort.CountLosGt7() << " stayed > 7 days\n\n";

  train::PreparedExperiment experiment(cohort, data::Task::kLosGt7);
  train::TrainerConfig trainer_config;
  trainer_config.max_epochs = epochs;

  TablePrinter table({"model", "BCE", "AUC-ROC", "AUC-PR"});
  for (const char* name : {"LR", "GRU-D", "ELDA-Net"}) {
    train::ModelStats stats = baselines::RunModelByName(
        name, experiment, trainer_config, /*num_runs=*/1);
    if (stats.failed_runs > 0) {
      std::cerr << "error: the " << name << " run failed (status above)\n";
      return 1;
    }
    table.AddRow({stats.name, TablePrinter::Num(stats.bce.mean, 3),
                  TablePrinter::Num(stats.auc_roc.mean, 3),
                  TablePrinter::Num(stats.auc_pr.mean, 3)});
  }
  std::cout << table.ToString();
  std::cout << "\nGRU-D is the paper's strongest LOS baseline; ELDA-Net "
               "should match or exceed it.\n";

  // Capacity planning: expected number of beds still occupied after a week,
  // estimated from the fitted ELDA framework over the current admissions.
  core::EldaConfig elda_config;
  elda_config.trainer = trainer_config;
  core::Elda elda(elda_config);
  elda.Fit(cohort, data::Task::kLosGt7);
  synth::CohortConfig current_config = cohort_config;
  current_config.num_admissions = 50;
  current_config.seed = 271828;
  data::EmrDataset current = synth::GenerateCohort(current_config);
  std::vector<data::EmrSample> current_patients(current.samples().begin(),
                                                current.samples().end());
  std::vector<float> probabilities = elda.PredictRisk(current_patients);
  double expected_long_stays = 0.0;
  for (float p : probabilities) expected_long_stays += p;
  std::cout << "\ncapacity planning: of " << current.size()
            << " current admissions, expected " << expected_long_stays
            << " will still occupy a bed after 7 days\n";
  return 0;
}
