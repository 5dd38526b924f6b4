// Scenario example: a clinician-facing interpretation report for one
// admission, combining both of ELDA's interpretation surfaces (the paper's
// "Time-level Interaction Interpretation" and "Feature-level Interaction
// Interpretation" functionalities).
//
//   $ ./examples/interpretability_report [--admissions N] [--epochs E]

#include <algorithm>
#include <iostream>

#include "core/elda.h"
#include "core/interpret.h"
#include "synth/features.h"
#include "synth/simulator.h"
#include "util/argparse.h"
#include "util/table.h"

namespace {

using elda::TablePrinter;

}  // namespace

int main(int argc, char** argv) {
  using namespace elda;
  int64_t admissions = 400;
  int64_t epochs = 6;
  util::ArgParser parser("interpretability_report",
                         "Clinician-facing report of ELDA's dual-level "
                         "interpretations.");
  parser.Int("admissions", &admissions, "synthetic cohort admissions", 1)
      .Int("epochs", &epochs, "training epochs", 0);
  parser.Parse(argc, argv);

  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = admissions;
  data::EmrDataset cohort = synth::GenerateCohort(cohort_config);
  core::EldaConfig config;
  config.trainer.max_epochs = epochs;
  core::Elda elda(config);
  elda.Fit(cohort, data::Task::kMortality);

  data::EmrSample patient = synth::MakeDlaShowcasePatient();
  core::Elda::Interpretation interp = elda.Interpret(patient);
  const auto& names = cohort.feature_names();

  std::cout << "==========================================================\n";
  std::cout << " ELDA interpretation report - patient " << patient.patient_id
            << " (" << synth::ConditionName(static_cast<synth::Condition>(
                            patient.condition))
            << ")\n";
  std::cout << " predicted in-hospital mortality risk: " << interp.risk
            << "\n";
  std::cout << "==========================================================\n\n";

  // --- Time level: which hours shaped the final assessment? ---------------
  std::vector<int64_t> hours(interp.time_attention.size());
  for (size_t t = 0; t < hours.size(); ++t) hours[t] = t;
  std::sort(hours.begin(), hours.end(), [&](int64_t a, int64_t b) {
    return interp.time_attention[a] > interp.time_attention[b];
  });
  std::cout << "Critical hours (time-level interaction attention):\n";
  TablePrinter time_table({"rank", "hour", "attention"});
  for (int64_t rank = 0; rank < 5; ++rank) {
    time_table.AddRow(
        {std::to_string(rank + 1), std::to_string(hours[rank]),
         TablePrinter::Num(100.0 * interp.time_attention[hours[rank]], 1) +
             "%"});
  }
  std::cout << time_table.ToString() << "\n";

  // --- Feature level: strongest interactions at the top critical hour. ----
  const int64_t hot = hours[0];
  std::cout << "Strongest feature interactions at hour " << hot << ":\n";
  TablePrinter pair_table(
      {"processing feature", "interacting with", "attention", "value(z)"});
  for (const core::InteractionScore& p :
       core::TopInteractions(interp.feature_attention, hot, 8)) {
    const float z =
        (patient.value(hot, p.target) - elda.standardizer().mean(p.target)) /
        elda.standardizer().stddev(p.target);
    pair_table.AddRow({names[p.source], names[p.target],
                       TablePrinter::Num(100.0 * p.weight, 1) + "%",
                       TablePrinter::Num(z, 2)});
  }
  std::cout << pair_table.ToString() << "\n";

  // --- Narrative summary ---------------------------------------------------
  const int64_t glucose = synth::kGlucose;
  const int64_t lactate = synth::kLactate;
  std::cout << "Narrative: during hour " << hot
            << ", Glucose's attention to Lactate was "
            << TablePrinter::Num(
                   100.0 * interp.feature_attention.at({hot, glucose,
                                                        lactate}),
                   1)
            << "% (uniform level would be "
            << TablePrinter::Num(100.0 / 36.0, 1)
            << "%). Co-elevation of Glucose and Lactate with low pH is the "
               "DM+DLA signature the paper's Section V-D analyses.\n";
  return 0;
}
