// Regenerates Figure 9 and Table II: feature-level interaction attention for
// the representative DM+DLA "Patient A", at the onset of the glucose rise
// (hour 13) and after stabilisation (hour 35), plus the controlled
// experiment of Fig. 9b where every observed Lactate value is replaced by
// the cohort-normal value.
//
// Shape to reproduce:
//   * At hour 13, Glucose's attention concentrates on the DLA-coupled,
//     abnormal features (FiO2, HCO3, HR, Lactate, MAP, Temp) while
//     irrelevant features (HCT, WBC) stay low.
//   * Attention is asymmetric: pH attends to Lactate more than Lactate
//     attends to pH.
//   * At hour 35 (values back to normal) the distribution flattens.
//   * Normalising Lactate (Fig. 9b) collapses the attention that Glucose
//     and pH paid to it toward the average level.
//
// Flags: --admissions --epochs --full

#include <cmath>

#include "bench/bench_common.h"
#include "core/elda.h"
#include "synth/features.h"

namespace elda {
namespace {

const std::vector<std::string>& ShownFeatures() {
  // The ten features of the paper's Table II / Fig. 9.
  static const std::vector<std::string>* kShown =
      new std::vector<std::string>{"FiO2", "Glucose", "HCO3", "HCT",  "HR",
                                   "Lactate", "MAP",  "Temp", "pH",   "WBC"};
  return *kShown;
}

void PrintPatientValues(const core::Elda& elda,
                        const data::EmrSample& patient,
                        const std::vector<int64_t>& hours) {
  std::cout << "[Table II] Patient A's standardised values:\n";
  std::vector<std::string> header = {"feature"};
  for (int64_t h : hours) header.push_back("hour " + std::to_string(h));
  TablePrinter table(header);
  for (const std::string& name : ShownFeatures()) {
    const int64_t c = synth::FeatureIndexByName(name);
    std::vector<std::string> row = {name};
    for (int64_t h : hours) {
      const float standardized =
          (patient.value(h, c) - elda.standardizer().mean(c)) /
          elda.standardizer().stddev(c);
      row.push_back(TablePrinter::Num(standardized, 2));
    }
    table.AddRow(row);
  }
  std::cout << table.ToString() << "\n";
}

// Prints the attention submatrix over the shown features at one hour.
void PrintAttention(const Tensor& attention, int64_t hour) {
  std::cout << "attention (%) at hour " << hour
            << " (row = feature being processed):\n";
  std::vector<std::string> header = {"row\\col"};
  for (const std::string& name : ShownFeatures()) header.push_back(name);
  TablePrinter table(header);
  for (const std::string& row_name : ShownFeatures()) {
    const int64_t i = synth::FeatureIndexByName(row_name);
    std::vector<std::string> row = {row_name};
    for (const std::string& col_name : ShownFeatures()) {
      const int64_t j = synth::FeatureIndexByName(col_name);
      row.push_back(TablePrinter::Num(100.0 * attention.at({hour, i, j}), 1));
    }
    table.AddRow(row);
  }
  std::cout << table.ToString() << "\n";
}

data::EmrSample NormaliseLactate(const data::EmrSample& patient,
                                 float lactate_mean) {
  data::EmrSample modified = patient;
  const int64_t c = synth::kLactate;
  for (int64_t t = 0; t < modified.num_steps; ++t) {
    if (modified.is_observed(t, c)) modified.value(t, c) = lactate_mean;
  }
  return modified;
}

double AttentionTo(const Tensor& attention, int64_t hour, int64_t row,
                   int64_t col) {
  return attention.at({hour, row, col});
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchScale scale;
  bench::BenchFlagValues values;
  util::ArgParser parser("bench_fig9_feature_attention",
                         "Figure 9 + Table II: feature-level attention for "
                         "the DLA showcase patient.");
  bench::RegisterBenchFlags(&parser, &values);
  parser.Parse(argc, argv);
  bench::ResolveBenchScale(values, &scale, /*default_admissions=*/800,
                           /*default_epochs=*/12);
  bench::PrintHeader(
      "Figure 9 + Table II: feature-level attention for DM+DLA Patient A",
      "Trains ELDA on SynthPhysioNet2012 (mortality), then interprets the\n"
      "scripted DLA showcase admission at hour 13 (glucose rising) and hour\n"
      "35 (stabilised), with the Fig. 9b Lactate-normalisation control.");

  synth::CohortConfig config = bench::ScaledPhysioNet(scale);
  data::EmrDataset cohort = synth::GenerateCohort(config);

  core::EldaConfig elda_config;
  elda_config.trainer = scale.trainer;
  core::Elda elda(elda_config);
  train::TrainResult result = elda.Fit(cohort, data::Task::kMortality);
  std::cout << "ELDA trained: test AUC-PR "
            << TablePrinter::Num(result.test.auc_pr, 3) << ", AUC-ROC "
            << TablePrinter::Num(result.test.auc_roc, 3) << "\n\n";

  data::EmrSample patient = synth::MakeDlaShowcasePatient();
  const std::vector<int64_t> hours = {13, 35};
  PrintPatientValues(elda, patient, hours);

  core::Elda::Interpretation interp = elda.Interpret(patient);
  std::cout << "predicted mortality risk for Patient A: "
            << TablePrinter::Num(interp.risk, 3) << "\n\n";
  std::cout << "[Fig. 9a] original EMR data\n";
  for (int64_t h : hours) PrintAttention(interp.feature_attention, h);

  // Controlled experiment (Fig. 9b): normalise Lactate.
  data::EmrSample modified =
      NormaliseLactate(patient, elda.standardizer().mean(synth::kLactate));
  core::Elda::Interpretation control = elda.Interpret(modified);
  std::cout << "[Fig. 9b] after replacing observed Lactate with the cohort "
               "mean\n";
  for (int64_t h : hours) PrintAttention(control.feature_attention, h);

  // Quantitative summary of the controlled effect at the episode hour.
  const int64_t glucose = synth::kGlucose;
  const int64_t ph = synth::kPh;
  const int64_t lactate = synth::kLactate;
  const double uniform = 1.0 / 36.0;
  std::cout << "Lactate's share of attention at hour 13 "
               "(paper: drops to the average level after normalisation):\n";
  TablePrinter summary({"row", "original", "lactate normalised",
                        "uniform level"});
  for (const auto& [label, row] :
       {std::pair<std::string, int64_t>{"Glucose", glucose},
        std::pair<std::string, int64_t>{"pH", ph}}) {
    summary.AddRow(
        {label,
         TablePrinter::Num(
             100.0 * AttentionTo(interp.feature_attention, 13, row, lactate),
             1) + "%",
         TablePrinter::Num(
             100.0 *
                 AttentionTo(control.feature_attention, 13, row, lactate),
             1) + "%",
         TablePrinter::Num(100.0 * uniform, 1) + "%"});
  }
  std::cout << summary.ToString();
  return 0;
}
