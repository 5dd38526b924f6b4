// Regenerates Figure 10: the hour-by-hour trace of the attention the
// Glucose row pays to other medical features across Patient A's 48-hour
// stay, for ELDA-Net (Fig. 10a) and the ELDA-Net-F_fm ablation (Fig. 10b).
//
// Shape to reproduce:
//   * ELDA-Net: DLA-coupled features (FiO2, HR, Lactate, ...) attract more
//     attention while Glucose is abnormal (the episode hours); weakly
//     related features (HCT, WBC) stay flat.
//   * ELDA-Net-F_fm: the FM linear embedding's scale grows with |value|, so
//     the extreme Lactate monopolises the attention (paper: > 50%) and
//     crowds out the other abnormal features.
//
// Flags: --admissions --epochs --full

#include "bench/bench_common.h"
#include "core/elda.h"
#include "core/interpret.h"
#include "synth/features.h"

namespace elda {
namespace {

const std::vector<std::string>& TracedFeatures() {
  static const std::vector<std::string>* kTraced =
      new std::vector<std::string>{"FiO2", "HR",  "Lactate",
                                   "pH",   "HCT", "WBC"};
  return *kTraced;
}

void PrintTrace(const std::string& title, const core::Elda& elda,
                const core::Elda::Interpretation& interp,
                const data::EmrSample& patient) {
  std::cout << "[" << title << "] attention (%) of the Glucose row, and the "
               "standardised Glucose value:\n";
  std::vector<std::string> header = {"hour", "Glucose(z)"};
  for (const std::string& name : TracedFeatures()) header.push_back(name);
  TablePrinter table(header);
  const int64_t glucose = synth::kGlucose;
  for (int64_t t = 0; t < patient.num_steps; t += 3) {
    const float z =
        (patient.value(t, glucose) - elda.standardizer().mean(glucose)) /
        elda.standardizer().stddev(glucose);
    std::vector<std::string> row = {std::to_string(t),
                                    TablePrinter::Num(z, 2)};
    for (const std::string& name : TracedFeatures()) {
      const int64_t j = synth::FeatureIndexByName(name);
      row.push_back(TablePrinter::Num(
          100.0 * interp.feature_attention.at({t, glucose, j}), 1));
    }
    table.AddRow(row);
  }
  std::cout << table.ToString();

  // Episode (hours 16-29) vs baseline (hours 0-11) attention summary.
  TablePrinter summary(
      {"feature", "pre-episode (0-11)", "episode (16-29)", "late (40-47)"});
  for (const std::string& name : TracedFeatures()) {
    const std::vector<float> trace = core::AttentionTrace(
        interp.feature_attention, glucose, synth::FeatureIndexByName(name));
    const auto window_pct = [&](int64_t from, int64_t to) {
      return TablePrinter::Num(100.0 * core::TraceWindowMean(trace, from, to),
                               1);
    };
    summary.AddRow(
        {name, window_pct(0, 12), window_pct(16, 30), window_pct(40, 48)});
  }
  std::cout << summary.ToString() << "\n";
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchScale scale;
  bench::BenchFlagValues values;
  util::ArgParser parser("bench_fig10_attention_trace",
                         "Figure 10: Glucose's interaction attention over "
                         "time.");
  bench::RegisterBenchFlags(&parser, &values);
  parser.Parse(argc, argv);
  bench::ResolveBenchScale(values, &scale, /*default_admissions=*/800,
                           /*default_epochs=*/12);
  bench::PrintHeader(
      "Figure 10: change of Glucose's interaction attention over time",
      "ELDA-Net vs the ELDA-Net-F_fm ablation on the same DLA patient.\n"
      "Expected: coupled features gain attention during the episode under\n"
      "ELDA-Net; under F_fm the extreme Lactate dominates (paper: >50%).");

  synth::CohortConfig config = bench::ScaledPhysioNet(scale);
  data::EmrDataset cohort = synth::GenerateCohort(config);
  data::EmrSample patient = synth::MakeDlaShowcasePatient();

  for (const bool use_fm : {false, true}) {
    core::EldaConfig elda_config;
    elda_config.trainer = scale.trainer;
    if (use_fm) {
      // Full architecture but with the FM linear embedding, isolating the
      // embedding mechanism exactly as Fig. 10b does.
      elda_config.net.embedding = core::EmbeddingVariant::kFmLinear;
      elda_config.net.display_name = "ELDA-Net-Ffm(full)";
    }
    core::Elda elda(elda_config);
    train::TrainResult result = elda.Fit(cohort, data::Task::kMortality);
    std::cout << (use_fm ? "ELDA-Net-F_fm" : "ELDA-Net")
              << " trained: test AUC-PR "
              << TablePrinter::Num(result.test.auc_pr, 3) << "\n";
    core::Elda::Interpretation interp = elda.Interpret(patient);
    PrintTrace(use_fm ? "Fig. 10b: ELDA-Net-F_fm" : "Fig. 10a: ELDA-Net",
               elda, interp, patient);
  }
  return 0;
}
