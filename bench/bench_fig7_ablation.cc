// Regenerates Figure 7: the ablation study over ELDA-Net's modules and
// embedding mechanisms — ELDA-Net-T, -F_fm, -F_fm*, -F_bi, -F_bi* and the
// full model — with the best baseline as a reference line.
//
// Paper anchors (PhysioNet2012 mortality AUC-PR): ELDA-Net-T = 0.559,
// plain GRU = 0.536, best baseline (Dipole_l) = 0.547. Expected shape:
//   * ELDA-Net-T alone already beats the baselines (time interactions help).
//   * F_fm* > F_fm (separate embedding for standardised zeros helps FM).
//   * F_bi > F_fm and F_bi > F_fm* (bi-directional embedding wins).
//   * F_bi > F_bi* (the all-ones-at-zero hack breaks continuity and hurts).
//   * Full ELDA-Net > every single-module variant (the levels complement).
//
// Flags: --admissions --epochs --runs --dataset physionet|mimic|both
//        --task mortality|los|both --full

#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "train/experiment.h"

namespace elda {
namespace {

std::string WithStd(const metrics::MeanStd& ms) {
  std::string out = TablePrinter::Num(ms.mean, 3);
  if (ms.stddev > 0.0) out += " +/- " + TablePrinter::Num(ms.stddev, 3);
  return out;
}

// Returns false when every run of some variant failed.
bool RunSetting(const std::string& dataset_name,
                const synth::CohortConfig& config, data::Task task,
                const bench::BenchScale& scale) {
  const std::string task_name =
      task == data::Task::kMortality ? "in-hospital mortality" : "LOS > 7d";
  std::cout << "--- " << dataset_name << " / " << task_name << " ---\n";
  data::EmrDataset cohort = synth::GenerateCohort(config);
  train::PreparedExperiment experiment(cohort, task);

  const std::vector<std::string> variants = {
      "GRU",          // dashed reference line in Fig. 7
      "Dipole-c",     // strong attention baseline reference
      "ELDA-Net-T",   "ELDA-Net-Ffm", "ELDA-Net-Ffm*",
      "ELDA-Net-Fbi", "ELDA-Net-Fbi*", "ELDA-Net",
  };
  TablePrinter table({"variant", "BCE", "AUC-ROC", "AUC-PR"});
  for (const std::string& name : variants) {
    train::ModelStats stats =
        baselines::RunModelByName(name, experiment, scale.trainer,
                                  scale.runs);
    if (bench::AllRunsFailed(stats, scale.runs)) return false;
    table.AddRow({stats.name, WithStd(stats.bce), WithStd(stats.auc_roc),
                  WithStd(stats.auc_pr)});
    std::cout << "." << std::flush;
  }
  std::cout << "\n" << table.ToString() << std::endl;
  return true;
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchFlagValues values;
  std::string dataset = "physionet";
  std::string task_flag = "both";
  util::ArgParser parser("bench_fig7_ablation",
                         "Figure 7: ablation study of ELDA-Net's modules.");
  bench::RegisterBenchFlags(&parser, &values);
  parser.String("dataset", &dataset, "physionet|mimic|both")
      .String("task", &task_flag, "mortality|los|both");
  parser.Parse(argc, argv);
  bench::BenchScale scale;
  bench::ResolveBenchScale(values, &scale, /*default_admissions=*/800,
                           /*default_epochs=*/12);
  bench::PrintHeader(
      "Figure 7: ablation study of ELDA-Net's modules",
      "Paper anchors (PhysioNet2012 mortality AUC-PR, full scale):\n"
      "  ELDA-Net-T 0.559 | GRU 0.536 | best baseline Dipole_l 0.547.\n"
      "Expected ordering: Ffm < Ffm* < Fbi, Fbi* < Fbi, and the full model\n"
      "above every single-module variant.");

  std::vector<std::pair<std::string, synth::CohortConfig>> datasets;
  if (dataset == "both" || dataset == "physionet") {
    datasets.emplace_back("SynthPhysioNet2012", bench::ScaledPhysioNet(scale));
  }
  if (dataset == "both" || dataset == "mimic") {
    datasets.emplace_back("SynthMimicIii", bench::ScaledMimic(scale));
  }
  std::vector<data::Task> tasks;
  if (task_flag == "both" || task_flag == "mortality") {
    tasks.push_back(data::Task::kMortality);
  }
  if (task_flag == "both" || task_flag == "los") {
    tasks.push_back(data::Task::kLosGt7);
  }
  for (const auto& [name, config] : datasets) {
    for (data::Task task : tasks) {
      if (!RunSetting(name, config, task, scale)) return 1;
    }
  }
  return 0;
}
