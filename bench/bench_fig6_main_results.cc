// Regenerates Figure 6: the main results — BCE loss, AUC-ROC and AUC-PR for
// ELDA-Net and all eleven baselines, on both cohorts and both tasks
// (in-hospital mortality, LOS > 7 days).
//
// The paper reports Figure 6 as bar charts; its text anchors the comparison:
//   * ELDA-Net is best on every task/dataset/metric.
//   * Mortality AUC-PR improvement over the best baseline: +2.6%
//     (PhysioNet2012) and +3.4% (MIMIC-III); LOS: +2.5% and +0.5%.
//   * Time-series models beat the time-collapsed LR/FM/AFM; FM > LR;
//     Dipole and ConCare are the strongest mortality baselines; GRU-D is
//     strongest on LOS; RETAIN and SAnD trail the RNN models.
//
// Expected shape at reduced scale: the same ordering, not the same absolute
// numbers (synthetic cohort, scaled-down N and epochs).
//
// Flags: --admissions N --epochs E --runs R --dataset physionet|mimic|both
//        --task mortality|los|both --models comma,list --full

#include <sstream>

#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "train/experiment.h"

namespace elda {
namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string WithStd(const metrics::MeanStd& ms, int precision = 3) {
  std::string out = TablePrinter::Num(ms.mean, precision);
  if (ms.stddev > 0.0) {
    out += " +/- " + TablePrinter::Num(ms.stddev, precision);
  }
  return out;
}

// Returns false when every run of some model failed.
bool RunSetting(const std::string& dataset_name,
                const synth::CohortConfig& config, data::Task task,
                const std::vector<std::string>& models,
                const bench::BenchScale& scale) {
  const std::string task_name =
      task == data::Task::kMortality ? "in-hospital mortality" : "LOS > 7d";
  std::cout << "--- " << dataset_name << " / " << task_name << " ("
            << config.num_admissions << " admissions, "
            << scale.trainer.max_epochs << " epochs, " << scale.runs
            << " run(s)) ---\n";
  data::EmrDataset cohort = synth::GenerateCohort(config);
  train::PreparedExperiment experiment(cohort, task);
  TablePrinter table({"model", "BCE", "AUC-ROC", "AUC-PR", "params"});
  double best_baseline_pr = 0.0;
  double elda_pr = 0.0;
  for (const std::string& name : models) {
    train::ModelStats stats =
        baselines::RunModelByName(name, experiment, scale.trainer,
                                  scale.runs);
    if (bench::AllRunsFailed(stats, scale.runs)) return false;
    table.AddRow({stats.name, WithStd(stats.bce), WithStd(stats.auc_roc),
                  WithStd(stats.auc_pr),
                  std::to_string(stats.num_parameters)});
    if (name == "ELDA-Net") {
      elda_pr = stats.auc_pr.mean;
    } else {
      best_baseline_pr = std::max(best_baseline_pr, stats.auc_pr.mean);
    }
    std::cout << "." << std::flush;
  }
  std::cout << "\n" << table.ToString();
  if (elda_pr > 0.0 && best_baseline_pr > 0.0) {
    std::cout << "ELDA-Net AUC-PR vs best baseline: "
              << TablePrinter::Num(elda_pr, 3) << " vs "
              << TablePrinter::Num(best_baseline_pr, 3) << " ("
              << (elda_pr >= best_baseline_pr ? "+" : "")
              << TablePrinter::Num(
                     100.0 * (elda_pr - best_baseline_pr) /
                         std::max(best_baseline_pr, 1e-9),
                     1)
              << "% relative; paper reports +2.6%/+3.4% mortality, "
                 "+2.5%/+0.5% LOS at full scale)\n";
  }
  std::cout << std::endl;
  return true;
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchFlagValues values;
  std::string dataset = "both";
  std::string task_flag = "both";
  std::string model_list;
  util::ArgParser parser("bench_fig6_main_results",
                         "Figure 6: main results for every model, both "
                         "datasets and both tasks.");
  bench::RegisterBenchFlags(&parser, &values);
  parser.String("dataset", &dataset, "physionet|mimic|both")
      .String("task", &task_flag, "mortality|los|both")
      .String("models", &model_list, "comma-separated models (empty: all)");
  parser.Parse(argc, argv);
  bench::BenchScale scale;
  bench::ResolveBenchScale(values, &scale, /*default_admissions=*/800,
                           /*default_epochs=*/12);
  bench::PrintHeader(
      "Figure 6: main results (all models, both datasets, both tasks)",
      "Compare the *ordering* with the paper: ELDA-Net first, RNN family\n"
      "next, time-collapsed LR/FM/AFM last. Use --full (or --admissions /\n"
      "--epochs / --runs) for paper-scale runs.");

  std::vector<std::string> models = SplitCsv(model_list);
  if (models.empty()) {
    models = baselines::BaselineNames();
    models.push_back("ELDA-Net");
  }

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
      if (!RunSetting(name, config, task, models, scale)) return 1;
    }
  }
  return 0;
}
