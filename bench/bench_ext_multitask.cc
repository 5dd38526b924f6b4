// Extension bench (beyond the paper): multi-task ELDA — one shared
// dual-interaction trunk with two prediction heads trained jointly on
// in-hospital mortality and LOS > 7d, compared with two independently
// trained single-task ELDA-Nets on the same cohort. The joint deployment
// goes through the unified encoder/head framework (train/task_head.h) and
// the Trainer's multi-task loop.
//
// Expected shape: the joint model reaches comparable per-task quality with
// ~little more than half the parameters (and half the training compute) of
// the two-model deployment, because the expensive interaction trunk is
// shared.
//
// Flags: --admissions --epochs --full

#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "core/multitask.h"
#include "train/experiment.h"
#include "train/trainer.h"

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchScale scale;
  bench::BenchFlagValues values;
  util::ArgParser parser("bench_ext_multitask",
                         "Extension: multi-task ELDA (joint mortality + LOS "
                         "heads).");
  bench::RegisterBenchFlags(&parser, &values);
  parser.Parse(argc, argv);
  bench::ResolveBenchScale(values, &scale, /*default_admissions=*/500,
                           /*default_epochs=*/8);
  bench::PrintHeader(
      "Extension: multi-task ELDA (joint mortality + LOS heads)",
      "One shared trunk vs two single-task ELDA-Nets on the same cohort.");

  synth::CohortConfig config = bench::ScaledPhysioNet(scale);
  data::EmrDataset cohort = synth::GenerateCohort(config);
  train::PreparedExperiment mortality(cohort, data::Task::kMortality);
  train::PreparedExperiment los(cohort, data::Task::kLosGt7);

  TablePrinter table({"deployment", "mortality AUC-PR", "LOS AUC-PR",
                      "params", "trainings"});

  // Joint model (trained once, on the mortality experiment's split so both
  // heads see identical data; LOS labels ride in the batch's y_los slab).
  {
    core::EldaNetConfig net_config = core::EldaNetConfig::Full();
    net_config.seed = 5;
    core::MultiTaskElda elda = core::MakeMultiTaskElda(net_config);
    train::TrainerConfig trainer_config = scale.trainer;
    trainer_config.seed = 5;
    train::Trainer trainer(trainer_config);
    train::MultiTaskTrainResult result = trainer.TrainMultiTask(
        elda.trunk.get(), elda.heads.get(), mortality.prepared(),
        mortality.split(), data::Task::kMortality);
    table.AddRow({"multi-task (shared trunk)",
                  TablePrinter::Num(result.test.ForTask("mortality").auc_pr, 3),
                  TablePrinter::Num(result.test.ForTask("los").auc_pr, 3),
                  std::to_string(result.num_parameters), "1"});
    std::cout << "." << std::flush;
  }
  // Two single-task models.
  {
    train::ModelStats m = baselines::RunModelByName(
        "ELDA-Net", mortality, scale.trainer, /*num_runs=*/1);
    train::ModelStats l =
        baselines::RunModelByName("ELDA-Net", los, scale.trainer, 1);
    if (bench::AllRunsFailed(m, 1) || bench::AllRunsFailed(l, 1)) return 1;
    table.AddRow({"two single-task ELDA-Nets",
                  TablePrinter::Num(m.auc_pr.mean, 3),
                  TablePrinter::Num(l.auc_pr.mean, 3),
                  std::to_string(2 * m.num_parameters), "2"});
    std::cout << "." << std::flush;
  }
  std::cout << "\n" << table.ToString();
  return 0;
}
