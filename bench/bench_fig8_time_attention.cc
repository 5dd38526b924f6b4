// Regenerates Figure 8: time-level interaction attention for survivors vs
// non-survivors, ELDA vs Dipole_c.
//
// The paper's observations to reproduce in shape:
//   * Both groups put more attention on *later* hours (conditions close to
//     the final state matter most).
//   * Non-survivors' attention curves are more varied/unstable, with
//     patient-specific spikes at critical hours; survivors are smoother.
//   * ELDA separates the two groups' trends more clearly than Dipole_c's
//     implicit attention.
//
// Flags: --admissions --epochs --full

#include <cmath>

#include "baselines/dipole.h"
#include "bench/bench_common.h"
#include "core/interpret.h"
#include "train/experiment.h"

namespace elda {
namespace {

using core::GroupTimeAttention;
using core::LateAttentionMass;

// Dipole-side collector mirroring core::CollectGroupTimeAttention (the
// library version is typed to EldaNet; Dipole publishes the same
// "time_attention" capture surface).
GroupTimeAttention CollectDipole(const baselines::Dipole* model,
                                 const train::PreparedExperiment& experiment,
                                 int64_t steps) {
  GroupTimeAttention curves;
  curves.positive_mean.assign(steps - 1, 0.0);
  curves.negative_mean.assign(steps - 1, 0.0);
  ag::NoGradScope no_grad;
  const auto& indices = experiment.split().test;
  for (size_t start = 0; start < indices.size(); start += 128) {
    const size_t end = std::min(indices.size(), start + 128);
    std::vector<int64_t> chunk(indices.begin() + start,
                               indices.begin() + end);
    data::Batch batch =
        data::MakeBatch(experiment.prepared(), chunk, experiment.task());
    nn::CaptureSink sink;
    nn::ForwardContext ctx;
    ctx.capture = &sink;
    model->Forward(batch, &ctx);
    const Tensor beta = sink.Get("time_attention");  // [B, T-1]
    for (int64_t b = 0; b < static_cast<int64_t>(chunk.size()); ++b) {
      const bool died = batch.y[b] == 1.0f;
      double volatility = 0.0;
      for (int64_t t = 0; t < steps - 1; ++t) {
        const double a = beta.at({b, t});
        (died ? curves.positive_mean : curves.negative_mean)[t] += a;
        if (t > 0) volatility += std::fabs(a - beta.at({b, t - 1}));
      }
      if (died) {
        curves.positive_volatility += volatility;
        ++curves.positive_count;
      } else {
        curves.negative_volatility += volatility;
        ++curves.negative_count;
      }
    }
  }
  for (double& v : curves.positive_mean) {
    v /= std::max<int64_t>(curves.positive_count, 1);
  }
  for (double& v : curves.negative_mean) {
    v /= std::max<int64_t>(curves.negative_count, 1);
  }
  curves.positive_volatility /= std::max<int64_t>(curves.positive_count, 1);
  curves.negative_volatility /= std::max<int64_t>(curves.negative_count, 1);
  return curves;
}

void PrintCurves(const std::string& model_name,
                 const GroupTimeAttention& curves) {
  std::cout << "[" << model_name << "] average attention (%) per hour:\n";
  TablePrinter table({"hour", "survivors", "non-survivors"});
  for (size_t t = 0; t < curves.negative_mean.size(); t += 4) {
    table.AddRow({std::to_string(t),
                  TablePrinter::Num(100.0 * curves.negative_mean[t], 2),
                  TablePrinter::Num(100.0 * curves.positive_mean[t], 2)});
  }
  const size_t last = curves.negative_mean.size() - 1;
  table.AddRow({std::to_string(last),
                TablePrinter::Num(100.0 * curves.negative_mean[last], 2),
                TablePrinter::Num(100.0 * curves.positive_mean[last], 2)});
  std::cout << table.ToString();
  std::cout << "attention mass in final 12 hours: survivors "
            << TablePrinter::Num(
                   100.0 * LateAttentionMass(curves.negative_mean, 12), 1)
            << "%, non-survivors "
            << TablePrinter::Num(
                   100.0 * LateAttentionMass(curves.positive_mean, 12), 1)
            << "%  (uniform would be "
            << TablePrinter::Num(100.0 * 12.0 / curves.negative_mean.size(),
                                 1)
            << "%)\n";
  std::cout << "per-patient curve volatility (mean |a_t - a_{t-1}|): "
            << "survivors "
            << TablePrinter::Num(curves.negative_volatility, 4)
            << ", non-survivors "
            << TablePrinter::Num(curves.positive_volatility, 4)
            << "  (paper: non-survivors more varied)\n\n";
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchScale scale;
  bench::BenchFlagValues values;
  util::ArgParser parser("bench_fig8_time_attention",
                         "Figure 8: time-level attention, survivors vs "
                         "non-survivors.");
  bench::RegisterBenchFlags(&parser, &values);
  parser.Parse(argc, argv);
  bench::ResolveBenchScale(values, &scale, /*default_admissions=*/800,
                           /*default_epochs=*/12);
  bench::PrintHeader(
      "Figure 8: time-level attention, survivors vs non-survivors",
      "Shape to reproduce: later hours receive more attention in both\n"
      "groups; non-survivor curves are more varied; ELDA separates the\n"
      "groups more clearly than Dipole_c.");

  synth::CohortConfig config = bench::ScaledPhysioNet(scale);
  data::EmrDataset cohort = synth::GenerateCohort(config);
  train::PreparedExperiment experiment(cohort, data::Task::kMortality);
  const int64_t steps = cohort.num_steps();
  train::Trainer trainer(scale.trainer);

  {
    core::EldaNetConfig net_config = core::EldaNetConfig::Full();
    net_config.seed = 11;
    core::EldaNet elda(net_config);
    train::TrainResult result = trainer.Train(
        &elda, experiment.prepared(), experiment.split(), experiment.task());
    std::cout << "ELDA-Net trained: test AUC-PR "
              << TablePrinter::Num(result.test.auc_pr, 3) << "\n";
    PrintCurves("ELDA (Time-level Interaction Learning Module)",
                core::CollectGroupTimeAttention(
                    &elda, experiment.prepared(), experiment.split().test,
                    experiment.task()));
  }
  {
    baselines::Dipole dipole(cohort.num_features(), 32,
                             baselines::DipoleAttention::kConcat, 13);
    train::TrainResult result =
        trainer.Train(&dipole, experiment.prepared(), experiment.split(),
                      experiment.task());
    std::cout << "Dipole-c trained: test AUC-PR "
              << TablePrinter::Num(result.test.auc_pr, 3) << "\n";
    PrintCurves("Dipole_c (implicit attention)",
                CollectDipole(&dipole, experiment, steps));
  }
  return 0;
}
