// Regenerates Table III: number of trainable parameters, training time per
// batch (batch size 64) and single-admission prediction latency for every
// model, next to the paper's reported values.
//
// Absolute times differ by construction: the paper measured Keras/TF on a
// Xeon W-2133 + RTX 2080 Ti, this repo runs a from-scratch engine on one
// CPU core. The *relative ordering* is the reproduction target: LR ~ free;
// the FM family pays for pairwise terms; plain RNNs are fast; ELDA-Net sits
// between the plain RNNs and the heavy baselines (ConCare, GRU-D, StageNet).
//
// Inference-latency columns (B=1 and B=256) run on the graph-free no-grad
// path, the same configuration Trainer::Predict uses. Every run also writes
// a machine-readable BENCH_table3.json with the measured columns per model
// (override the path with --json_out=PATH).
//
// Beyond the paper's table, two workload-quality columns ride along: each
// model is trained once through the multi-task loop (mortality +
// phenotyping heads) and then scored on the test split for per-step
// decompensation (the parameterless DecompensationHead reuses the trained
// readout over the per-step encoding — models without one show "-") and
// phenotyping AUC-ROC. The "decomp ms/adm" column (JSON
// decomp_ms_per_adm, -1 when not applicable) times that decompensation
// evaluation pass over the test split per admission. The JSON schema is "elda-bench-table3-v3"; the AUC
// fields are reported by bench/check_regression.py but never gate (quality
// at one bench epoch is noisy by design; -1 marks not-applicable).
//
// Flags: --batches N (timing batches per model), --admissions, --full,
// --json_out PATH, --threads N (thread count for the parallel
// batched-prediction columns; the table reports ms/admission at 1 thread
// and at N threads plus the speedup, exercising the elda::par
// batch-parallel Trainer::Predict path)

#include <algorithm>
#include <fstream>

#include "autograd/ops.h"
#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "mem/prof.h"
#include "optim/optimizer.h"
#include "train/experiment.h"
#include "train/task_head.h"
#include "util/stopwatch.h"

namespace elda {
namespace {

struct PaperRow {
  const char* name;
  const char* params;
  const char* train_s;
  const char* predict_ms;
};

const PaperRow kPaperRows[] = {
    {"LR", "38", "0.8", "<0.01"},
    {"FM", "630", "138", "0.70"},
    {"AFM", "718", "148", "0.72"},
    {"SAnD", "106k", "17", "0.08"},
    {"GRU", "20k", "9", "0.05"},
    {"RETAIN", "13k", "14", "0.07"},
    {"Dipole-l", "40k", "9", "0.05"},
    {"Dipole-g", "56k", "10", "0.05"},
    {"Dipole-c", "44k", "10", "0.05"},
    {"StageNet", "85k", "126", "0.92"},
    {"GRU-D", "38k", "466", "3.23"},
    {"ConCare", "183k", "118", "0.69"},
    {"ELDA-Net-T", "21k", "10", "0.05"},
    {"ELDA-Net-Fbi", "49k", "43", "0.21"},
    {"ELDA-Net-Ffm", "43k", "41", "0.22"},
    {"ELDA-Net", "53k", "44", "0.22"},
};

const PaperRow& PaperFor(const std::string& name) {
  for (const PaperRow& row : kPaperRows) {
    if (name == row.name) return row;
  }
  static const PaperRow kEmpty = {"?", "-", "-", "-"};
  return kEmpty;
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchFlagValues values;
  int64_t timing_batches = 5;
  std::string json_path = "BENCH_table3.json";
  util::ArgParser parser("bench_table3_efficiency",
                         "Table III: parameters, training throughput and "
                         "inference latency per model.");
  bench::RegisterBenchFlags(&parser, &values);
  parser.Int("batches", &timing_batches, "timing batches per model", 1)
      .String("json_out", &json_path, "machine-readable results path");
  parser.Parse(argc, argv);
  bench::BenchScale scale;
  bench::ResolveBenchScale(values, &scale,
                           /*default_admissions=*/256,
                           /*default_epochs=*/1);
  bench::PrintHeader(
      "Table III: parameters and runtime",
      "Paper columns: Keras/TF on Xeon W-2133 + RTX 2080 Ti; measured\n"
      "columns: this repo's engine on the CPU. Compare orderings, not\n"
      "absolute values. (Paper's training column is seconds per epoch-batch\n"
      "group; ours is seconds per 64-admission batch.)");

  synth::CohortConfig config = bench::ScaledPhysioNet(scale);
  data::EmrDataset cohort = synth::GenerateCohort(config);
  train::PreparedExperiment experiment(cohort, data::Task::kMortality);

  const int64_t par_threads = par::NumThreads();
  TablePrinter table({"model", "params (paper)", "params (ours)",
                      "train s/batch (paper)", "train s/batch (ours)",
                      "predict ms (paper)", "infer ms B=1",
                      "infer ms/adm B=256",
                      "batch ms/adm (1 thr)",
                      "batch ms/adm (" + std::to_string(par_threads) + " thr)",
                      "speedup", "decomp AUC", "decomp ms/adm",
                      "pheno AUC"});
  struct JsonRow {
    std::string name;
    int64_t params = 0;
    double train_s = 0.0;
    double infer_ms_b1 = 0.0;
    double infer_ms_per_adm_b256 = 0.0;
    double batch_ms_serial = 0.0;
    double batch_ms_parallel = 0.0;
    double decomp_auc_roc = -1.0;  // -1: model has no per-step encoding
    double decomp_ms_per_adm = -1.0;
    double pheno_auc_roc = -1.0;
  };
  std::vector<JsonRow> json_rows;
  for (const std::string& name : baselines::AllModelNames()) {
    auto model = baselines::MakeModel(name, cohort.num_features(), 3);
    optim::Adam adam(model->Parameters(), 1e-3f);
    // Timed training batches (forward + backward + step) under a
    // training-mode context (dropout active where the model has it).
    Rng train_rng(17);
    nn::ForwardContext train_ctx;
    train_ctx.training = true;
    train_ctx.rng = &train_rng;
    // Up to 64 train stays: a tiny cohort's split may hold fewer.
    const std::vector<int64_t>& train_split = experiment.split().train;
    const std::vector<int64_t> indices(
        train_split.begin(),
        train_split.begin() + std::min<size_t>(64, train_split.size()));
    data::Batch batch =
        data::MakeBatch(experiment.prepared(), indices, experiment.task());
    model->Forward(batch, &train_ctx);  // warm up
    Stopwatch train_watch;
    for (int64_t i = 0; i < timing_batches; ++i) {
      adam.ZeroGrad();
      ag::BceWithLogits(model->Forward(batch, &train_ctx), batch.y)
          .Backward();
      optim::ClipGradNorm(model->Parameters(), 5.0f);
      adam.Step();
    }
    const double train_s = train_watch.Seconds() / timing_batches;

    // Graph-free inference latency at B=1 and B=256 (no-grad, eval-mode
    // context) — the configuration Trainer::Predict runs in.
    const int64_t reps = 20;
    double predict_ms = 0.0;
    double predict_ms_b256 = 0.0;
    {
      ag::NoGradScope no_grad;
      data::Batch one = data::MakeBatch(experiment.prepared(),
                                        {experiment.split().test[0]},
                                        experiment.task());
      model->Forward(one);  // warm up
      Stopwatch predict_watch;
      for (int64_t i = 0; i < reps; ++i) model->Forward(one);
      predict_ms = predict_watch.Milliseconds() / reps;

      std::vector<int64_t> big;
      for (int64_t i = 0; i < 256; ++i) {
        const auto& test = experiment.split().test;
        big.push_back(test[i % test.size()]);
      }
      data::Batch wide =
          data::MakeBatch(experiment.prepared(), big, experiment.task());
      model->Forward(wide);  // warm up
      Stopwatch wide_watch;
      const int64_t wide_reps = 3;
      for (int64_t i = 0; i < wide_reps; ++i) model->Forward(wide);
      predict_ms_b256 = wide_watch.Milliseconds() / wide_reps / 256.0;
    }

    // Batched prediction over the whole test split through the unified
    // Trainer::Predict API, serial vs the configured thread count. Small
    // batches keep enough chunks in flight for the pool to spread out.
    const std::vector<int64_t>& test_indices = experiment.split().test;
    train::InferenceOptions predict_options;
    predict_options.batch_size = 32;
    predict_options.num_threads = 1;
    train::Trainer::Predict(model.get(), experiment.prepared(), test_indices,
                            experiment.task(), predict_options);  // warm up
    Stopwatch serial_watch;
    train::Trainer::Predict(model.get(), experiment.prepared(), test_indices,
                            experiment.task(), predict_options);
    const double serial_ms =
        serial_watch.Milliseconds() / test_indices.size();
    predict_options.num_threads = par_threads;
    Stopwatch parallel_watch;
    train::Trainer::Predict(model.get(), experiment.prepared(), test_indices,
                            experiment.task(), predict_options);
    const double parallel_ms =
        parallel_watch.Milliseconds() / test_indices.size();

    // Workload quality: train a fresh copy through the multi-task loop
    // (mortality drives the trunk readout, phenotyping adds its linear
    // head), then score the test split. Decompensation evaluates after
    // training — the head is parameterless, so the trained readout over the
    // per-step encoding is the per-step risk; training itself stays on the
    // cheap terminal path.
    double decomp_auc = -1.0;
    double decomp_ms = -1.0;
    double pheno_auc = -1.0;
    {
      auto fresh = baselines::MakeModel(name, cohort.num_features(), 3);
      train::MultiHead heads;
      heads.Add(std::make_unique<train::BinaryTerminalHead>(), 1.0f);
      heads.Add(std::make_unique<train::PhenotypeHead>(
                    fresh->encoding_dim(), data::kNumPhenotypes, /*seed=*/41),
                0.5f);
      train::TrainerConfig trainer_config = scale.trainer;
      trainer_config.seed = 3;
      train::MultiTaskTrainResult trained =
          train::Trainer(trainer_config)
              .TrainMultiTask(fresh.get(), &heads, experiment.prepared(),
                              experiment.split(), experiment.task());
      pheno_auc = trained.test.ForTask("phenotyping").auc_roc;
      if (fresh->has_step_encoding()) {
        heads.Add(std::make_unique<train::DecompensationHead>(), 1.0f);
        Stopwatch decomp_watch;
        train::MultiTaskEvalResult eval = train::Trainer::EvaluateMultiTask(
            fresh.get(), &heads, experiment.prepared(),
            experiment.split().test, experiment.task());
        decomp_ms = decomp_watch.Milliseconds() /
                    static_cast<double>(experiment.split().test.size());
        decomp_auc = eval.ForTask("decompensation").auc_roc;
      }
    }

    const PaperRow& paper = PaperFor(name);
    table.AddRow({name, paper.params, std::to_string(model->NumParameters()),
                  paper.train_s, TablePrinter::Num(train_s, 3),
                  paper.predict_ms, TablePrinter::Num(predict_ms, 2),
                  TablePrinter::Num(predict_ms_b256, 2),
                  TablePrinter::Num(serial_ms, 2),
                  TablePrinter::Num(parallel_ms, 2),
                  TablePrinter::Num(serial_ms / parallel_ms, 2),
                  decomp_auc < 0.0 ? "-" : TablePrinter::Num(decomp_auc, 3),
                  decomp_ms < 0.0 ? "-" : TablePrinter::Num(decomp_ms, 2),
                  TablePrinter::Num(pheno_auc, 3)});
    JsonRow row;
    row.name = name;
    row.params = model->NumParameters();
    row.train_s = train_s;
    row.infer_ms_b1 = predict_ms;
    row.infer_ms_per_adm_b256 = predict_ms_b256;
    row.batch_ms_serial = serial_ms;
    row.batch_ms_parallel = parallel_ms;
    row.decomp_auc_roc = decomp_auc;
    row.decomp_ms_per_adm = decomp_ms;
    row.pheno_auc_roc = pheno_auc;
    json_rows.push_back(std::move(row));
    std::cout << "." << std::flush;
  }
  std::cout << "\n" << table.ToString();
  {
    std::ofstream out(json_path);
    if (out) {
      // Top-level keys (schema/threads/git_rev/benchmarks) are shared with
      // bench_micro_substrate's --json_out so result files aggregate
      // uniformly.
      out << "{\n  \"schema\": \"elda-bench-table3-v3\",\n"
          << "  \"threads\": " << par_threads << ",\n"
          << "  \"git_rev\": \"" << bench::GitRev() << "\",\n"
          << "  \"benchmarks\": [\n";
      for (size_t i = 0; i < json_rows.size(); ++i) {
        const JsonRow& r = json_rows[i];
        out << "    {\"name\": \"" << r.name << "\", \"params\": "
            << r.params << ", \"train_s_per_batch\": " << r.train_s
            << ", \"infer_ms_b1\": " << r.infer_ms_b1
            << ", \"infer_ms_per_adm_b256\": " << r.infer_ms_per_adm_b256
            << ", \"batch_ms_per_adm_serial\": " << r.batch_ms_serial
            << ", \"batch_ms_per_adm_parallel\": " << r.batch_ms_parallel
            << ", \"decomp_auc_roc\": " << r.decomp_auc_roc
            << ", \"decomp_ms_per_adm\": " << r.decomp_ms_per_adm
            << ", \"pheno_auc_roc\": " << r.pheno_auc_roc
            << "}" << (i + 1 < json_rows.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
      std::cout << "wrote " << json_path << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
    }
  }
  // With ELDA_PROF=1, append the op-level profile (per-op time, allocation
  // volume, pool hit rate) so efficiency numbers come with their breakdown.
  prof::ReportIfEnabled(std::cout);
  return 0;
}
