// Shared scaffolding for the table/figure benchmark binaries.
//
// Every binary reproduces one table or figure of the paper. Because the
// benches run on a CPU (vs the authors' GPU testbed), the default cohort
// sizes and epoch budgets are scaled down; pass --full for paper-scale
// cohorts (12,000 / 21,139 admissions) or override individual knobs
// (--admissions, --epochs, --runs).

#ifndef ELDA_BENCH_BENCH_COMMON_H_
#define ELDA_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <string>
#include <vector>

#include "par/par.h"
#include "synth/simulator.h"
#include "train/experiment.h"
#include "train/trainer.h"
#include "util/argparse.h"
#include "util/table.h"

namespace elda {
namespace bench {

struct BenchScale {
  int64_t physionet_admissions = 0;
  int64_t mimic_admissions = 0;
  train::TrainerConfig trainer;
  int64_t runs = 1;
};

// Common scale flags. Binaries register them on their own util::ArgParser
// (so binary-specific flags share the same --help page, and a malformed
// value exits 2 with usage), Parse, then resolve the sentinel defaults:
//
//   bench::BenchFlagValues values;
//   util::ArgParser parser("bench_x", "...");
//   bench::RegisterBenchFlags(&parser, &values);
//   parser.Int("batches", &batches, "...");   // binary-specific
//   parser.Parse(argc, argv);
//   bench::BenchScale scale;
//   bench::ResolveBenchScale(values, &scale, /*default_admissions=*/256);
struct BenchFlagValues {
  bool full = false;
  int64_t admissions = -1;  // -1: derived from --full / per-binary default
  int64_t epochs = -1;      // -1: derived from --full / per-binary default
  int64_t runs = 1;
  int64_t batch_size = 64;
  double lr = 1e-3;
  bool verbose = false;
  int64_t threads = 0;  // 0: ELDA_THREADS / hardware default
};

inline void RegisterBenchFlags(util::ArgParser* parser,
                               BenchFlagValues* values) {
  parser->Bool("full", &values->full,
               "paper-scale cohorts and epoch budgets");
  parser->Int("admissions", &values->admissions,
              "cohort admissions (unset: scale default)", 1);
  parser->Int("epochs", &values->epochs,
              "training epochs (unset: scale default)", 0);
  parser->Int("runs", &values->runs, "independent runs to average", 1);
  parser->Int("batch-size", &values->batch_size, "training batch size", 1);
  parser->Double("lr", &values->lr, "learning rate");
  parser->Bool("verbose", &values->verbose, "per-epoch progress");
  parser->Int("threads", &values->threads,
              "thread-pool size (0: environment default)", 0);
}

inline void ResolveBenchScale(const BenchFlagValues& values, BenchScale* scale,
                              int64_t default_admissions = 500,
                              int64_t default_epochs = 8) {
  scale->physionet_admissions =
      values.admissions >= 0 ? values.admissions
                             : (values.full ? 12000 : default_admissions);
  scale->mimic_admissions =
      values.admissions >= 0 ? values.admissions
                             : (values.full ? 21139 : default_admissions);
  scale->trainer.max_epochs =
      values.epochs >= 0 ? values.epochs
                         : (values.full ? 30 : default_epochs);
  scale->trainer.patience = values.full ? 5 : 3;
  scale->trainer.batch_size = values.batch_size;
  scale->trainer.learning_rate = static_cast<float>(values.lr);
  scale->trainer.verbose = values.verbose;
  scale->runs = values.runs;
  if (values.threads > 0) par::SetNumThreads(values.threads);
  scale->trainer.num_threads = values.threads;
}

// Short git revision baked in at configure time; "unknown" outside a git
// checkout. Emitted by every --json_out writer so result files are
// attributable to a commit.
inline const char* GitRev() {
#ifdef ELDA_GIT_REV
  return ELDA_GIT_REV;
#else
  return "unknown";
#endif
}

inline synth::CohortConfig ScaledPhysioNet(const BenchScale& scale) {
  synth::CohortConfig config = synth::SynthPhysioNet2012();
  config.num_admissions = scale.physionet_admissions;
  return config;
}

inline synth::CohortConfig ScaledMimic(const BenchScale& scale) {
  synth::CohortConfig config = synth::SynthMimicIii();
  config.num_admissions = scale.mimic_admissions;
  return config;
}

// True, after saying so on stderr, when every one of `runs` runs of a model
// failed (RunRepeated has already printed each run's status, e.g. an empty
// train split). The binary then exits 1 instead of printing a table of
// empty aggregates.
inline bool AllRunsFailed(const train::ModelStats& stats, int64_t runs) {
  if (stats.failed_runs < runs) return false;
  std::cerr << "error: all " << runs << " run(s) of " << stats.name
            << " failed (status above); no result to report\n";
  return true;
}

inline void PrintHeader(const std::string& title, const std::string& notes) {
  std::cout << "\n=== " << title << " ===\n";
  if (!notes.empty()) std::cout << notes << "\n";
  std::cout << std::endl;
}

}  // namespace bench
}  // namespace elda

#endif  // ELDA_BENCH_BENCH_COMMON_H_
