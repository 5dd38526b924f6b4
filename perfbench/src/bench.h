// Shared types for the benchmark phases.
//
// One benchmark run drives one model (the workload) through three phases,
// each through the library's public entry points:
//   fit    Trainer::Train on the fixed-length cohort (Table III workload);
//   score  Trainer::PredictSource over a ShardedLoader (mortality, B=256)
//          and Trainer::EvaluateMultiTask (per-step decompensation);
//   ward   an open-loop observation stream into serve::InferenceService.
// The untraced run reports end-to-end metrics; the traced run repeats each
// phase's calls layer by layer under spans (trace.h) and reports per-layer
// metrics plus the tracing overhead.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "mem/pool.h"
#include "par/par.h"

namespace perfbench {

struct RunConfig {
  std::string model_name;  // registry name: "ELDA-Net" or "GRU"
  std::string work_dir;    // scratch files (shards, checkpoints)
  bool tiny = false;       // self-test scale: tiny inputs, short phases
  int64_t fit_epochs = 2;  // epochs per Trainer::Train call
  // Ward traffic.
  double nominal_rate = 0.0;  // observations per second
  double ladder_start = 0.0;  // first ladder rate above the nominal one
  double p99_limit_ms = 0.0;  // latency limit for the rate ladder
  int64_t beds = 256;         // concurrently admitted stays
};

// Everything a run reports: metrics in insertion order, op accounting for
// failed_frac, and the output checks that failed.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

// Registry model seed: the weights are part of the program, not the input.
inline constexpr uint64_t kModelSeed = 1;

double Median(std::vector<double> values);
// Nearest-rank percentile of unsorted values, pct in [0, 100].
double Percentile(std::vector<double> values, double pct);

// Process-wide pool and par counters, for per-phase deltas.
struct LayerCounters {
  elda::par::ParStats par;
  elda::mem::PoolStats pool;
  static LayerCounters Now();
};
// Reports pool and par metrics for a phase that ran `batches` batches since
// `before`, under `prefix` (e.g. "fit.").
void ReportLayerCounters(const std::string& prefix,
                         const LayerCounters& before, int64_t batches,
                         Result* out);

void RunFit(const RunConfig& config, const Inputs& inputs, double budget_s,
            Result* out);
void RunScore(const RunConfig& config, const Inputs& inputs, double budget_s,
              Result* out);
void RunWard(const RunConfig& config, const Inputs& inputs, double budget_s,
             Result* out);

void TraceFit(const RunConfig& config, const Inputs& inputs, double budget_s,
              Result* out);
void TraceScore(const RunConfig& config, const Inputs& inputs,
                double budget_s, Result* out);
void TraceWard(const RunConfig& config, const Inputs& inputs, double budget_s,
               Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
