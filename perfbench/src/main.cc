// elda_perfbench: the end-to-end benchmark binary (see perfbench/README.md).
//
//   elda_perfbench --workload elda|gru --seed N --seconds S --trace 0|1
//                  [--scale normal|tiny] [--digest]
//
// Generates every input from the seed, sets up five times (setup_s is the
// median), then runs the fit, score and ward phases for about S seconds in
// total. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of the traced run and the nested span table.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when an output check failed. --digest prints
// the input digest for the seed and exits (the determinism self-test).

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "baselines/baselines.h"
#include "bench.h"
#include "inputs.h"
#include "mem/pool.h"
#include "trace.h"
#include "util/argparse.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
// Shares of --seconds per phase.
constexpr double kFitShare = 0.4;
constexpr double kScoreShare = 0.2;
constexpr double kWardShare = 0.4;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Result& r) {
  std::printf("\n%-40s %22s  %s\n", "metric", "value", "unit");
  for (const Result::Metric& m : r.metrics) {
    std::printf("%-40s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %lld, failed %lld (failed_frac %.6f)\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted
                              : 0.0);
  for (const std::string& e : r.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Metric& m = r.metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  std::string workload = "elda";
  int64_t seed = 1;
  double seconds = 50.0;
  int64_t trace = 0;
  std::string scale = "normal";
  bool digest_only = false;
  elda::util::ArgParser parser(
      "elda_perfbench",
      "End-to-end ELDA benchmark: fit, score and ward phases for one model.");
  parser.String("workload", &workload, "elda (ELDA-Net) or gru (GRU)")
      .Int("seed", &seed, "seed every input is generated from")
      .Double("seconds", &seconds, "measured seconds, split across phases")
      .Int("trace", &trace, "1: traced run with per-layer metrics")
      .String("scale", &scale, "normal or tiny (self-test inputs)")
      .Bool("digest", &digest_only, "print the input digest and exit");
  parser.Parse(argc, argv);

  RunConfig config;
  config.tiny = scale == "tiny";
  if (workload == "elda") {
    config.model_name = "ELDA-Net";
    config.nominal_rate = 1000.0;
    config.ladder_start = 5000.0;
    config.p99_limit_ms = 100.0;
  } else if (workload == "gru") {
    config.model_name = "GRU";
    config.nominal_rate = config.tiny ? 5000.0 : 50000.0;
    config.ladder_start = config.tiny ? 10000.0 : 150000.0;
    config.p99_limit_ms = 100.0;
  } else {
    std::fprintf(stderr, "unknown workload '%s' (elda or gru)\n",
                 workload.c_str());
    return 2;
  }
  if ((scale != "normal" && scale != "tiny") || seconds <= 0.0 || seed < 0) {
    std::fprintf(stderr, "bad --scale, --seconds or --seed\n");
    return 2;
  }
  config.beds = config.tiny ? 16 : 256;
  config.fit_epochs = config.tiny ? 8 : 2;
  config.work_dir = ".bench_work/" + workload + "-" +
                    std::to_string(static_cast<long long>(::getpid()));
  std::filesystem::create_directories(config.work_dir);
  const InputSizes sizes =
      config.tiny ? InputSizes::Tiny() : InputSizes();

  Result result;
  Inputs inputs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    elda::Stopwatch sw;
    inputs = MakeInputs(static_cast<uint64_t>(seed), sizes, config.work_dir);
    auto model = elda::baselines::MakeModel(config.model_name, kNumFeatures,
                                            kModelSeed);
    setup_s.push_back(sw.Seconds());
    if (digest_only) break;
  }
  if (digest_only) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(Digest(inputs)));
    std::filesystem::remove_all(config.work_dir);
    return 0;
  }

  auto phase_end = [] { elda::mem::Pool::Global().Trim(); };
  if (trace == 0) {
    result.Set("setup_s", Median(setup_s), "s");
    RunFit(config, inputs, seconds * kFitShare, &result);
    phase_end();
    RunScore(config, inputs, seconds * kScoreShare, &result);
    // Read before the ward, whose resident state is dominated by the load
    // generator's own latency records rather than the library's memory.
    const double peak_rss_mb = PeakRssMb();
    phase_end();
    RunWard(config, inputs, seconds * kWardShare, &result);
    result.Set("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    Tracer& tracer = Tracer::Get();
    std::filesystem::create_directories(".bench_trace");
    const std::string trace_prefix =
        ".bench_trace/" + workload + "-seed" + std::to_string(seed);
    auto dump = [&](const char* phase) {
      std::printf("\n%s phase, traced spans (self = span minus children):\n%s",
                  phase, FormatLayerTable(tracer.Aggregate()).c_str());
      tracer.WriteChromeTrace(trace_prefix + "-" + phase + ".json", 200000);
    };
    TraceFit(config, inputs, seconds * kFitShare, &result);
    dump("fit");
    phase_end();
    TraceScore(config, inputs, seconds * kScoreShare, &result);
    dump("score");
    phase_end();
    TraceWard(config, inputs, seconds * kWardShare, &result);
    dump("ward");
  }
  std::filesystem::remove_all(config.work_dir);
  for (const Result::Metric& m : result.metrics) {
    result.Check(std::isfinite(m.value), "metric " + m.name + " not finite");
  }
  PrintResult(result);
  return result.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
