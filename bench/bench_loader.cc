// Out-of-core data substrate benchmark: sharded cohort generation and
// ShardedLoader epoch throughput.
//
// Phase 1 streams a variable-length cohort to CRC-framed shards
// (synth::GenerateCohortToShards) and reports generation rate plus the
// stay-length distribution. Phase 2 drains full epochs through the
// ShardedLoader, sweeping the length-bucket count to show the padding-waste
// vs shuffle-granularity trade-off, and comparing prefetch off/on at the
// default bucketing. Peak RSS is reported so the bounded-memory claim is
// checkable at any --admissions scale.
//
// Flags: --admissions N, --samples-per-shard N, --batch-size N,
// --buckets "1,2,4,8,16", --threads N, --dir PATH, --json_out PATH.

#include <sys/resource.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "data/sharded_loader.h"
#include "data/shard_io.h"
#include "synth/simulator.h"
#include "util/argparse.h"

namespace elda {
namespace {

std::vector<int64_t> ParseCounts(const std::string& spec) {
  std::vector<int64_t> counts;
  int64_t value = 0;
  bool in_number = false;
  for (char ch : spec) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + (ch - '0');
      in_number = true;
    } else if (in_number) {
      counts.push_back(value);
      value = 0;
      in_number = false;
    }
  }
  if (in_number) counts.push_back(value);
  ELDA_CHECK(!counts.empty()) << "no bucket counts in '" << spec << "'";
  return counts;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct EpochResult {
  int64_t buckets = 0;
  bool prefetch = false;
  int64_t batches = 0;
  int64_t samples = 0;
  int64_t valid_steps = 0;  // patient-hours actually carried
  double seconds = 0.0;
  double padding_waste = 0.0;

  double samples_per_sec() const { return samples / seconds; }
  double steps_per_sec() const { return valid_steps / seconds; }
  double ns_per_batch() const { return seconds * 1e9 / batches; }
};

EpochResult DrainOneEpoch(const std::vector<std::string>& paths,
                          const data::Standardizer& standardizer,
                          int64_t batch_size, int64_t buckets, bool prefetch) {
  using Clock = std::chrono::steady_clock;
  data::ShardedLoaderOptions options;
  options.batch_size = batch_size;
  options.num_buckets = buckets;
  options.prefetch = prefetch;
  data::ShardedLoader loader(paths, &standardizer, options);
  if (!loader.ok()) {
    std::cerr << "bench_loader: " << loader.error() << "\n";
    std::exit(1);
  }

  EpochResult result;
  result.buckets = buckets;
  result.prefetch = prefetch;
  result.padding_waste = loader.PaddingWaste();
  const auto start = Clock::now();
  loader.StartEpoch();
  data::Batch batch;
  while (loader.Next(&batch)) {
    ++result.batches;
    result.samples += static_cast<int64_t>(batch.lengths.size());
    for (int64_t len : batch.lengths) result.valid_steps += len;
  }
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  using Clock = std::chrono::steady_clock;

  int64_t admissions = 20000;
  int64_t samples_per_shard = 4096;
  int64_t batch_size = 64;
  std::string buckets_spec = "1,2,4,8,16";
  int64_t threads = 0;
  std::string dir = "/tmp/elda_bench_loader";
  std::string json_path = "BENCH_loader.json";
  util::ArgParser parser("bench_loader",
                         "Sharded-cohort generation and out-of-core loader "
                         "throughput: padding waste vs bucket count, "
                         "prefetch off/on, peak RSS.");
  parser.Int("admissions", &admissions, "stays to generate", 1)
      .Int("samples-per-shard", &samples_per_shard, "records per shard file",
           1)
      .Int("batch-size", &batch_size, "loader batch size", 1)
      .String("buckets", &buckets_spec,
              "comma-separated length-bucket counts to sweep")
      .Int("threads", &threads, "worker threads (0: environment default)", 0)
      .String("dir", &dir, "directory for the generated shards")
      .String("json_out", &json_path, "machine-readable results path");
  parser.Parse(argc, argv);
  if (threads > 0) par::SetNumThreads(threads);
  mkdir(dir.c_str(), 0755);

  bench::PrintHeader(
      "out-of-core data substrate",
      "variable-length stays streamed to CRC-framed shards, then drained\n"
      "through the length-bucketed, prefetching ShardedLoader");

  // ---- Phase 1: stream the cohort to shards -----------------------------
  synth::CohortConfig config = synth::SynthPhysioNet2012();
  config.num_admissions = admissions;
  config.variable_length = true;
  const std::string prefix = dir + "/cohort";
  const auto gen_start = Clock::now();
  const synth::ShardedCohortInfo info =
      synth::GenerateCohortToShards(config, prefix, samples_per_shard);
  const double gen_seconds =
      std::chrono::duration<double>(Clock::now() - gen_start).count();
  const data::LengthStats& len = info.length_stats;
  {
    TablePrinter table({"stays", "shards", "gen s", "stays/s", "len p50",
                        "len p95", "len max", "mean len"});
    table.AddRow({TablePrinter::Num(info.num_samples, 0),
                  TablePrinter::Num(static_cast<double>(info.paths.size()), 0),
                  TablePrinter::Num(gen_seconds, 2),
                  TablePrinter::Num(info.num_samples / gen_seconds, 0),
                  TablePrinter::Num(static_cast<double>(len.p50), 0),
                  TablePrinter::Num(static_cast<double>(len.p95), 0),
                  TablePrinter::Num(static_cast<double>(len.max), 0),
                  TablePrinter::Num(len.mean, 1)});
    std::cout << "[generation]\n" << table.ToString() << "\n";
  }
  std::cout << "peak RSS after generation: " << PeakRssMb() << " MiB\n";

  std::string error;
  const data::Standardizer standardizer =
      data::FitStandardizerFromShards(info.paths, 1, {0}, true, &error);
  if (!error.empty()) {
    std::cerr << "bench_loader: " << error << "\n";
    return 1;
  }
  std::cout << "peak RSS after standardizer fit: " << PeakRssMb()
            << " MiB\n\n";

  // ---- Phase 2: epoch throughput vs bucket count ------------------------
  std::vector<EpochResult> results;
  {
    TablePrinter table({"buckets", "prefetch", "batches", "padding waste",
                        "samples/s", "steps/s"});
    for (int64_t buckets : ParseCounts(buckets_spec)) {
      const EpochResult r = DrainOneEpoch(info.paths, standardizer,
                                          batch_size, buckets,
                                          /*prefetch=*/true);
      results.push_back(r);
      table.AddRow({TablePrinter::Num(static_cast<double>(buckets), 0), "on",
                    TablePrinter::Num(static_cast<double>(r.batches), 0),
                    TablePrinter::Num(r.padding_waste, 4),
                    TablePrinter::Num(r.samples_per_sec(), 0),
                    TablePrinter::Num(r.steps_per_sec(), 0)});
    }
    // Prefetch off at the default bucketing isolates the overlap win.
    const EpochResult serial = DrainOneEpoch(info.paths, standardizer,
                                             batch_size, /*buckets=*/4,
                                             /*prefetch=*/false);
    results.push_back(serial);
    table.AddRow({"4", "off",
                  TablePrinter::Num(static_cast<double>(serial.batches), 0),
                  TablePrinter::Num(serial.padding_waste, 4),
                  TablePrinter::Num(serial.samples_per_sec(), 0),
                  TablePrinter::Num(serial.steps_per_sec(), 0)});
    std::cout << "[loader epochs]\n" << table.ToString() << "\n";
  }
  std::cout << "peak RSS: " << PeakRssMb() << " MiB\n";

  // ---- JSON (top-level keys shared with the other --json_out writers) ---
  std::ofstream out(json_path);
  if (out) {
    out << "{\n  \"schema\": \"elda-bench-loader-v1\",\n"
        << "  \"threads\": " << par::NumThreads() << ",\n"
        << "  \"git_rev\": \"" << bench::GitRev() << "\",\n"
        << "  \"peak_rss_mb\": " << PeakRssMb() << ",\n"
        << "  \"benchmarks\": [\n"
        << "    {\"name\": \"BM_ShardCohortGenerate\", \"stays\": "
        << info.num_samples << ", \"shards\": " << info.paths.size()
        << ", \"stays_per_sec\": " << info.num_samples / gen_seconds
        << ", \"len_p50\": " << len.p50 << ", \"len_p95\": " << len.p95
        << ", \"len_max\": " << len.max << ", \"len_mean\": " << len.mean
        << ", \"ns_per_iter\": " << gen_seconds * 1e9 / info.num_samples
        << "}";
    for (const EpochResult& r : results) {
      out << ",\n    {\"name\": \"BM_ShardedLoaderEpoch/" << r.buckets << "/"
          << (r.prefetch ? 1 : 0) << "\", \"batches\": " << r.batches
          << ", \"padding_waste\": " << r.padding_waste
          << ", \"samples_per_sec\": " << r.samples_per_sec()
          << ", \"steps_per_sec\": " << r.steps_per_sec()
          << ", \"ns_per_iter\": " << r.ns_per_batch() << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cerr << "failed to write " << json_path << "\n";
  }
  return 0;
}
