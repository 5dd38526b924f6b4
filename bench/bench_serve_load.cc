// Load generator for elda::serve — the streaming inference service.
//
// Three phases:
//
//  1. Load, swept over worker counts (--workers, default "1,2,4"): admits
//     --sessions resident patients (default 100k, scales to 1M), then
//     --clients threads stream --rounds observations per patient through
//     ObserveAsync with a bounded pipeline of in-flight requests, so
//     concurrent singles coalesce in the sharded micro-batcher fleet
//     (sessions route to workers by id, preserving per-session FIFO).
//     Reports p50/p99 per-observation latency (submit -> future resolved)
//     and sustained observations/second per worker count. NOTE: on a
//     single-core box the worker sweep measures coordination overhead,
//     not parallel speedup — the rows are honest, the cores are absent.
//
//  2. Snapshot overhead (after the last sweep row, on the live service):
//     wall time to checkpoint every resident session's state to disk
//     (SaveSnapshotTo quiesces scoring, serializes, CRCs, atomic-renames)
//     and to restore the file into a fresh service, plus the file size.
//
//  3. T-sweep: one patient observed --t-sweep times through the sync
//     (inline, no linger) service, per-observation latency bucketed by
//     history length. For models with an incremental StepForward the
//     buckets stay flat — cost is O(1) in T; window-replay fallback models
//     grow until the rolling window caps the replay at --window steps.
//
// The service sees an untrained registry model: serving cost does not
// depend on the weights, only on the architecture's step path.
//
// Flags: --model (registry name), --sessions, --rounds, --clients,
// --workers (comma-separated scoring-worker counts), --depth (per-client
// in-flight pipeline), --batch (micro-batch cap), --window
// (rolling-window capacity), --delay-us (batcher linger), --threads
// (kernel threads inside the scoring step), --t-sweep (0 skips),
// --snapshot-path (where phase 2 writes; empty skips), --json_out PATH.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace elda {
namespace {

constexpr int64_t kNumFeatures = 37;  // PhysioNet-2012 channel count

serve::Observation MakeObservation(Rng* rng) {
  serve::Observation obs;
  obs.x.resize(kNumFeatures);
  obs.mask.resize(kNumFeatures);
  obs.delta.resize(kNumFeatures);
  for (int64_t c = 0; c < kNumFeatures; ++c) {
    const bool seen = rng->Bernoulli(0.3);
    obs.x[c] = static_cast<float>(rng->Normal());
    obs.mask[c] = seen ? 1.0f : 0.0f;
    obs.delta[c] = seen ? 0.0f : 1.0f;
  }
  return obs;
}

double PercentileUs(const std::vector<double>& sorted_us, double pct) {
  if (sorted_us.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(sorted_us.size());
  int64_t idx = static_cast<int64_t>(pct / 100.0 * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted_us[idx];
}

std::vector<int64_t> ParseWorkerCounts(const std::string& spec) {
  std::vector<int64_t> counts;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const int64_t w = std::atoll(item.c_str());
    if (w >= 1) counts.push_back(w);
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

struct LoadResult {
  int64_t workers = 1;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double obs_per_sec = 0.0;
  double mean_batch = 0.0;
};

struct SnapshotResult {
  bool ran = false;
  double save_ms = 0.0;
  double restore_ms = 0.0;
  int64_t bytes = 0;
  int64_t quarantined = 0;
};

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  using Clock = std::chrono::steady_clock;

  std::string model_name = "GRU";
  int64_t sessions = 100000;
  int64_t rounds = 3;
  int64_t clients = 4;
  std::string workers_spec = "1,2,4";
  int64_t depth = 64;
  int64_t batch = 64;
  int64_t window = 32;
  int64_t delay_us = 200;
  int64_t threads = 1;
  int64_t t_sweep = 256;
  std::string snapshot_path = "BENCH_serve_snapshot.ckpt";
  std::string json_path = "BENCH_serve.json";
  util::ArgParser parser("bench_serve_load",
                         "Streaming inference load generator: latency and "
                         "throughput with resident per-patient state, "
                         "multi-worker sweep, and snapshot overhead.");
  parser.String("model", &model_name, "registry model to serve")
      .Int("sessions", &sessions, "resident patients to admit", 1)
      .Int("rounds", &rounds, "observations streamed per patient", 1)
      .Int("clients", &clients, "client threads submitting observations", 1)
      .String("workers", &workers_spec,
              "comma-separated scoring-worker counts to sweep")
      .Int("depth", &depth, "per-client in-flight request pipeline", 1)
      .Int("batch", &batch, "micro-batch coalescing cap", 1)
      .Int("window", &window, "rolling-window capacity per session", 1)
      .Int("delay-us", &delay_us, "micro-batcher linger before partial batch",
           0)
      .Int("threads", &threads,
           "kernel threads inside the scoring step (0: environment default)",
           0)
      .Int("t-sweep", &t_sweep,
           "history length for the latency-vs-T table (0: skip)", 0)
      .String("snapshot-path", &snapshot_path,
              "session checkpoint file for the overhead phase (empty: skip)")
      .String("json_out", &json_path, "machine-readable results path");
  parser.Parse(argc, argv);

  const std::vector<int64_t> worker_counts = ParseWorkerCounts(workers_spec);
  auto model = baselines::MakeModel(model_name, kNumFeatures, /*seed=*/3);
  bench::PrintHeader(
      "serve load: " + model_name,
      model->has_incremental_step()
          ? "incremental StepForward (O(1) per observation)"
          : "window-replay fallback (O(window) per observation)");

  // ---- Phase 1: resident-session load, swept over worker counts ---------
  const int64_t total_obs = sessions * rounds;
  std::vector<LoadResult> load_results;
  SnapshotResult snapshot;
  TablePrinter load_table({"workers", "sessions", "observations", "clients",
                           "p50 us", "p99 us", "obs/sec", "mean batch"});
  for (size_t wi = 0; wi < worker_counts.size(); ++wi) {
    const int64_t num_workers = worker_counts[wi];
    serve::ServeConfig config;
    config.infer.batch_size = batch;
    config.infer.num_threads = threads;
    config.window_capacity = window;
    config.max_sessions = sessions + 1;
    config.max_delay_us = delay_us;
    config.async = true;
    config.num_workers = num_workers;
    serve::InferenceService service(model.get(), config);

    std::vector<serve::SessionId> ids;
    ids.reserve(static_cast<size_t>(sessions));
    Stopwatch admit_watch;
    for (int64_t i = 0; i < sessions; ++i) {
      ids.push_back(service.Admit());
    }
    if (wi == 0) {
      std::cout << "admitted " << sessions << " sessions in "
                << TablePrinter::Num(admit_watch.Seconds(), 2) << " s\n";
    }

    std::vector<std::vector<double>> client_latencies(
        static_cast<size_t>(clients));
    Stopwatch load_watch;
    {
      std::vector<std::thread> client_threads;
      for (int64_t w = 0; w < clients; ++w) {
        client_threads.emplace_back([&, w] {
          Rng rng(static_cast<uint64_t>(w) * 7919 + 1);
          std::vector<double>& latencies =
              client_latencies[static_cast<size_t>(w)];
          latencies.reserve(static_cast<size_t>(total_obs / clients + 1));
          std::vector<
              std::pair<Clock::time_point, std::future<serve::StepResult>>>
              inflight;
          auto harvest_one = [&] {
            auto& [t0, fut] = inflight.front();
            fut.wait();
            latencies.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count());
            inflight.erase(inflight.begin());
          };
          for (int64_t r = 0; r < rounds; ++r) {
            // Shard sessions across clients round-robin; each session is
            // only ever touched by one client, so per-session FIFO order
            // holds.
            for (int64_t i = w; i < sessions; i += clients) {
              if (static_cast<int64_t>(inflight.size()) >= depth) {
                harvest_one();
              }
              inflight.emplace_back(
                  Clock::now(),
                  service.ObserveAsync(ids[static_cast<size_t>(i)],
                                       MakeObservation(&rng)));
            }
          }
          while (!inflight.empty()) harvest_one();
        });
      }
      for (std::thread& t : client_threads) t.join();
    }
    const double load_s = load_watch.Seconds();

    std::vector<double> all_us;
    all_us.reserve(static_cast<size_t>(total_obs));
    for (const auto& v : client_latencies) {
      all_us.insert(all_us.end(), v.begin(), v.end());
    }
    std::sort(all_us.begin(), all_us.end());
    const serve::MicroBatcher::Stats stats = service.batcher_stats();
    LoadResult result;
    result.workers = num_workers;
    result.p50_us = PercentileUs(all_us, 50.0);
    result.p99_us = PercentileUs(all_us, 99.0);
    result.obs_per_sec = static_cast<double>(total_obs) / load_s;
    result.mean_batch = stats.mean_batch_size;
    load_results.push_back(result);
    load_table.AddRow(
        {std::to_string(num_workers), std::to_string(sessions),
         std::to_string(total_obs), std::to_string(clients),
         TablePrinter::Num(result.p50_us, 1),
         TablePrinter::Num(result.p99_us, 1),
         TablePrinter::Num(result.obs_per_sec, 0),
         TablePrinter::Num(result.mean_batch, 1)});

    // ---- Phase 2: snapshot overhead on the last (still-live) service ----
    if (wi + 1 == worker_counts.size() && !snapshot_path.empty()) {
      std::string error;
      Stopwatch save_watch;
      if (!service.SaveSnapshotTo(snapshot_path, &error)) {
        std::cerr << "snapshot save failed: " << error << "\n";
      } else {
        snapshot.ran = true;
        snapshot.save_ms = save_watch.Seconds() * 1e3;
        struct stat st;
        if (::stat(snapshot_path.c_str(), &st) == 0) {
          snapshot.bytes = static_cast<int64_t>(st.st_size);
        }
        serve::InferenceService restored(model.get(), config);
        Stopwatch restore_watch;
        if (!restored.RestoreSnapshot(snapshot_path, &error)) {
          std::cerr << "snapshot restore failed: " << error << "\n";
          snapshot.ran = false;
        } else {
          snapshot.restore_ms = restore_watch.Seconds() * 1e3;
          snapshot.quarantined = restored.stats().quarantined_total;
        }
        std::remove(snapshot_path.c_str());
      }
    }
  }
  std::cout << load_table.ToString();
  if (snapshot.ran) {
    TablePrinter snap_table(
        {"snapshot sessions", "save ms", "restore ms", "file MB"});
    snap_table.AddRow(
        {std::to_string(sessions), TablePrinter::Num(snapshot.save_ms, 1),
         TablePrinter::Num(snapshot.restore_ms, 1),
         TablePrinter::Num(static_cast<double>(snapshot.bytes) / 1e6, 1)});
    std::cout << "\nsession checkpoint overhead (all resident states):\n"
              << snap_table.ToString();
  }

  // ---- Phase 3: latency vs history length -------------------------------
  std::vector<double> bucket_mean_us;
  int64_t bucket_width = 0;
  if (t_sweep > 0) {
    serve::ServeConfig sweep_config;
    sweep_config.infer.batch_size = batch;
    sweep_config.infer.num_threads = threads;
    sweep_config.window_capacity = window;
    sweep_config.max_sessions = 2;
    sweep_config.async = false;  // inline scoring: no linger in the numbers
    serve::InferenceService sweep(model.get(), sweep_config);
    const serve::SessionId pid = sweep.Admit("t-sweep");
    Rng rng(42);
    constexpr int64_t kBuckets = 8;
    bucket_width = (t_sweep + kBuckets - 1) / kBuckets;
    std::vector<double> sums(kBuckets, 0.0);
    std::vector<int64_t> counts(kBuckets, 0);
    for (int64_t t = 0; t < t_sweep; ++t) {
      const auto t0 = Clock::now();
      sweep.Observe(pid, MakeObservation(&rng));
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      const int64_t b = t / bucket_width;
      sums[static_cast<size_t>(b)] += us;
      ++counts[static_cast<size_t>(b)];
    }
    std::cout << "\nper-observation latency vs history length T (window "
              << window << "):\n";
    std::vector<std::string> header, row;
    for (int64_t b = 0; b < kBuckets; ++b) {
      if (counts[static_cast<size_t>(b)] == 0) continue;
      const double mean =
          sums[static_cast<size_t>(b)] / counts[static_cast<size_t>(b)];
      bucket_mean_us.push_back(mean);
      header.push_back("T<" + std::to_string((b + 1) * bucket_width) + " us");
      row.push_back(TablePrinter::Num(mean, 1));
    }
    TablePrinter sweep_table(header);
    sweep_table.AddRow(row);
    std::cout << sweep_table.ToString();
  }

  // ---- JSON (top-level keys shared with the other --json_out writers) ---
  {
    std::ofstream out(json_path);
    if (out) {
      out << "{\n  \"schema\": \"elda-bench-serve-v1\",\n"
          << "  \"threads\": " << threads << ",\n"
          << "  \"git_rev\": \"" << bench::GitRev() << "\",\n"
          << "  \"benchmarks\": [\n";
      bool first = true;
      for (const LoadResult& r : load_results) {
        if (!first) out << ",\n";
        first = false;
        out << "    {\"name\": \"load\", \"model\": \"" << model_name
            << "\", \"incremental\": "
            << (model->has_incremental_step() ? "true" : "false")
            << ", \"workers\": " << r.workers
            << ", \"sessions\": " << sessions
            << ", \"observations\": " << total_obs
            << ", \"clients\": " << clients << ", \"p50_us\": " << r.p50_us
            << ", \"p99_us\": " << r.p99_us
            << ", \"obs_per_sec\": " << r.obs_per_sec
            << ", \"mean_batch\": " << r.mean_batch << "}";
      }
      if (snapshot.ran) {
        if (!first) out << ",\n";
        first = false;
        out << "    {\"name\": \"snapshot\", \"model\": \"" << model_name
            << "\", \"sessions\": " << sessions
            << ", \"save_ms\": " << snapshot.save_ms
            << ", \"restore_ms\": " << snapshot.restore_ms
            << ", \"bytes\": " << snapshot.bytes
            << ", \"quarantined\": " << snapshot.quarantined << "}";
      }
      if (!bucket_mean_us.empty()) {
        if (!first) out << ",\n";
        out << "    {\"name\": \"t_sweep\", \"model\": \"" << model_name
            << "\", \"bucket_width\": " << bucket_width
            << ", \"bucket_mean_us\": [";
        for (size_t i = 0; i < bucket_mean_us.size(); ++i) {
          if (i) out << ", ";
          out << bucket_mean_us[i];
        }
        out << "]}";
      }
      out << "\n  ]\n}\n";
      std::cout << "wrote " << json_path << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
    }
  }
  return 0;
}
