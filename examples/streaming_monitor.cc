// Scenario example: live ward monitoring through elda::serve.
//
// Where mortality_monitoring re-scores truncated windows in batch (the
// retrospective view), this example runs the production shape: a model is
// trained once, then each ward patient is admitted to an InferenceService
// holding resident per-patient state, and every new hour of monitor data
// is pushed through a StreamingImputer (the batch pipeline, one row at a
// time) and scored incrementally — O(1) per observation for the
// incremental models, never a full-history replay. Observations for the
// whole ward are submitted concurrently each hour, so the micro-batcher
// coalesces them into single batched no-grad calls; the final stats line
// shows the realised batch size.
//
// Kill-and-resume: with --snapshot-path the service checkpoints every
// session's resident state halfway through the stream, is destroyed
// ("killed"), and a fresh service restores the file and carries on —
// session ids, observation counts, and the risk trajectory all survive.
// With --restore the example instead starts from an existing snapshot
// file (a previous run's), skipping the already-absorbed hours: the
// cross-process resume. Training is deterministic, so a restored run
// with the same flags serves the same weights the snapshot was taken
// under (the restore validates model name and window capacity).
//
//   $ ./examples/streaming_monitor [--model NAME] [--admissions N]
//                                  [--epochs E] [--threshold P] [--ward W]
//                                  [--snapshot-path F] [--restore]

#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "serve/service.h"
#include "serve/streaming_imputer.h"
#include "synth/simulator.h"
#include "train/experiment.h"
#include "util/argparse.h"

int main(int argc, char** argv) {
  using namespace elda;
  std::string model_name = "ELDA-Net";
  int64_t admissions = 300;
  int64_t epochs = 4;
  double threshold = 0.4;
  int64_t ward_size = 6;
  std::string snapshot_path;
  bool restore = false;
  util::ArgParser parser("streaming_monitor",
                         "Live ward monitoring with resident per-patient "
                         "state and step-level scoring.");
  parser.String("model", &model_name, "registry model to train and serve")
      .Int("admissions", &admissions, "historical training admissions", 1)
      .Int("epochs", &epochs, "training epochs", 0)
      .Double("threshold", &threshold, "alert threshold on predicted risk")
      .Int("ward", &ward_size, "patients on the live ward", 1)
      .String("snapshot-path", &snapshot_path,
              "session checkpoint file; enables the mid-stream "
              "kill-and-resume demo")
      .Bool("restore", &restore,
            "resume from an existing --snapshot-path file instead of "
            "streaming from hour 0");
  parser.Parse(argc, argv);
  if (restore && snapshot_path.empty()) {
    std::cerr << "--restore requires --snapshot-path\n";
    return 2;
  }

  // Train on a historical cohort.
  synth::CohortConfig history_config = synth::SynthPhysioNet2012();
  history_config.num_admissions = admissions;
  const data::EmrDataset history = synth::GenerateCohort(history_config);
  train::PreparedExperiment experiment(history, data::Task::kMortality);
  auto model =
      baselines::MakeModel(model_name, history.num_features(), /*seed=*/3);
  train::TrainerConfig trainer_config;
  trainer_config.max_epochs = epochs;
  const train::TrainResult fit =
      train::Trainer(trainer_config)
          .Train(model.get(), experiment.prepared(), experiment.split(),
                 experiment.task());
  std::cout << model_name << " ready (test AUC-PR " << std::fixed
            << std::setprecision(3) << fit.test.auc_pr << ", "
            << (model->has_incremental_step()
                    ? "incremental step path"
                    : "rolling-window replay path")
            << ")\n\n";

  // Put the model behind the streaming service. Async mode: concurrent
  // observations coalesce in the micro-batcher.
  serve::ServeConfig serve_config;
  serve_config.infer.batch_size = ward_size;
  auto service =
      std::make_unique<serve::InferenceService>(model.get(), serve_config);

  // The live ward: raw admissions, observed hour by hour. Each patient
  // gets a session (resident model state) and a streaming imputer
  // (resident pipeline state).
  synth::CohortConfig ward_config = history_config;
  ward_config.num_admissions = ward_size;
  ward_config.seed = 271828;
  const data::EmrDataset ward = synth::GenerateCohort(ward_config);
  const int64_t num_features = ward.num_features();

  struct WardPatient {
    serve::SessionId id = serve::kInvalidSession;
    serve::StreamingImputer imputer;
    bool alerted = false;
    float risk = 0.0f;
    int64_t absorbed = 0;  // hours already scored before this process
  };
  std::vector<WardPatient> patients;
  int64_t hours = 0;
  if (restore) {
    // Cross-process resume: the service rehydrates every session from the
    // snapshot (same ids, same mid-stream state). Beds re-bind by tag; a
    // bed missing from the file (never admitted before the save) starts
    // cold. The client-side imputer state is rebuilt below by replaying
    // the already-absorbed hours through the imputer only — no scoring.
    std::string error;
    if (!service->RestoreSnapshot(snapshot_path, &error)) {
      std::cerr << "restore failed: " << error << "\n";
      return 1;
    }
    std::cout << "restored " << service->sessions().size() << " sessions from "
              << snapshot_path << "\n";
  }
  for (int64_t i = 0; i < ward.size(); ++i) {
    const std::string tag = "bed-" + std::to_string(i);
    serve::SessionId id = serve::kInvalidSession;
    int64_t absorbed = 0;
    float last_risk = 0.0f;
    if (restore) {
      for (const auto& session : service->sessions().Resident()) {
        if (session->tag == tag) {
          id = session->id;
          absorbed = session->observations.load();
          if (session->ever_scored.load()) last_risk = session->last_risk.load();
          break;
        }
      }
    }
    if (id == serve::kInvalidSession) id = service->Admit(tag);
    patients.push_back({id,
                        serve::StreamingImputer(&experiment.standardizer(),
                                                num_features),
                        false, last_risk, absorbed});
    hours = std::max(hours, ward.sample(i).num_steps);
  }
  // With --snapshot-path (and not restoring), checkpoint + kill + restore
  // the service halfway through the stream.
  const int64_t kill_hour =
      (!snapshot_path.empty() && !restore) ? hours / 2 : -1;

  std::cout << "streaming " << ward_size << " patients, " << hours
            << " hours; risk snapshots every 12h (* = above threshold "
            << std::setprecision(2) << threshold << "):\n";
  for (int64_t t = 0; t < hours; ++t) {
    // One wave of concurrent submissions: the whole ward's hour-t
    // observations land in the micro-batcher together and score as one
    // batched StepForward call.
    std::vector<std::pair<int64_t, std::future<serve::StepResult>>> inflight;
    for (int64_t i = 0; i < ward.size(); ++i) {
      const data::EmrSample& raw = ward.sample(i);
      if (t >= raw.num_steps) continue;
      WardPatient& patient = patients[static_cast<size_t>(i)];
      serve::Observation obs = patient.imputer.Next(
          raw.values.data() + t * num_features,
          raw.observed.data() + t * num_features);
      // Hours the restored session already scored only refresh the
      // client-side imputer; the resident model state has seen them.
      if (t < patient.absorbed) continue;
      inflight.emplace_back(i,
                            service->ObserveAsync(patient.id, std::move(obs)));
    }
    for (auto& [i, future] : inflight) {
      const serve::StepResult result = future.get();
      WardPatient& patient = patients[static_cast<size_t>(i)];
      if (!result.scored) continue;
      patient.risk = result.risk;
      if (!patient.alerted && result.risk >= threshold) {
        patient.alerted = true;
        std::cout << "  ALERT hour " << std::setw(2) << t << ": bed-" << i
                  << " risk " << std::setprecision(2) << result.risk << "\n";
      }
    }
    if ((t + 1) % 12 == 0) {
      std::cout << "  h" << std::setw(2) << (t + 1) << " |";
      for (const WardPatient& patient : patients) {
        std::cout << " " << std::setprecision(2) << patient.risk
                  << (patient.alerted ? "*" : " ");
      }
      std::cout << "\n";
    }
    if (t + 1 == kill_hour) {
      // Checkpoint every resident state, destroy the service (in-flight
      // work has drained: the wave above was harvested), and restore into
      // a brand-new one. Session ids are preserved, so the patient
      // handles above keep working and the risk trajectory continues as
      // if nothing happened.
      std::string error;
      if (!service->SaveSnapshotTo(snapshot_path, &error)) {
        std::cerr << "snapshot failed: " << error << "\n";
        return 1;
      }
      service.reset();
      service =
          std::make_unique<serve::InferenceService>(model.get(), serve_config);
      if (!service->RestoreSnapshot(snapshot_path, &error)) {
        std::cerr << "restore failed: " << error << "\n";
        return 1;
      }
      std::cout << "  -- h" << std::setw(2) << (t + 1) << " snapshot -> "
                << snapshot_path << "; service killed and restored with "
                << service->sessions().size() << " sessions (ids preserved)\n";
    }
  }

  for (WardPatient& patient : patients) service->Discharge(patient.id);
  const serve::MicroBatcher::Stats stats = service->batcher_stats();
  std::cout << "\n" << stats.observations << " observations in "
            << stats.batches << " batched calls (mean batch "
            << std::setprecision(1) << stats.mean_batch_size
            << "); sessions admitted " << service->sessions().admitted_total()
            << ", resident now " << service->sessions().size() << "\n";
  return 0;
}
