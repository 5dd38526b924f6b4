// The serving path's contract: advancing resident per-session state one
// observation at a time through StepForward is bitwise identical to
// replaying the full window through Forward — for every registry model,
// whether it implements an incremental step or rides the rolling-window
// replay fallback — and the micro-batcher's coalesced scoring matches
// serial scoring exactly. Also pins the session lifecycle, the streaming
// imputer's equivalence to the batch pipeline, and the nn-level cell-step
// identities the incremental paths are built on.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "baselines/baselines.h"
#include "data/pipeline.h"
#include "gtest/gtest.h"
#include "nn/recurrent_sweep.h"
#include "serve/service.h"
#include "serve/streaming_imputer.h"
#include "synth/simulator.h"
#include "train/trainer.h"

namespace elda {
namespace {

constexpr int64_t kFeatures = 5;

// A [1, T, C] single-patient batch with random observations. Masks are
// random, so features routinely first appear mid-stay — exercising
// ELDA-Net's never-observed-mask replay rule.
data::Batch RandomPatient(int64_t steps, uint64_t seed) {
  Rng rng(seed);
  data::Batch b;
  b.x = Tensor::Normal({1, steps, kFeatures}, 0.0f, 1.0f, &rng);
  b.mask = Tensor({1, steps, kFeatures});
  for (int64_t i = 0; i < b.mask.size(); ++i) {
    b.mask[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  b.delta = Tensor({1, steps, kFeatures});
  for (int64_t i = 0; i < b.delta.size(); ++i) {
    b.delta[i] = static_cast<float>(rng.Uniform() * 3.0);
  }
  b.y = Tensor::Zeros({1});
  return b;
}

// The first `steps` timesteps of a [1, T, C] batch — the window a batch
// caller would score after the streaming caller's step `steps - 1`.
data::Batch Prefix(const data::Batch& full, int64_t steps) {
  data::Batch b;
  b.x = Tensor::Empty({1, steps, kFeatures});
  b.mask = Tensor::Empty({1, steps, kFeatures});
  b.delta = Tensor::Empty({1, steps, kFeatures});
  b.y = Tensor::Zeros({1});
  std::memcpy(b.x.data(), full.x.data(), sizeof(float) * steps * kFeatures);
  std::memcpy(b.mask.data(), full.mask.data(),
              sizeof(float) * steps * kFeatures);
  std::memcpy(b.delta.data(), full.delta.data(),
              sizeof(float) * steps * kFeatures);
  return b;
}

// Timestep `t` of each patient, stacked into one [n, C] step batch.
train::StepBatch StepAt(const std::vector<data::Batch>& patients, int64_t t) {
  const int64_t n = static_cast<int64_t>(patients.size());
  train::StepBatch sb;
  sb.x = Tensor::Empty({n, kFeatures});
  sb.mask = Tensor::Empty({n, kFeatures});
  sb.delta = Tensor::Empty({n, kFeatures});
  for (int64_t b = 0; b < n; ++b) {
    std::memcpy(sb.x.data() + b * kFeatures,
                patients[b].x.data() + t * kFeatures,
                sizeof(float) * kFeatures);
    std::memcpy(sb.mask.data() + b * kFeatures,
                patients[b].mask.data() + t * kFeatures,
                sizeof(float) * kFeatures);
    std::memcpy(sb.delta.data() + b * kFeatures,
                patients[b].delta.data() + t * kFeatures,
                sizeof(float) * kFeatures);
  }
  return sb;
}

std::vector<std::string> AllRegistryNames() {
  std::vector<std::string> names = baselines::AllModelNames();
  names.push_back("ELDA-Net-Fbi*");
  names.push_back("ELDA-Net-Ffm*");
  return names;
}

serve::Observation RowObservation(const data::Batch& patient, int64_t t) {
  serve::Observation obs;
  obs.x.assign(patient.x.data() + t * kFeatures,
               patient.x.data() + (t + 1) * kFeatures);
  obs.mask.assign(patient.mask.data() + t * kFeatures,
                  patient.mask.data() + (t + 1) * kFeatures);
  obs.delta.assign(patient.delta.data() + t * kFeatures,
                   patient.delta.data() + (t + 1) * kFeatures);
  return obs;
}

// -- Incremental vs replay ---------------------------------------------------

// The core acceptance identity: for every registry model, the streamed
// logit after observation t equals — bitwise — Forward over the t+1-step
// prefix window. Models below their minimum scorable window must report
// NaN while still advancing state.
TEST(ServeTest, IncrementalMatchesReplayBitwise) {
  const int64_t T = 7;
  for (const std::string& name : AllRegistryNames()) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, kFeatures, /*seed=*/3);
    const int64_t min_steps = model->min_steps_to_score();
    for (uint64_t patient_seed : {11u, 29u}) {
      SCOPED_TRACE(patient_seed);
      const data::Batch full = RandomPatient(T, patient_seed);
      auto state = model->MakeStepState(/*window_capacity=*/T);
      for (int64_t t = 0; t < T; ++t) {
        ag::NoGradScope no_grad;
        const train::StepBatch sb = StepAt({full}, t);
        const Tensor logits =
            model->StepForward(sb, {state.get()}, nullptr).value();
        ASSERT_EQ(logits.size(), 1);
        ASSERT_EQ(state->steps_seen, t + 1);
        if (t + 1 < min_steps) {
          EXPECT_TRUE(std::isnan(logits[0]))
              << "step " << t << " scored below the minimum window";
          continue;
        }
        const Tensor replay = model->Forward(Prefix(full, t + 1)).value();
        EXPECT_EQ(logits[0], replay[0]) << "step " << t;
      }
    }
  }
}

// Coalescing heterogeneous sessions into one StepForward call must not
// change any value: each batch row is computed independently (the same
// strict-k contract the recurrence engine relies on).
TEST(ServeTest, BatchedStepsMatchSingleSession) {
  const int64_t T = 5;
  const int64_t n = 6;
  for (const std::string& name :
       {std::string("GRU"), std::string("GRU-D"), std::string("StageNet"),
        std::string("ConCare"), std::string("ELDA-Net"),
        std::string("RETAIN")}) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, kFeatures, /*seed=*/5);
    std::vector<data::Batch> patients;
    for (int64_t b = 0; b < n; ++b) {
      patients.push_back(RandomPatient(T, 100 + static_cast<uint64_t>(b)));
    }
    std::vector<std::unique_ptr<nn::StepState>> batched, single;
    for (int64_t b = 0; b < n; ++b) {
      batched.push_back(model->MakeStepState(T));
      single.push_back(model->MakeStepState(T));
    }
    for (int64_t t = 0; t < T; ++t) {
      ag::NoGradScope no_grad;
      std::vector<nn::StepState*> states;
      for (auto& s : batched) states.push_back(s.get());
      const Tensor together =
          model->StepForward(StepAt(patients, t), states, nullptr).value();
      for (int64_t b = 0; b < n; ++b) {
        const Tensor alone =
            model->StepForward(StepAt({patients[b]}, t), {single[b].get()},
                               nullptr)
                .value();
        if (std::isnan(alone[0])) {
          EXPECT_TRUE(std::isnan(together[b])) << name << " step " << t;
        } else {
          EXPECT_EQ(together[b], alone[0])
              << name << " session " << b << " step " << t;
        }
      }
    }
  }
}

// Once the rolling window is full, the fallback keeps scoring on the
// retained suffix — state advances and the logit matches Forward over the
// window a fresh state fed the same suffix would hold.
// ELDA-Net replays a session's window when a feature is first observed
// after step 0; all sessions flipping in one StepForward call replay in one
// packed sweep. Here sessions flip at window lengths 2, 4, 5 and 8 in the
// same call, beside sessions that do not flip (everything seen at step 0,
// or a first observation at step 0 of a fresh session), and a second call
// advances every session again. Each logit must equal Forward over that
// session's window bitwise.
TEST(ServeTest, BatchedFlipReplaysMatchForwardBitwise) {
  // Window length at the first joint call, and whether feature 0 is first
  // observed in it.
  struct Plan {
    int64_t length;
    bool flips;
  };
  const Plan plans[] = {{4, true},  {6, false}, {2, true},  {1, false},
                        {8, true},  {3, false}, {5, true}};
  for (const std::string& name :
       {std::string("ELDA-Net"), std::string("ELDA-Net-Fbi")}) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, kFeatures, /*seed=*/3);
    std::vector<data::Batch> patients;
    std::vector<std::unique_ptr<nn::StepState>> states;
    std::vector<nn::StepState*> raw;
    for (size_t i = 0; i < std::size(plans); ++i) {
      // One step past the joint call, so the second call has a row too.
      data::Batch p = RandomPatient(plans[i].length + 1, 300 + i);
      for (int64_t t = 0; t <= plans[i].length; ++t) {
        float* m = p.mask.data() + t * kFeatures;
        if (plans[i].flips) {
          m[0] = t == plans[i].length - 1 ? 1.0f : 0.0f;
        } else if (t == 0) {
          for (int64_t c = 0; c < kFeatures; ++c) m[c] = 1.0f;
        }
      }
      patients.push_back(std::move(p));
      states.push_back(model->MakeStepState(/*window_capacity=*/16));
      raw.push_back(states.back().get());
    }
    ag::NoGradScope no_grad;
    // Warm each session up to one step before its joint call, alone.
    for (size_t i = 0; i < patients.size(); ++i) {
      for (int64_t t = 0; t + 1 < plans[i].length; ++t) {
        model->StepForward(StepAt({patients[i]}, t), {raw[i]}, nullptr);
      }
    }
    for (int64_t call = 0; call < 2; ++call) {
      SCOPED_TRACE(call);
      train::StepBatch sb;
      sb.x = Tensor::Empty({static_cast<int64_t>(patients.size()), kFeatures});
      sb.mask = Tensor::Empty(sb.x.shape());
      sb.delta = Tensor::Empty(sb.x.shape());
      for (size_t i = 0; i < patients.size(); ++i) {
        const train::StepBatch row =
            StepAt({patients[i]}, plans[i].length - 1 + call);
        const size_t bytes = sizeof(float) * kFeatures;
        std::memcpy(sb.x.data() + i * kFeatures, row.x.data(), bytes);
        std::memcpy(sb.mask.data() + i * kFeatures, row.mask.data(), bytes);
        std::memcpy(sb.delta.data() + i * kFeatures, row.delta.data(), bytes);
      }
      const Tensor logits = model->StepForward(sb, raw, nullptr).value();
      for (size_t i = 0; i < patients.size(); ++i) {
        const int64_t len = plans[i].length + call;
        const float got = logits[static_cast<int64_t>(i)];
        if (len < model->min_steps_to_score()) {
          EXPECT_TRUE(std::isnan(got)) << "session " << i;
          continue;
        }
        const float want = model->Forward(Prefix(patients[i], len)).value()[0];
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
            << "session " << i << ": " << got << " vs " << want;
      }
    }
  }
}

TEST(ServeTest, ReplayFallbackTruncatesToWindowCapacity) {
  const int64_t T = 9;
  const int64_t window = 4;
  auto model = baselines::MakeModel("RETAIN", kFeatures, /*seed=*/3);
  const data::Batch full = RandomPatient(T, 7);
  auto state = model->MakeStepState(window);
  ag::NoGradScope no_grad;
  Tensor streamed;
  for (int64_t t = 0; t < T; ++t) {
    streamed = model->StepForward(StepAt({full}, t), {state.get()}, nullptr)
                   .value();
  }
  EXPECT_EQ(state->steps_seen, T);
  // Reference: a fresh state fed only the last `window` observations.
  auto suffix_state = model->MakeStepState(window);
  Tensor suffix;
  for (int64_t t = T - window; t < T; ++t) {
    suffix = model->StepForward(StepAt({full}, t), {suffix_state.get()},
                                nullptr)
                 .value();
  }
  EXPECT_EQ(streamed[0], suffix[0]);
}

// -- nn-level cell-step identities ------------------------------------------

// One PrecomputeInput+Step per timestep (the serving path's inner loop)
// reproduces the hoisted sweep bitwise — GRU.
TEST(ServeTest, GruCellStepMatchesSweep) {
  Rng rng(13);
  const int64_t B = 3, T = 6, C = 4, H = 5;
  nn::GruCell cell(C, H, &rng);
  const Tensor x = Tensor::Normal({B, T, C}, 0.0f, 1.0f, &rng);
  ag::NoGradScope no_grad;
  const nn::SweepResult sweep = nn::GruSweep(cell, ag::Constant(x));
  ag::Variable h = ag::Constant(Tensor::Zeros({B, H}));
  for (int64_t t = 0; t < T; ++t) {
    Tensor xt = Tensor::Empty({B, C});
    for (int64_t b = 0; b < B; ++b) {
      std::memcpy(xt.data() + b * C, x.data() + (b * T + t) * C,
                  sizeof(float) * C);
    }
    h = cell.Step(cell.PrecomputeInput(ag::Constant(xt)), h);
    const Tensor& want = sweep.steps[t].value();
    const Tensor& got = h.value();
    ASSERT_EQ(got.size(), want.size());
    for (int64_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i]) << "t=" << t << " i=" << i;
    }
  }
}

// Same identity for the LSTM's packed [2, B, H] state (StageNet's
// backbone).
TEST(ServeTest, LstmCellStepMatchesSweep) {
  Rng rng(17);
  const int64_t B = 3, T = 6, C = 4, H = 5;
  nn::LstmCell cell(C, H, &rng);
  const Tensor x = Tensor::Normal({B, T, C}, 0.0f, 1.0f, &rng);
  ag::NoGradScope no_grad;
  const nn::SweepResult sweep = nn::LstmSweep(cell, ag::Constant(x));
  ag::Variable packed = ag::Constant(Tensor::Zeros({2, B, H}));
  for (int64_t t = 0; t < T; ++t) {
    Tensor xt = Tensor::Empty({B, C});
    for (int64_t b = 0; b < B; ++b) {
      std::memcpy(xt.data() + b * C, x.data() + (b * T + t) * C,
                  sizeof(float) * C);
    }
    packed = cell.Step(cell.PrecomputeInput(ag::Constant(xt)), packed);
    // sweep.steps[t] is the h half; compare against block 0 of the packed
    // state.
    const Tensor& want = sweep.steps[t].value();
    const float* got = packed.value().data();  // h block first
    ASSERT_EQ(want.size(), B * H);
    for (int64_t i = 0; i < B * H; ++i) {
      ASSERT_EQ(got[i], want.data()[i]) << "t=" << t << " i=" << i;
    }
  }
}

// -- Session lifecycle -------------------------------------------------------

TEST(ServeTest, SessionLifecycleAndCapacity) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  serve::ServeConfig config;
  config.max_sessions = 2;
  config.async = false;
  serve::InferenceService service(model.get(), config);

  const serve::SessionId a = service.Admit("bed-12");
  const serve::SessionId b = service.Admit("bed-31");
  ASSERT_NE(a, serve::kInvalidSession);
  ASSERT_NE(b, serve::kInvalidSession);
  EXPECT_NE(a, b);
  // At capacity: the third admission is refused, not queued.
  EXPECT_EQ(service.Admit("bed-99"), serve::kInvalidSession);
  EXPECT_EQ(service.sessions().size(), 2);
  EXPECT_EQ(service.sessions().high_water(), 2);

  const data::Batch patient = RandomPatient(3, 21);
  const serve::StepResult r = service.Observe(a, RowObservation(patient, 0));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.step, 1);

  // Discharge frees a slot; the discharged id stops scoring.
  EXPECT_TRUE(service.Discharge(a));
  EXPECT_FALSE(service.Discharge(a));
  EXPECT_EQ(service.sessions().size(), 1);
  const serve::StepResult gone =
      service.Observe(a, RowObservation(patient, 1));
  EXPECT_FALSE(gone.ok);
  EXPECT_NE(service.Admit("bed-99"), serve::kInvalidSession);
  EXPECT_EQ(service.sessions().admitted_total(), 3);
  EXPECT_EQ(service.sessions().discharged_total(), 1);
}

TEST(ServeTest, MinimumWindowGatesScoringButAdvancesState) {
  auto model = baselines::MakeModel("StageNet", kFeatures, /*seed=*/3);
  const int64_t min_steps = model->min_steps_to_score();
  ASSERT_GT(min_steps, 1);
  serve::ServeConfig config;
  config.async = false;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit();
  const data::Batch patient = RandomPatient(min_steps + 2, 33);
  for (int64_t t = 0; t < min_steps + 2; ++t) {
    const serve::StepResult r = service.Observe(id, RowObservation(patient, t));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.step, t + 1);
    if (t + 1 < min_steps) {
      EXPECT_FALSE(r.scored);
      EXPECT_TRUE(std::isnan(r.risk));
    } else {
      EXPECT_TRUE(r.scored);
      EXPECT_FALSE(std::isnan(r.risk));
    }
  }
}

// -- Micro-batcher -----------------------------------------------------------

// Concurrent clients streaming disjoint sessions through the async
// micro-batcher produce exactly the risks the sync (inline, serial)
// service produces for the same streams. Runs under the "serve"/"par"
// labels, so the ThreadSanitizer suite covers the batcher's queue.
TEST(ServeTest, ConcurrentMicroBatcherMatchesSerialScoring) {
  const int64_t T = 5;
  const int64_t num_sessions = 8;
  const int64_t num_clients = 4;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  std::vector<data::Batch> patients;
  for (int64_t s = 0; s < num_sessions; ++s) {
    patients.push_back(RandomPatient(T, 500 + static_cast<uint64_t>(s)));
  }

  // Serial reference: sync service, one stream after another.
  std::vector<std::vector<float>> want(num_sessions);
  {
    serve::ServeConfig config;
    config.async = false;
    serve::InferenceService service(model.get(), config);
    for (int64_t s = 0; s < num_sessions; ++s) {
      const serve::SessionId id = service.Admit();
      for (int64_t t = 0; t < T; ++t) {
        want[s].push_back(service.Observe(id, RowObservation(patients[s], t)).risk);
      }
    }
  }

  // Concurrent run: 4 clients, each owning 2 sessions, observations
  // submitted in per-session order but racing across sessions.
  std::vector<std::vector<float>> got(num_sessions,
                                      std::vector<float>(T, 0.0f));
  {
    serve::ServeConfig config;
    config.async = true;
    config.infer.batch_size = num_sessions;
    serve::InferenceService service(model.get(), config);
    std::vector<serve::SessionId> ids;
    for (int64_t s = 0; s < num_sessions; ++s) ids.push_back(service.Admit());
    std::vector<std::thread> clients;
    for (int64_t w = 0; w < num_clients; ++w) {
      clients.emplace_back([&, w] {
        for (int64_t s = w; s < num_sessions; s += num_clients) {
          for (int64_t t = 0; t < T; ++t) {
            got[s][t] =
                service.Observe(ids[s], RowObservation(patients[s], t)).risk;
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    const serve::MicroBatcher::Stats stats = service.batcher_stats();
    EXPECT_EQ(stats.observations, num_sessions * T);
  }

  for (int64_t s = 0; s < num_sessions; ++s) {
    for (int64_t t = 0; t < T; ++t) {
      EXPECT_EQ(got[s][t], want[s][t]) << "session " << s << " step " << t;
    }
  }
}

// Same-session requests already in the queue defer rather than co-batch,
// preserving per-session FIFO: a burst of async submissions for one
// session resolves to exactly the serial step sequence.
TEST(ServeTest, SameSessionBurstKeepsFifoOrder) {
  const int64_t T = 6;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(T, 77);

  std::vector<float> want;
  {
    serve::ServeConfig config;
    config.async = false;
    serve::InferenceService service(model.get(), config);
    const serve::SessionId id = service.Admit();
    for (int64_t t = 0; t < T; ++t) {
      want.push_back(service.Observe(id, RowObservation(patient, t)).risk);
    }
  }

  serve::ServeConfig config;
  config.async = true;
  config.infer.batch_size = T;  // the whole burst fits one flush window
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit();
  std::vector<std::future<serve::StepResult>> futures;
  for (int64_t t = 0; t < T; ++t) {
    futures.push_back(service.ObserveAsync(id, RowObservation(patient, t)));
  }
  for (int64_t t = 0; t < T; ++t) {
    const serve::StepResult r = futures[static_cast<size_t>(t)].get();
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.step, t + 1);
    EXPECT_EQ(r.risk, want[static_cast<size_t>(t)]) << "step " << t;
  }
}

// -- Streaming imputer and end-to-end equivalence ---------------------------

// StreamingImputer is the batch pipeline run one row at a time: on a real
// (synthetic) cohort its rows reproduce PrepareDataset bitwise.
TEST(ServeTest, StreamingImputerMatchesBatchPipeline) {
  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = 6;
  const data::EmrDataset cohort = synth::GenerateCohort(cohort_config);
  std::vector<int64_t> all_indices;
  for (int64_t i = 0; i < cohort.size(); ++i) all_indices.push_back(i);
  data::Standardizer standardizer;
  standardizer.Fit(cohort, all_indices);
  const std::vector<data::PreparedSample> prepared =
      data::PrepareDataset(cohort, standardizer);

  for (int64_t i = 0; i < cohort.size(); ++i) {
    SCOPED_TRACE(i);
    const data::EmrSample& raw = cohort.sample(i);
    const data::PreparedSample& want = prepared[static_cast<size_t>(i)];
    serve::StreamingImputer imputer(&standardizer, raw.num_features);
    for (int64_t t = 0; t < raw.num_steps; ++t) {
      const serve::Observation row = imputer.Next(
          raw.values.data() + t * raw.num_features,
          raw.observed.data() + t * raw.num_features);
      for (int64_t c = 0; c < raw.num_features; ++c) {
        const int64_t at = t * raw.num_features + c;
        ASSERT_EQ(row.x[static_cast<size_t>(c)], want.x.data()[at])
            << "t=" << t << " c=" << c;
        ASSERT_EQ(row.mask[static_cast<size_t>(c)], want.mask.data()[at])
            << "t=" << t << " c=" << c;
        ASSERT_EQ(row.delta[static_cast<size_t>(c)], want.delta.data()[at])
            << "t=" << t << " c=" << c;
      }
    }
    EXPECT_EQ(imputer.steps(), raw.num_steps);
  }
}

// Closing the loop: streaming a prepared admission through the service
// lands on exactly the risk Trainer::Predict reports for the same sample —
// the step path, the replay path, and the batch path share kernels
// end-to-end.
TEST(ServeTest, FinalStreamedRiskMatchesTrainerPredict) {
  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = 4;
  const data::EmrDataset cohort = synth::GenerateCohort(cohort_config);
  std::vector<int64_t> all_indices;
  for (int64_t i = 0; i < cohort.size(); ++i) all_indices.push_back(i);
  data::Standardizer standardizer;
  standardizer.Fit(cohort, all_indices);
  const std::vector<data::PreparedSample> prepared =
      data::PrepareDataset(cohort, standardizer);

  for (const std::string& name : {std::string("GRU"), std::string("ELDA-Net"),
                                  std::string("RETAIN")}) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, cohort.num_features(), /*seed=*/3);
    const train::PredictResult want = train::Trainer::Predict(
        model.get(), prepared, all_indices, data::Task::kMortality);

    serve::ServeConfig config;
    config.async = false;
    // Window at least as long as any stay, so nothing truncates.
    config.window_capacity = 256;
    serve::InferenceService service(model.get(), config);
    for (int64_t i = 0; i < cohort.size(); ++i) {
      const data::PreparedSample& sample = prepared[static_cast<size_t>(i)];
      const int64_t T = sample.x.shape(0);
      const int64_t C = sample.x.shape(1);
      const serve::SessionId id = service.Admit();
      serve::StepResult last;
      for (int64_t t = 0; t < T; ++t) {
        serve::Observation obs;
        obs.x.assign(sample.x.data() + t * C, sample.x.data() + (t + 1) * C);
        obs.mask.assign(sample.mask.data() + t * C,
                        sample.mask.data() + (t + 1) * C);
        obs.delta.assign(sample.delta.data() + t * C,
                         sample.delta.data() + (t + 1) * C);
        last = service.Observe(id, std::move(obs));
      }
      ASSERT_TRUE(last.ok);
      ASSERT_TRUE(last.scored);
      EXPECT_EQ(last.risk, want.scores[static_cast<size_t>(i)])
          << "admission " << i;
      service.Discharge(id);
    }
  }
}

}  // namespace
}  // namespace elda
