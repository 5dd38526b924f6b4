// Fleet-grade serving contracts: session checkpoint/restore, idle
// eviction, backpressure, deadlines, multi-worker sharding, and the
// fault-injected failure paths.
//
// The load-bearing identity throughout is bitwise: a session killed and
// restored from a snapshot — or evicted with checkpoint and rehydrated —
// must continue scoring exactly the risks the uninterrupted stream would
// have produced, for every registry model (incremental and replay
// fallback alike). The fault-plan tests drive the serve faults
// (drop_snapshot, poison_state, slow_worker) end-to-end: a corrupt
// session record quarantines rather than poisoning its fleet, a dropped
// snapshot leaves the previous file intact, a slow worker changes no
// value anywhere.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "data/pipeline.h"
#include "gtest/gtest.h"
#include "health/health.h"
#include "nn/forward_context.h"
#include "nn/step_state.h"
#include "serve/micro_batcher.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "train/trainer.h"
#include "util/byte_codec.h"

namespace elda {
namespace {

constexpr int64_t kFeatures = 5;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

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

std::vector<std::string> AllRegistryNames() {
  std::vector<std::string> names = baselines::AllModelNames();
  names.push_back("ELDA-Net-Fbi*");
  names.push_back("ELDA-Net-Ffm*");
  return names;
}

// Risks from streaming `patient` through a fresh sync service — the
// uninterrupted reference every restore/rehydrate test compares against.
std::vector<float> UninterruptedRisks(const train::SequenceModel* model,
                                      const data::Batch& patient, int64_t T,
                                      int64_t window_capacity) {
  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = window_capacity;
  serve::InferenceService service(model, config);
  const serve::SessionId id = service.Admit();
  std::vector<float> risks;
  for (int64_t t = 0; t < T; ++t) {
    risks.push_back(service.Observe(id, RowObservation(patient, t)).risk);
  }
  return risks;
}

void ExpectSameRisk(float got, float want, const char* what, int64_t t) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << " step " << t;
  } else {
    EXPECT_EQ(got, want) << what << " step " << t;
  }
}

class FaultPlanGuard {
 public:
  explicit FaultPlanGuard(const health::FaultPlan& plan) {
    health::GlobalFaultInjector()->Arm(plan);
  }
  ~FaultPlanGuard() { health::GlobalFaultInjector()->Disarm(); }
};

// -- StepState Save/Load -----------------------------------------------------

// The state-level contract under everything else: Save into bytes, Load
// into a fresh MakeStepState allocation, and both copies keep producing
// bitwise-equal logits — for every registry model.
TEST(ServeRobustnessTest, StateSaveLoadRoundTripBitwise) {
  const int64_t T = 7;
  const int64_t split = 3;
  for (const std::string& name : AllRegistryNames()) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, kFeatures, /*seed=*/3);
    const data::Batch patient = RandomPatient(T, 41);
    ag::NoGradScope no_grad;
    auto original = model->MakeStepState(T);
    for (int64_t t = 0; t < split; ++t) {
      serve::Observation obs = RowObservation(patient, t);
      train::StepBatch sb;
      sb.x = Tensor::Empty({1, kFeatures});
      sb.mask = Tensor::Empty({1, kFeatures});
      sb.delta = Tensor::Empty({1, kFeatures});
      std::memcpy(sb.x.data(), obs.x.data(), sizeof(float) * kFeatures);
      std::memcpy(sb.mask.data(), obs.mask.data(),
                  sizeof(float) * kFeatures);
      std::memcpy(sb.delta.data(), obs.delta.data(),
                  sizeof(float) * kFeatures);
      model->StepForward(sb, {original.get()}, nullptr);
    }
    util::ByteWriter writer;
    original->Save(&writer);
    const std::string bytes = writer.Take();
    auto restored = model->MakeStepState(T);
    util::ByteReader reader(bytes);
    ASSERT_TRUE(restored->Load(&reader));
    ASSERT_TRUE(reader.AtEnd()) << "trailing bytes after Load";
    ASSERT_EQ(restored->steps_seen, original->steps_seen);
    for (int64_t t = split; t < T; ++t) {
      serve::Observation obs = RowObservation(patient, t);
      train::StepBatch sb;
      sb.x = Tensor::Empty({1, kFeatures});
      sb.mask = Tensor::Empty({1, kFeatures});
      sb.delta = Tensor::Empty({1, kFeatures});
      std::memcpy(sb.x.data(), obs.x.data(), sizeof(float) * kFeatures);
      std::memcpy(sb.mask.data(), obs.mask.data(),
                  sizeof(float) * kFeatures);
      std::memcpy(sb.delta.data(), obs.delta.data(),
                  sizeof(float) * kFeatures);
      const Tensor a =
          model->StepForward(sb, {original.get()}, nullptr).value();
      const Tensor b =
          model->StepForward(sb, {restored.get()}, nullptr).value();
      if (std::isnan(a[0])) {
        EXPECT_TRUE(std::isnan(b[0])) << "step " << t;
      } else {
        EXPECT_EQ(a[0], b[0]) << "step " << t;
      }
    }
  }
}

// A truncated state payload is rejected by Load, never half-applied.
TEST(ServeRobustnessTest, TruncatedStatePayloadRejected) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  auto state = model->MakeStepState(8);
  const data::Batch patient = RandomPatient(2, 9);
  ag::NoGradScope no_grad;
  train::StepBatch sb;
  sb.x = Tensor::Empty({1, kFeatures});
  sb.mask = Tensor::Empty({1, kFeatures});
  sb.delta = Tensor::Empty({1, kFeatures});
  serve::Observation obs = RowObservation(patient, 0);
  std::memcpy(sb.x.data(), obs.x.data(), sizeof(float) * kFeatures);
  std::memcpy(sb.mask.data(), obs.mask.data(), sizeof(float) * kFeatures);
  std::memcpy(sb.delta.data(), obs.delta.data(), sizeof(float) * kFeatures);
  model->StepForward(sb, {state.get()}, nullptr);
  util::ByteWriter writer;
  state->Save(&writer);
  const std::string bytes = writer.Take();
  for (size_t cut : {size_t{0}, size_t{4}, bytes.size() - 1}) {
    auto fresh = model->MakeStepState(8);
    util::ByteReader reader(bytes.data(), cut);
    EXPECT_FALSE(fresh->Load(&reader) && reader.AtEnd())
        << "cut=" << cut << " accepted";
  }
}

// A state payload whose window fields were edited is rejected by Load or
// loads into an intact state — never a later CHECK abort or an allocation
// sized by the corrupt field. Every registry model, mid-stream: each
// (width, size) window header in the payload has each field set to a
// mismatched, negative, oversized or off-by-one value.
TEST(ServeRobustnessTest, CorruptWindowFieldsRejectedOrIntact) {
  const int64_t capacity = 8;
  const data::Batch patient = RandomPatient(6, 43);
  ag::NoGradScope no_grad;
  auto step = [&](const train::SequenceModel& model, nn::StepState* state,
                  int64_t t) {
    train::StepBatch sb;
    sb.x = Tensor::Empty({1, kFeatures});
    sb.mask = Tensor::Empty({1, kFeatures});
    sb.delta = Tensor::Empty({1, kFeatures});
    serve::Observation obs = RowObservation(patient, t);
    std::memcpy(sb.x.data(), obs.x.data(), sizeof(float) * kFeatures);
    std::memcpy(sb.mask.data(), obs.mask.data(), sizeof(float) * kFeatures);
    std::memcpy(sb.delta.data(), obs.delta.data(), sizeof(float) * kFeatures);
    model.StepForward(sb, {state}, nullptr);
  };
  for (const std::string& name : AllRegistryNames()) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, kFeatures, /*seed=*/3);
    auto original = model->MakeStepState(capacity);
    for (int64_t t = 0; t < 5; ++t) step(*model, original.get(), t);
    util::ByteWriter writer;
    original->Save(&writer);
    const std::string bytes = writer.Take();

    // Window headers: an int64 width, then an int64 row count in
    // [1, capacity] whose rows fit in the payload.
    int64_t headers = 0;
    for (size_t at = 0; at + 16 <= bytes.size(); ++at) {
      int64_t width = 0, size = 0;
      std::memcpy(&width, bytes.data() + at, 8);
      std::memcpy(&size, bytes.data() + at + 8, 8);
      if (width < 1 || width > 4096 || size < 1 || size > capacity ||
          at + 16 + static_cast<size_t>(size * width) * 4 > bytes.size()) {
        continue;
      }
      ++headers;
      std::vector<std::pair<size_t, int64_t>> edits;
      for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, width - 1,
                        width + 1, int64_t{1} << 31, int64_t{1} << 40,
                        int64_t{1} << 62}) {
        edits.emplace_back(at, v);
      }
      for (int64_t v : {int64_t{0}, int64_t{-1}, size - 1, size + 1,
                        capacity + 1, int64_t{1} << 31, int64_t{1} << 40,
                        int64_t{1} << 62}) {
        edits.emplace_back(at + 8, v);
      }
      for (const auto& [offset, value] : edits) {
        std::string edited = bytes;
        std::memcpy(edited.data() + offset, &value, 8);
        auto fresh = model->MakeStepState(capacity);
        util::ByteReader reader(edited);
        if (fresh->Load(&reader) && reader.AtEnd()) {
          step(*model, fresh.get(), 5);  // must not abort
        }
      }
    }
    const bool windowed = name != "GRU" && name != "GRU-D" &&
                          name != "ConCare";
    if (windowed) {
      EXPECT_GE(headers, 1) << "no window header found";
    }
  }
}

// The reported payload: RETAIN over 37 features, whose three raw windows
// claim width 5 (then 2^40) with one row each. Load must refuse it rather
// than leave a state that aborts at the next StepForward, or throw while
// allocating a row of the claimed width. Nine full rows of the right width
// overflow a capacity-8 window and are refused too, instead of silently
// evicting the oldest.
TEST(ServeRobustnessTest, MismatchedWindowWidthRejectedByLoad) {
  auto model = baselines::MakeModel("RETAIN", 37, /*seed=*/3);
  for (const auto& [width, rows] :
       std::vector<std::pair<int64_t, int64_t>>{
           {5, 1}, {int64_t{1} << 40, 1}, {37, 9}}) {
    util::ByteWriter writer;
    writer.Put<int64_t>(1);  // steps_seen
    for (int w = 0; w < 3; ++w) {
      writer.Put<int64_t>(width);
      writer.Put<int64_t>(rows);
      const std::vector<float> row(static_cast<size_t>(rows * 37), 0.5f);
      writer.PutArray(row.data(), width == 37 ? row.size() : 5);
    }
    const std::string bytes = writer.Take();
    auto state = model->MakeStepState(8);
    util::ByteReader reader(bytes);
    EXPECT_FALSE(state->Load(&reader)) << "width " << width;
  }
}

// -- Kill-and-restore --------------------------------------------------------

// The tentpole identity: snapshot mid-stream, destroy the service (the
// "kill"), restore into a fresh one, keep streaming — every post-restore
// risk is bitwise what the uninterrupted stream produced. Every registry
// model.
TEST(ServeRobustnessTest, KillAndRestoreBitwiseIdentity) {
  const int64_t T = 8;
  const int64_t kill_at = 4;
  const std::string path = TempPath("serve_kill_restore.ckpt");
  for (const std::string& name : AllRegistryNames()) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, kFeatures, /*seed=*/3);
    const data::Batch patient = RandomPatient(T, 51);
    const std::vector<float> want =
        UninterruptedRisks(model.get(), patient, T, T);

    serve::ServeConfig config;
    config.async = false;
    config.window_capacity = T;
    serve::SessionId id;
    {
      serve::InferenceService service(model.get(), config);
      id = service.Admit("bed-7");
      for (int64_t t = 0; t < kill_at; ++t) {
        ExpectSameRisk(service.Observe(id, RowObservation(patient, t)).risk,
                       want[static_cast<size_t>(t)], "pre-kill", t);
      }
      ASSERT_TRUE(service.SaveSnapshotTo(path));
    }  // service destroyed: the kill

    serve::InferenceService revived(model.get(), config);
    std::string error;
    ASSERT_TRUE(revived.RestoreSnapshot(path, &error)) << error;
    ASSERT_EQ(revived.sessions().size(), 1);
    const std::shared_ptr<serve::Session> session =
        revived.sessions().Get(id);
    ASSERT_NE(session, nullptr) << "restored session lost its id";
    EXPECT_EQ(session->tag, "bed-7");
    EXPECT_EQ(session->observations.load(), kill_at);
    for (int64_t t = kill_at; t < T; ++t) {
      ExpectSameRisk(revived.Observe(id, RowObservation(patient, t)).risk,
                     want[static_cast<size_t>(t)], "post-restore", t);
    }
  }
}

// The same identity through the async multi-worker path: snapshot under a
// live batcher fleet (Pause/Resume quiesce), restore, continue async.
TEST(ServeRobustnessTest, AsyncKillAndRestoreBitwise) {
  const int64_t T = 8;
  const int64_t kill_at = 4;
  const int64_t num_sessions = 6;
  const std::string path = TempPath("serve_async_kill_restore.ckpt");
  auto model = baselines::MakeModel("ELDA-Net", kFeatures, /*seed=*/3);
  std::vector<data::Batch> patients;
  std::vector<std::vector<float>> want;
  for (int64_t s = 0; s < num_sessions; ++s) {
    patients.push_back(RandomPatient(T, 700 + static_cast<uint64_t>(s)));
    want.push_back(UninterruptedRisks(model.get(), patients.back(), T, T));
  }

  serve::ServeConfig config;
  config.async = true;
  config.num_workers = 2;
  config.window_capacity = T;
  std::vector<serve::SessionId> ids;
  {
    serve::InferenceService service(model.get(), config);
    for (int64_t s = 0; s < num_sessions; ++s) {
      ids.push_back(service.Admit("bed-" + std::to_string(s)));
    }
    for (int64_t t = 0; t < kill_at; ++t) {
      std::vector<std::future<serve::StepResult>> futures;
      for (int64_t s = 0; s < num_sessions; ++s) {
        futures.push_back(
            service.ObserveAsync(ids[s], RowObservation(patients[s], t)));
      }
      for (int64_t s = 0; s < num_sessions; ++s) {
        ExpectSameRisk(futures[static_cast<size_t>(s)].get().risk,
                       want[static_cast<size_t>(s)][static_cast<size_t>(t)],
                       "pre-kill", t);
      }
    }
    ASSERT_TRUE(service.SaveSnapshotTo(path));
  }

  serve::InferenceService revived(model.get(), config);
  std::string error;
  ASSERT_TRUE(revived.RestoreSnapshot(path, &error)) << error;
  ASSERT_EQ(revived.sessions().size(), num_sessions);
  for (int64_t t = kill_at; t < T; ++t) {
    std::vector<std::future<serve::StepResult>> futures;
    for (int64_t s = 0; s < num_sessions; ++s) {
      futures.push_back(
          revived.ObserveAsync(ids[s], RowObservation(patients[s], t)));
    }
    for (int64_t s = 0; s < num_sessions; ++s) {
      ExpectSameRisk(futures[static_cast<size_t>(s)].get().risk,
                     want[static_cast<size_t>(s)][static_cast<size_t>(t)],
                     "post-restore", t);
    }
  }
}

// Restore is strict about what it accepts: a non-empty table, a different
// model, or a different window capacity are refused outright.
TEST(ServeRobustnessTest, RestoreValidatesMetaAndEmptiness) {
  const std::string path = TempPath("serve_restore_validate.ckpt");
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(3, 5);
  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = 8;
  {
    serve::InferenceService service(model.get(), config);
    const serve::SessionId id = service.Admit();
    service.Observe(id, RowObservation(patient, 0));
    ASSERT_TRUE(service.SaveSnapshotTo(path));
  }
  {
    // Non-empty table.
    serve::InferenceService busy(model.get(), config);
    busy.Admit();
    EXPECT_FALSE(busy.RestoreSnapshot(path));
  }
  {
    // Wrong model.
    auto other = baselines::MakeModel("GRU-D", kFeatures, /*seed=*/3);
    serve::InferenceService mismatched(other.get(), config);
    std::string error;
    EXPECT_FALSE(mismatched.RestoreSnapshot(path, &error));
    EXPECT_NE(error.find("GRU"), std::string::npos);
  }
  {
    // Wrong window capacity.
    serve::ServeConfig narrow = config;
    narrow.window_capacity = 4;
    serve::InferenceService mismatched(model.get(), narrow);
    EXPECT_FALSE(mismatched.RestoreSnapshot(path));
  }
}

// -- Eviction ----------------------------------------------------------------

// checkpoint-then-evict parks the LRU session's serialized state;
// re-admission under the same tag rehydrates it and scoring continues
// bitwise as if never evicted.
TEST(ServeRobustnessTest, EvictThenRehydrateBitwise) {
  const int64_t T = 8;
  const int64_t evict_at = 4;
  auto model = baselines::MakeModel("GRU-D", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(T, 61);
  const std::vector<float> want =
      UninterruptedRisks(model.get(), patient, T, T);

  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = T;
  config.max_sessions = 2;
  config.eviction = serve::EvictionPolicy::kCheckpointThenEvict;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit("bed-a");
  for (int64_t t = 0; t < evict_at; ++t) {
    ExpectSameRisk(service.Observe(id, RowObservation(patient, t)).risk,
                   want[static_cast<size_t>(t)], "pre-evict", t);
  }
  // Fill the table past capacity: bed-a is the LRU, so the third
  // admission parks it.
  ASSERT_NE(service.Admit("bed-b"), serve::kInvalidSession);
  ASSERT_NE(service.Admit("bed-c"), serve::kInvalidSession);
  EXPECT_EQ(service.sessions().evicted_total(), 1);
  EXPECT_EQ(service.sessions().parked_count(), 1);
  EXPECT_EQ(service.sessions().Get(id), nullptr);
  EXPECT_FALSE(service.Observe(id, RowObservation(patient, evict_at)).ok);

  // Re-admission under the tag rehydrates: same id, mid-stream state.
  // (Making room parks bed-b in turn, so one parked entry remains.)
  const serve::SessionId back = service.Admit("bed-a");
  EXPECT_EQ(back, id);
  EXPECT_EQ(service.sessions().rehydrated_total(), 1);
  EXPECT_EQ(service.sessions().parked_count(), 1);
  for (int64_t t = evict_at; t < T; ++t) {
    ExpectSameRisk(service.Observe(back, RowObservation(patient, t)).risk,
                   want[static_cast<size_t>(t)], "post-rehydrate", t);
  }
}

// Under plain kEvict the shed session is gone for good: re-admission gets
// a fresh id and cold state.
TEST(ServeRobustnessTest, PlainEvictStartsCold) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(4, 71);
  serve::ServeConfig config;
  config.async = false;
  config.max_sessions = 1;
  config.eviction = serve::EvictionPolicy::kEvict;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit("bed-a");
  service.Observe(id, RowObservation(patient, 0));
  service.Observe(id, RowObservation(patient, 1));
  ASSERT_NE(service.Admit("bed-b"), serve::kInvalidSession);
  EXPECT_EQ(service.sessions().evicted_total(), 1);
  EXPECT_EQ(service.sessions().parked_count(), 0);
  const serve::SessionId again = service.Admit("bed-a");
  EXPECT_NE(again, id);
  const serve::StepResult r =
      service.Observe(again, RowObservation(patient, 0));
  EXPECT_EQ(r.step, 1) << "rehydrated instead of cold";
}

// The idle-TTL sweep evicts exactly the sessions whose idle age exceeds
// the TTL, and parked sessions survive a snapshot/restore cycle.
TEST(ServeRobustnessTest, IdleTtlSweepAndParkedSurviveSnapshot) {
  const std::string path = TempPath("serve_idle_parked.ckpt");
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(8, 81);
  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = 8;
  config.eviction = serve::EvictionPolicy::kCheckpointThenEvict;
  config.idle_ttl = 4;  // swept manually below; no maintenance thread
  serve::InferenceService service(model.get(), config);
  const serve::SessionId idle_id = service.Admit("bed-idle");
  const serve::SessionId busy_id = service.Admit("bed-busy");
  service.Observe(idle_id, RowObservation(patient, 0));
  for (int64_t t = 0; t < 6; ++t) {
    service.Observe(busy_id, RowObservation(patient, t));
  }
  EXPECT_EQ(service.SweepIdle(), 1);
  EXPECT_EQ(service.sessions().size(), 1);
  EXPECT_EQ(service.sessions().parked_count(), 1);
  EXPECT_NE(service.sessions().Get(busy_id), nullptr);

  // The parked state rides the snapshot into a fresh service and still
  // rehydrates there.
  ASSERT_TRUE(service.SaveSnapshotTo(path));
  serve::InferenceService revived(model.get(), config);
  std::string error;
  ASSERT_TRUE(revived.RestoreSnapshot(path, &error)) << error;
  EXPECT_EQ(revived.sessions().parked_count(), 1);
  const serve::SessionId back = revived.Admit("bed-idle");
  EXPECT_EQ(back, idle_id);
  EXPECT_EQ(revived.sessions().rehydrated_total(), 1);
  const serve::StepResult r =
      revived.Observe(back, RowObservation(patient, 1));
  EXPECT_EQ(r.step, 2) << "parked state did not survive the snapshot";
}

// Parked bytes with trailing garbage are rejected exactly like snapshot
// restore rejects them (Load must consume every byte): the re-admission
// falls back to a cold session instead of trusting a suspect payload.
TEST(ServeRobustnessTest, RehydrationRejectsTrailingGarbage) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  serve::SessionTable table(model.get(), /*window_capacity=*/8,
                            /*max_sessions=*/4,
                            serve::EvictionPolicy::kCheckpointThenEvict);
  // A genuine serialized state, then one stray byte appended.
  auto state = model->MakeStepState(8);
  util::ByteWriter writer;
  state->Save(&writer);
  serve::ParkedSession parked;
  parked.id = 7;
  parked.state = writer.Take() + '\x01';
  table.RestoreParked("bed-x", parked);
  const std::shared_ptr<serve::Session> session = table.Admit("bed-x");
  ASSERT_NE(session, nullptr);
  EXPECT_NE(session->id, 7) << "trailing garbage rehydrated anyway";
  EXPECT_EQ(session->state->steps_seen, 0);
  EXPECT_EQ(table.rehydrated_total(), 0);
  EXPECT_EQ(table.parked_count(), 0) << "suspect parked bytes kept";
}

// A checkpoint-then-evicted session carries its monitoring mirrors
// (last_risk / ever_scored) through the park and back.
TEST(ServeRobustnessTest, RehydrationRestoresMonitoringMirrors) {
  const int64_t T = 4;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(T, 201);
  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = T;
  config.max_sessions = 1;
  config.eviction = serve::EvictionPolicy::kCheckpointThenEvict;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit("bed-a");
  float last = 0.0f;
  for (int64_t t = 0; t < T; ++t) {
    last = service.Observe(id, RowObservation(patient, t)).risk;
  }
  ASSERT_NE(service.Admit("bed-b"), serve::kInvalidSession);  // parks bed-a
  const serve::SessionId back = service.Admit("bed-a");
  const std::shared_ptr<serve::Session> session =
      service.sessions().Get(back);
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->ever_scored.load());
  EXPECT_EQ(session->last_risk.load(), last);
}

// Restoring a snapshot with more resident sessions than the target
// table's bound is refused outright, not silently overshot.
TEST(ServeRobustnessTest, RestoreRefusesOverCapacitySnapshot) {
  const std::string path = TempPath("serve_over_capacity.ckpt");
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(1, 211);
  serve::ServeConfig config;
  config.async = false;
  config.max_sessions = 8;
  {
    serve::InferenceService service(model.get(), config);
    for (int64_t s = 0; s < 3; ++s) {
      service.Observe(service.Admit(), RowObservation(patient, 0));
    }
    ASSERT_TRUE(service.SaveSnapshotTo(path));
  }
  serve::ServeConfig narrow = config;
  narrow.max_sessions = 2;
  serve::InferenceService small(model.get(), narrow);
  std::string error;
  EXPECT_FALSE(small.RestoreSnapshot(path, &error));
  EXPECT_NE(error.find("capacity"), std::string::npos) << error;
  EXPECT_EQ(small.sessions().size(), 0);
  // The same snapshot restores fine at the bound it was written under.
  serve::InferenceService roomy(model.get(), config);
  EXPECT_TRUE(roomy.RestoreSnapshot(path, &error)) << error;
  EXPECT_EQ(roomy.sessions().size(), 3);
}

// Even with eviction disabled (kRejectAdmits), a pinned stale admission
// is visible: max_idle_age grows while the session sits unobserved and
// collapses once it scores again.
TEST(ServeRobustnessTest, MaxIdleAgeVisibleWithoutEviction) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(8, 91);
  serve::ServeConfig config;
  config.async = false;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId pinned = service.Admit("bed-pinned");
  const serve::SessionId busy = service.Admit("bed-busy");
  for (int64_t t = 0; t < 6; ++t) {
    service.Observe(busy, RowObservation(patient, t));
  }
  const serve::ServiceStats before = service.stats();
  EXPECT_GE(before.max_idle_age, 6) << "pinned session not visible";
  service.Observe(pinned, RowObservation(patient, 0));
  const serve::ServiceStats after = service.stats();
  EXPECT_LT(after.max_idle_age, before.max_idle_age);
}

// -- Backpressure and deadlines ---------------------------------------------

// A flood against a full bounded queue is rejected explicitly (kRejected)
// while everything already queued scores normally after resume.
TEST(ServeRobustnessTest, BackpressureRejectsFloodExplicitly) {
  const int64_t kQueue = 4;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(1, 101);
  serve::ServeConfig config;
  config.async = true;
  config.max_queue = kQueue;
  config.max_delay_us = 0;
  serve::InferenceService service(model.get(), config);
  std::vector<serve::SessionId> ids;
  for (int64_t s = 0; s < 12; ++s) {
    ids.push_back(service.Admit());
  }
  service.PauseScoring();  // wedge the worker: the queue can only fill
  std::vector<std::future<serve::StepResult>> futures;
  for (int64_t s = 0; s < 12; ++s) {
    futures.push_back(
        service.ObserveAsync(ids[s], RowObservation(patient, 0)));
  }
  // The first kQueue requests sit in the queue; the rest bounced.
  int64_t rejected = 0;
  for (int64_t s = kQueue; s < 12; ++s) {
    const serve::StepResult r = futures[static_cast<size_t>(s)].get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, serve::StepStatus::kRejected);
    ++rejected;
  }
  EXPECT_EQ(rejected, 12 - kQueue);
  EXPECT_EQ(service.stats().rejected, 12 - kQueue);
  EXPECT_EQ(service.stats().queue_depth, kQueue);
  service.ResumeScoring();
  for (int64_t s = 0; s < kQueue; ++s) {
    const serve::StepResult r = futures[static_cast<size_t>(s)].get();
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.step, 1);
  }
  // A rejected observation never advanced its session: resubmission is
  // step 1, not step 2.
  const serve::StepResult retry =
      service.Observe(ids[kQueue], RowObservation(patient, 0));
  EXPECT_TRUE(retry.ok);
  EXPECT_EQ(retry.step, 1);
}

// block_when_full parks the submitter instead of rejecting; the blocked
// submission completes once the worker drains.
TEST(ServeRobustnessTest, BackpressureBlocksWhenConfigured) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(1, 111);
  serve::ServeConfig config;
  config.async = true;
  config.max_queue = 2;
  config.block_when_full = true;
  config.max_delay_us = 0;
  serve::InferenceService service(model.get(), config);
  std::vector<serve::SessionId> ids;
  for (int64_t s = 0; s < 4; ++s) ids.push_back(service.Admit());
  service.PauseScoring();
  std::vector<std::future<serve::StepResult>> queued;
  for (int64_t s = 0; s < 2; ++s) {
    queued.push_back(
        service.ObserveAsync(ids[s], RowObservation(patient, 0)));
  }
  // The next submission blocks until the worker resumes and drains.
  std::thread unblocker([&service] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.ResumeScoring();
  });
  const serve::StepResult blocked =
      service.Observe(ids[2], RowObservation(patient, 0));
  unblocker.join();
  EXPECT_TRUE(blocked.ok);
  EXPECT_EQ(blocked.step, 1);
  for (auto& f : queued) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(service.stats().rejected, 0);
}

// A request whose deadline passes while queued resolves kExpired and does
// NOT advance its session, so the observation can be resubmitted.
TEST(ServeRobustnessTest, DeadlineExpiresQueuedWork) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(2, 121);
  serve::ServeConfig config;
  config.async = true;
  config.max_delay_us = 0;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit();
  service.PauseScoring();
  // Already-expired deadline: the worker must drop it at assembly.
  std::future<serve::StepResult> doomed = service.ObserveAsync(
      id, RowObservation(patient, 0), nullptr,
      std::chrono::steady_clock::now() - std::chrono::microseconds(1));
  // A fresh no-deadline request behind it scores normally.
  std::future<serve::StepResult> fine =
      service.ObserveAsync(id, RowObservation(patient, 0));
  service.ResumeScoring();
  const serve::StepResult dead = doomed.get();
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.status, serve::StepStatus::kExpired);
  const serve::StepResult live = fine.get();
  EXPECT_TRUE(live.ok);
  EXPECT_EQ(live.step, 1) << "expired request advanced the session";
  EXPECT_EQ(service.stats().expired, 1);
}

// -- Quiescence --------------------------------------------------------------

// Pause() must quiesce a worker that is lingering for batch coalescing,
// not just one parked on the empty-queue wait: after Pause returns, a
// queued request must NOT score until Resume, even once the linger delay
// has long elapsed.
TEST(ServeRobustnessTest, PauseDuringLingerQuiescesWorker) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(1, 161);
  serve::ServeConfig config;
  config.async = true;
  config.max_delay_us = 100000;  // 100ms linger: the worker waits in it
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit();
  std::future<serve::StepResult> future =
      service.ObserveAsync(id, RowObservation(patient, 0));
  // Give the worker time to pick the request up and enter its linger.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.PauseScoring();
  // Outlive the linger: a worker that ignored the pause would have
  // assembled and scored the batch by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "request scored while the service was paused";
  EXPECT_EQ(service.stats().observations, 0);
  service.ResumeScoring();
  const serve::StepResult r = future.get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.step, 1);
}

// Pause/Resume nest: a snapshot taken inside a user-held pause (its own
// internal Pause/Resume pair) must not un-pause the workers the user is
// still relying on.
TEST(ServeRobustnessTest, NestedPauseSurvivesInnerSnapshot) {
  const std::string path = TempPath("serve_nested_pause.ckpt");
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(1, 171);
  serve::ServeConfig config;
  config.async = true;
  config.max_delay_us = 0;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit();
  service.PauseScoring();
  std::future<serve::StepResult> future =
      service.ObserveAsync(id, RowObservation(patient, 0));
  // The snapshot pauses and resumes internally — one level deeper than
  // the pause this test still holds.
  ASSERT_TRUE(service.SaveSnapshotTo(path));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "inner snapshot's Resume un-paused the outer quiesce window";
  service.ResumeScoring();
  EXPECT_TRUE(future.get().ok);
}

// At-capacity eviction with requests still queued for the victim: the
// eviction parks the state as-of-now, the queued requests resolve
// kUnknownSession (they must not advance a state that was just parked),
// and same-tag re-admission rehydrates bitwise.
TEST(ServeRobustnessTest, EvictionFailsQueuedRequestsAndParksCleanly) {
  const int64_t T = 6;
  const int64_t evict_at = 2;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(T, 181);
  const std::vector<float> want =
      UninterruptedRisks(model.get(), patient, T, T);
  serve::ServeConfig config;
  config.async = true;
  config.max_delay_us = 0;
  config.window_capacity = T;
  config.max_sessions = 2;
  config.eviction = serve::EvictionPolicy::kCheckpointThenEvict;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId a = service.Admit("bed-a");
  const serve::SessionId b = service.Admit("bed-b");
  for (int64_t t = 0; t < evict_at; ++t) {
    ExpectSameRisk(service.Observe(a, RowObservation(patient, t)).risk,
                   want[static_cast<size_t>(t)], "pre-evict", t);
  }
  service.PauseScoring();
  std::vector<std::future<serve::StepResult>> stranded;
  for (int64_t k = 0; k < 3; ++k) {
    stranded.push_back(
        service.ObserveAsync(a, RowObservation(patient, evict_at)));
  }
  // Touch bed-b AFTER stranding bed-a's requests: submission bumps
  // last_observed, so bed-a only stays the LRU victim if something else
  // was touched later — exactly the under-load shape (a session whose
  // requests sit on a paused worker while its neighbours keep streaming).
  std::future<serve::StepResult> keep_b =
      service.ObserveAsync(b, RowObservation(patient, 0));
  // Admitting at capacity evicts bed-a (nested inside the held pause)
  // with the three requests above still queued behind it.
  ASSERT_NE(service.Admit("bed-c"), serve::kInvalidSession);
  EXPECT_EQ(service.sessions().parked_count(), 1);
  EXPECT_EQ(service.sessions().Get(a), nullptr) << "evicted the wrong bed";
  service.ResumeScoring();
  EXPECT_TRUE(keep_b.get().ok);
  for (auto& f : stranded) {
    const serve::StepResult r = f.get();
    EXPECT_FALSE(r.ok) << "request scored against an evicted session";
    EXPECT_EQ(r.status, serve::StepStatus::kUnknownSession);
  }
  // Rehydration resumes exactly at the parked step — the stranded
  // requests advanced nothing.
  const serve::SessionId back = service.Admit("bed-a");
  EXPECT_EQ(back, a);
  for (int64_t t = evict_at; t < T; ++t) {
    ExpectSameRisk(service.Observe(back, RowObservation(patient, t)).risk,
                   want[static_cast<size_t>(t)], "post-rehydrate", t);
  }
}

// TSan stress for eviction-vs-scoring: client threads flood observations
// while admissions churn the table past capacity, so every eviction races
// live scoring. Values are checked only for sanity (ok or a clean
// eviction/rejection status); the suite's real assertion is TSan finding
// no data race between StepState::Save and StepForward.
TEST(ServeRobustnessTest, EvictionChurnUnderConcurrentScoring) {
  const int64_t kClients = 3;
  const int64_t kRounds = 40;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(1, 191);
  serve::ServeConfig config;
  config.async = true;
  config.num_workers = 2;
  config.max_delay_us = 0;
  config.max_sessions = 4;
  config.eviction = serve::EvictionPolicy::kCheckpointThenEvict;
  serve::InferenceService service(model.get(), config);
  std::vector<serve::SessionId> ids;
  for (int64_t s = 0; s < 4; ++s) {
    ids.push_back(service.Admit("seed-" + std::to_string(s)));
  }
  std::vector<std::thread> clients;
  for (int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &ids, &patient, c] {
      for (int64_t i = 0; i < kRounds; ++i) {
        const serve::StepResult r = service.Observe(
            ids[static_cast<size_t>((c + i) % 4)],
            RowObservation(patient, 0));
        if (!r.ok) {
          EXPECT_EQ(r.status, serve::StepStatus::kUnknownSession);
        }
      }
    });
  }
  for (int64_t i = 0; i < kRounds; ++i) {
    service.Admit("churn-" + std::to_string(i));
  }
  for (auto& t : clients) t.join();
  EXPECT_GE(service.sessions().evicted_total(), kRounds);
}

// -- Multi-worker sharding ---------------------------------------------------

// Client rows the service must refuse with kInvalidInput: too wide, slab
// sizes that disagree, non-finite x, a mask outside {0, 1}, a negative or
// NaN delta, and an empty row.
std::vector<serve::Observation> MalformedObservations() {
  serve::Observation good;
  good.x.assign(kFeatures, 0.5f);
  good.mask.assign(kFeatures, 1.0f);
  good.delta.assign(kFeatures, 0.0f);
  std::vector<serve::Observation> bad(8, good);
  bad[0].x.push_back(0.5f);
  bad[0].mask.push_back(1.0f);
  bad[0].delta.push_back(0.0f);
  bad[1].mask.pop_back();
  bad[2].x[1] = std::numeric_limits<float>::quiet_NaN();
  bad[3].x[2] = std::numeric_limits<float>::infinity();
  bad[4].mask[3] = 0.5f;
  bad[5].delta[4] = -1.0f;
  bad[6].delta[0] = std::numeric_limits<float>::quiet_NaN();
  bad[7] = serve::Observation();
  return bad;
}

// N workers score exactly what 1 worker scores, and what a serial sync
// service scores: session-affine sharding keeps per-session FIFO, and row
// independence keeps every value bitwise. A hostile client racing the
// honest ones, with malformed rows against its own session and theirs, is
// turned away at submit and changes no session.
TEST(ServeRobustnessTest, FourWorkersMatchOneWorkerBitwise) {
  const int64_t T = 6;
  const int64_t num_sessions = 8;
  auto model = baselines::MakeModel("ELDA-Net", kFeatures, /*seed=*/3);
  std::vector<data::Batch> patients;
  for (int64_t s = 0; s < num_sessions; ++s) {
    patients.push_back(RandomPatient(T, 900 + static_cast<uint64_t>(s)));
  }
  const std::vector<serve::Observation> malformed = MalformedObservations();
  auto run = [&](int64_t workers) {
    serve::ServeConfig config;
    config.async = true;
    config.num_workers = workers;
    config.window_capacity = T;
    config.infer.batch_size = num_sessions;
    serve::InferenceService service(model.get(), config);
    std::vector<serve::SessionId> ids;
    for (int64_t s = 0; s < num_sessions; ++s) {
      ids.push_back(service.Admit());
    }
    const serve::SessionId hostile_id = service.Admit();
    const std::shared_ptr<serve::Session> hostile_session =
        service.sessions().Get(hostile_id);
    const int64_t admitted_tick = hostile_session->last_observed.load();
    std::thread hostile([&] {
      for (int64_t round = 0; round < T; ++round) {
        for (const serve::Observation& bad : malformed) {
          for (const serve::SessionId target :
               {hostile_id, ids[static_cast<size_t>(round % num_sessions)]}) {
            const serve::StepResult r = service.ObserveAsync(target, bad).get();
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.status, serve::StepStatus::kInvalidInput);
          }
        }
      }
    });
    std::vector<std::vector<float>> risks(
        num_sessions, std::vector<float>(static_cast<size_t>(T)));
    // Submit all T observations per session up front (per-session order),
    // racing across sessions and workers.
    std::vector<std::vector<std::future<serve::StepResult>>> futures(
        static_cast<size_t>(num_sessions));
    for (int64_t s = 0; s < num_sessions; ++s) {
      for (int64_t t = 0; t < T; ++t) {
        futures[static_cast<size_t>(s)].push_back(
            service.ObserveAsync(ids[s], RowObservation(patients[s], t)));
      }
    }
    for (int64_t s = 0; s < num_sessions; ++s) {
      for (int64_t t = 0; t < T; ++t) {
        const serve::StepResult r =
            futures[static_cast<size_t>(s)][static_cast<size_t>(t)].get();
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.step, t + 1) << "FIFO broke on worker fan-out";
        risks[static_cast<size_t>(s)][static_cast<size_t>(t)] = r.risk;
      }
    }
    hostile.join();
    EXPECT_EQ(hostile_session->observations.load(), 0);
    EXPECT_EQ(hostile_session->last_observed.load(), admitted_tick);
    EXPECT_EQ(service.batcher_stats().observations, num_sessions * T);
    return risks;
  };
  const auto one = run(1);
  const auto four = run(4);
  for (int64_t s = 0; s < num_sessions; ++s) {
    const std::vector<float> serial =
        UninterruptedRisks(model.get(), patients[static_cast<size_t>(s)], T,
                           /*window_capacity=*/T);
    for (int64_t t = 0; t < T; ++t) {
      ExpectSameRisk(one[static_cast<size_t>(s)][static_cast<size_t>(t)],
                     serial[static_cast<size_t>(t)], "1-worker vs serial", t);
      ExpectSameRisk(four[static_cast<size_t>(s)][static_cast<size_t>(t)],
                     one[static_cast<size_t>(s)][static_cast<size_t>(t)],
                     "4-worker vs 1-worker", t);
    }
  }
}

// The inline (sync) service and a bare MicroBatcher refuse the same rows:
// each malformed request resolves kInvalidInput, and the session's stream
// stays bitwise what it is without them.
TEST(ServeRobustnessTest, InvalidInputRejectedInlineAndAtTheBatcher) {
  const int64_t T = 4;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(T, 950);
  const std::vector<serve::Observation> malformed = MalformedObservations();
  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = T;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId id = service.Admit();
  std::vector<float> risks;
  for (int64_t t = 0; t < T; ++t) {
    for (const serve::Observation& bad : malformed) {
      const serve::StepResult r = service.Observe(id, bad);
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.status, serve::StepStatus::kInvalidInput);
    }
    risks.push_back(service.Observe(id, RowObservation(patient, t)).risk);
  }
  const std::vector<float> serial =
      UninterruptedRisks(model.get(), patient, T, T);
  for (int64_t t = 0; t < T; ++t) {
    ExpectSameRisk(risks[static_cast<size_t>(t)],
                   serial[static_cast<size_t>(t)], "with hostile rows", t);
  }

  train::InferenceOptions options;
  serve::MicroBatcher batcher(model.get(), options, /*max_delay_us=*/0);
  auto session = std::make_shared<serve::Session>();
  session->state = model->MakeStepState(T);
  for (const serve::Observation& bad : malformed) {
    const serve::StepResult r = batcher.Submit(session, bad).get();
    EXPECT_EQ(r.status, serve::StepStatus::kInvalidInput);
  }
  EXPECT_EQ(session->state->steps_seen, 0);
  EXPECT_EQ(batcher.stats().observations, 0);
}

// -- Fault plans -------------------------------------------------------------

TEST(ServeRobustnessTest, FaultPlanParsesServeTerms) {
  health::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(health::FaultPlan::Parse(
      "drop_snapshot@0,poison_state@2,slow_worker@1:500", &plan, &error))
      << error;
  EXPECT_EQ(plan.drop_snapshot_at, 0);
  EXPECT_EQ(plan.poison_state_at, 2);
  EXPECT_EQ(plan.slow_worker_index, 1);
  EXPECT_EQ(plan.slow_worker_delay_us, 500);
  EXPECT_TRUE(plan.Any());
  ASSERT_TRUE(health::FaultPlan::Parse("slow_worker@0", &plan, &error));
  EXPECT_EQ(plan.slow_worker_delay_us, 2000) << "default delay lost";
  EXPECT_FALSE(health::FaultPlan::Parse("poison_state@x", &plan, &error));
  EXPECT_FALSE(health::FaultPlan::Parse("drop_snapshot@0:4", &plan, &error))
      << "drop_snapshot must not take a colon suffix";
}

// poison_state@N rots exactly one session record inside the snapshot; the
// restore quarantines that session (fresh state, same id/tag) and brings
// every other session back bitwise.
TEST(ServeRobustnessTest, CorruptSessionRecordQuarantines) {
  const int64_t T = 6;
  const int64_t kill_at = 3;
  const int64_t num_sessions = 3;
  const int64_t poisoned = 1;  // record index == admission order here
  const std::string path = TempPath("serve_poison_state.ckpt");
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  std::vector<data::Batch> patients;
  std::vector<std::vector<float>> want;
  for (int64_t s = 0; s < num_sessions; ++s) {
    patients.push_back(RandomPatient(T, 1100 + static_cast<uint64_t>(s)));
    want.push_back(UninterruptedRisks(model.get(), patients.back(), T, T));
  }
  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = T;
  std::vector<serve::SessionId> ids;
  {
    serve::InferenceService service(model.get(), config);
    for (int64_t s = 0; s < num_sessions; ++s) {
      ids.push_back(service.Admit("bed-" + std::to_string(s)));
    }
    for (int64_t t = 0; t < kill_at; ++t) {
      for (int64_t s = 0; s < num_sessions; ++s) {
        service.Observe(ids[s], RowObservation(patients[s], t));
      }
    }
    health::FaultPlan plan;
    plan.poison_state_at = poisoned;
    FaultPlanGuard guard(plan);
    ASSERT_TRUE(service.SaveSnapshotTo(path));
  }

  serve::InferenceService revived(model.get(), config);
  std::string error;
  ASSERT_TRUE(revived.RestoreSnapshot(path, &error)) << error;
  EXPECT_EQ(revived.stats().quarantined_total, 1);
  ASSERT_EQ(revived.sessions().size(), num_sessions);
  for (int64_t s = 0; s < num_sessions; ++s) {
    const std::shared_ptr<serve::Session> session =
        revived.sessions().Get(ids[s]);
    ASSERT_NE(session, nullptr) << "session " << s;
    if (s == poisoned) {
      // Quarantined: still admitted, but scoring restarts from cold.
      EXPECT_EQ(session->state->steps_seen, 0);
      const serve::StepResult r =
          revived.Observe(ids[s], RowObservation(patients[s], 0));
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.step, 1);
    } else {
      EXPECT_EQ(session->state->steps_seen, kill_at);
      for (int64_t t = kill_at; t < T; ++t) {
        ExpectSameRisk(
            revived.Observe(ids[s], RowObservation(patients[s], t)).risk,
            want[static_cast<size_t>(s)][static_cast<size_t>(t)],
            "intact sibling", t);
      }
    }
  }
}

// drop_snapshot@N fails the Nth save without touching the file: the
// previous snapshot stays restorable, and the failure is counted.
TEST(ServeRobustnessTest, DropSnapshotKeepsPreviousFile) {
  const std::string path = TempPath("serve_drop_snapshot.ckpt");
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(6, 131);
  serve::ServeConfig config;
  config.async = false;
  config.window_capacity = 8;
  serve::SessionId id;
  {
    serve::InferenceService service(model.get(), config);
    id = service.Admit("bed-1");
    service.Observe(id, RowObservation(patient, 0));
    service.Observe(id, RowObservation(patient, 1));
    ASSERT_TRUE(service.SaveSnapshotTo(path));  // good snapshot at step 2
    service.Observe(id, RowObservation(patient, 2));
    health::FaultPlan plan;
    plan.drop_snapshot_at = 0;
    FaultPlanGuard guard(plan);
    std::string error;
    EXPECT_FALSE(service.SaveSnapshotTo(path, &error));
    EXPECT_NE(error.find("drop_snapshot"), std::string::npos);
    EXPECT_EQ(service.stats().snapshot_failures, 1);
    EXPECT_EQ(service.stats().snapshots_written, 1);
  }
  // The surviving file is the step-2 snapshot.
  serve::InferenceService revived(model.get(), config);
  std::string error;
  ASSERT_TRUE(revived.RestoreSnapshot(path, &error)) << error;
  const std::shared_ptr<serve::Session> session =
      revived.sessions().Get(id);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->state->steps_seen, 2);
}

// A slow worker changes throughput, never values: with slow_worker armed
// against one of two workers, every risk still matches the serial
// reference and per-session FIFO holds.
TEST(ServeRobustnessTest, SlowWorkerChangesNoValues) {
  const int64_t T = 4;
  const int64_t num_sessions = 6;
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  std::vector<data::Batch> patients;
  std::vector<std::vector<float>> want;
  for (int64_t s = 0; s < num_sessions; ++s) {
    patients.push_back(RandomPatient(T, 1300 + static_cast<uint64_t>(s)));
    want.push_back(UninterruptedRisks(model.get(), patients.back(), T, 8));
  }
  health::FaultPlan plan;
  plan.slow_worker_index = 1;
  plan.slow_worker_delay_us = 1000;
  FaultPlanGuard guard(plan);
  serve::ServeConfig config;
  config.async = true;
  config.num_workers = 2;
  config.window_capacity = 8;
  serve::InferenceService service(model.get(), config);
  std::vector<serve::SessionId> ids;
  for (int64_t s = 0; s < num_sessions; ++s) ids.push_back(service.Admit());
  std::vector<std::vector<std::future<serve::StepResult>>> futures(
      static_cast<size_t>(num_sessions));
  for (int64_t s = 0; s < num_sessions; ++s) {
    for (int64_t t = 0; t < T; ++t) {
      futures[static_cast<size_t>(s)].push_back(
          service.ObserveAsync(ids[s], RowObservation(patients[s], t)));
    }
  }
  for (int64_t s = 0; s < num_sessions; ++s) {
    for (int64_t t = 0; t < T; ++t) {
      const serve::StepResult r =
          futures[static_cast<size_t>(s)][static_cast<size_t>(t)].get();
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.step, t + 1);
      ExpectSameRisk(r.risk,
                     want[static_cast<size_t>(s)][static_cast<size_t>(t)],
                     "slow-worker fleet", t);
    }
  }
}

// -- Capture routing ---------------------------------------------------------

// A per-request CaptureSink rides through the micro-batcher: the tagged
// request scores bitwise-identically to its sink-less twin AND its sink
// holds the attention surfaces; sink-less requests in the same flood stay
// capture-free.
TEST(ServeRobustnessTest, CaptureSinkRoutedThroughBatcher) {
  const int64_t T = 4;
  auto model = baselines::MakeModel("ELDA-Net", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(T, 141);
  const std::vector<float> want =
      UninterruptedRisks(model.get(), patient, T, T);
  serve::ServeConfig config;
  config.async = true;
  config.window_capacity = T;
  serve::InferenceService service(model.get(), config);
  const serve::SessionId plain = service.Admit();
  const serve::SessionId tapped = service.Admit();
  nn::CaptureSink sink;
  for (int64_t t = 0; t < T; ++t) {
    std::future<serve::StepResult> a =
        service.ObserveAsync(plain, RowObservation(patient, t));
    std::future<serve::StepResult> b =
        service.ObserveAsync(tapped, RowObservation(patient, t), &sink);
    ExpectSameRisk(a.get().risk, want[static_cast<size_t>(t)], "plain", t);
    ExpectSameRisk(b.get().risk, want[static_cast<size_t>(t)], "tapped", t);
  }
  EXPECT_TRUE(sink.Contains("feature_attention") ||
              sink.Contains("time_attention"))
      << "capture sink never received an attention surface";
}

// -- Periodic snapshots ------------------------------------------------------

// The maintenance thread writes snapshots on its period; stats report the
// count and a bounded age.
TEST(ServeRobustnessTest, PeriodicSnapshotThreadWrites) {
  const std::string path = TempPath("serve_periodic.ckpt");
  std::remove(path.c_str());
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  const data::Batch patient = RandomPatient(4, 151);
  serve::ServeConfig config;
  config.async = true;
  config.snapshot_path = path;
  config.snapshot_every_ms = 20;
  serve::ServiceStats stats;
  serve::SessionId id;
  {
    serve::InferenceService service(model.get(), config);
    id = service.Admit("bed-1");
    for (int64_t t = 0; t < 4; ++t) {
      service.Observe(id, RowObservation(patient, t));
    }
    // Give the maintenance thread a few periods.
    for (int wait = 0; wait < 100; ++wait) {
      if (service.stats().snapshots_written > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stats = service.stats();
  }
  EXPECT_GE(stats.snapshots_written, 1);
  EXPECT_GE(stats.snapshot_age_ms, 0.0);
  // And the file on disk restores. The revived service gets no periodic
  // snapshots of its own, so it cannot overwrite the file before reading.
  serve::ServeConfig revive_config = config;
  revive_config.snapshot_every_ms = 0;
  serve::InferenceService revived(model.get(), revive_config);
  std::string error;
  ASSERT_TRUE(revived.RestoreSnapshot(path, &error)) << error;
  EXPECT_NE(revived.sessions().Get(id), nullptr);
}

}  // namespace
}  // namespace elda
