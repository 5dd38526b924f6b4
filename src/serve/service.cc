#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "autograd/variable.h"
#include "par/par.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace elda {
namespace serve {

InferenceService::InferenceService(const train::SequenceModel* model,
                                   ServeConfig config)
    : model_(model),
      config_(std::move(config)),
      table_(model, config_.window_capacity, config_.max_sessions,
             config_.eviction) {
  ELDA_CHECK(model != nullptr);
  ELDA_CHECK_GE(config_.num_workers, 1);
  if (config_.async) {
    batchers_.reserve(static_cast<size_t>(config_.num_workers));
    for (int64_t w = 0; w < config_.num_workers; ++w) {
      batchers_.push_back(std::make_unique<MicroBatcher>(
          model_, config_.infer, config_.max_delay_us, w, config_.max_queue,
          config_.block_when_full));
    }
  }
  // The table quiesces scoring around any eviction that serializes live
  // state (at-capacity Admit, TTL sweep): an evicted session's StepState
  // must never be Save()d while a worker is mid-StepForward on it. The
  // hooks nest, so an eviction inside an already-paused window is fine.
  table_.SetQuiesceHooks([this] { PauseScoring(); },
                         [this] { ResumeScoring(); });
  const bool periodic_snapshot =
      !config_.snapshot_path.empty() && config_.snapshot_every_ms > 0;
  const bool idle_sweep = config_.idle_ttl > 0 &&
                          config_.eviction != EvictionPolicy::kRejectAdmits;
  if (periodic_snapshot || idle_sweep) {
    maintenance_ = std::thread([this] { MaintenanceLoop(); });
  }
}

InferenceService::~InferenceService() {
  if (maintenance_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(maint_mu_);
      maint_stop_ = true;
    }
    maint_cv_.notify_all();
    maintenance_.join();
  }
  // batchers_ drain and join in their destructors.
}

SessionId InferenceService::Admit(std::string tag) {
  std::shared_ptr<Session> session = table_.Admit(std::move(tag));
  if (session == nullptr) return kInvalidSession;
  session->last_observed.store(table_.Tick(), std::memory_order_relaxed);
  return session->id;
}

bool InferenceService::Discharge(SessionId id) { return table_.Discharge(id); }

MicroBatcher* InferenceService::ShardFor(SessionId id) const {
  // Session-affine routing: one session always lands on one worker, so
  // per-session FIFO (and bitwise reproducibility) survives the fan-out.
  const size_t shard = static_cast<size_t>(
      id % static_cast<SessionId>(batchers_.size()));
  return batchers_[shard].get();
}

StepResult InferenceService::Observe(SessionId id, Observation obs,
                                     nn::CaptureSink* capture) {
  return ObserveAsync(id, std::move(obs), capture).get();
}

std::future<StepResult> InferenceService::ObserveAsync(
    SessionId id, Observation obs, nn::CaptureSink* capture,
    Deadline deadline) {
  std::shared_ptr<Session> session = table_.Get(id);
  // Bad client input is refused before it touches the session, its idle
  // clock included.
  StepStatus refused = StepStatus::kOk;
  if (session == nullptr) {
    refused = StepStatus::kUnknownSession;
  } else if (!ValidObservation(obs, model_->num_features())) {
    refused = StepStatus::kInvalidInput;
  }
  if (refused != StepStatus::kOk) {
    std::promise<StepResult> failed;
    StepResult result;
    result.ok = false;
    result.status = refused;
    failed.set_value(result);
    return failed.get_future();
  }
  session->last_observed.store(table_.Tick(), std::memory_order_relaxed);
  if (config_.async) {
    if (deadline == kNoDeadline && config_.deadline_us > 0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(config_.deadline_us);
    }
    return ShardFor(id)->Submit(std::move(session), std::move(obs), capture,
                                deadline);
  }
  std::promise<StepResult> done;
  done.set_value(ObserveInline(session, obs, capture));
  return done.get_future();
}

StepResult InferenceService::ObserveInline(
    const std::shared_ptr<Session>& session, const Observation& obs,
    nn::CaptureSink* capture) {
  std::unique_lock<std::mutex> lock(inline_mu_);
  inline_cv_.wait(lock, [this] { return inline_pause_depth_ == 0; });
  const int64_t cols = static_cast<int64_t>(obs.x.size());
  train::StepBatch sb;
  sb.x = Tensor::Empty({1, cols});
  sb.mask = Tensor::Empty({1, cols});
  sb.delta = Tensor::Empty({1, cols});
  std::memcpy(sb.x.data(), obs.x.data(),
              static_cast<size_t>(cols) * sizeof(float));
  std::memcpy(sb.mask.data(), obs.mask.data(),
              static_cast<size_t>(cols) * sizeof(float));
  std::memcpy(sb.delta.data(), obs.delta.data(),
              static_cast<size_t>(cols) * sizeof(float));
  std::vector<nn::StepState*> states = {session->state.get()};
  par::ScopedNumThreads scoped_threads(config_.infer.num_threads);
  ag::NoGradScope no_grad;
  nn::ForwardContext ctx;
  ctx.capture = capture != nullptr ? capture : config_.infer.capture;
  ag::Variable logits = model_->StepForward(sb, states, &ctx);
  Tensor probs = Sigmoid(logits.value());
  StepResult result;
  result.risk = probs[0];
  result.scored = !std::isnan(result.risk);
  result.step = session->state->steps_seen;
  session->observations.store(result.step, std::memory_order_relaxed);
  if (result.scored) {
    session->last_risk.store(result.risk, std::memory_order_relaxed);
    session->ever_scored.store(true, std::memory_order_relaxed);
  }
  return result;
}

void InferenceService::PauseScoring() {
  if (config_.async) {
    for (auto& batcher : batchers_) batcher->Pause();
  } else {
    std::lock_guard<std::mutex> lock(inline_mu_);
    ++inline_pause_depth_;
  }
}

void InferenceService::ResumeScoring() {
  if (config_.async) {
    for (auto& batcher : batchers_) batcher->Resume();
  } else {
    {
      std::lock_guard<std::mutex> lock(inline_mu_);
      ELDA_CHECK_GT(inline_pause_depth_, 0)
          << "ResumeScoring without matching PauseScoring";
      if (--inline_pause_depth_ > 0) return;
    }
    inline_cv_.notify_all();
  }
}

bool InferenceService::SaveSnapshotTo(const std::string& path,
                                      std::string* error) {
  std::lock_guard<std::mutex> op_lock(table_op_mu_);
  PauseScoring();
  SnapshotStats snap;
  std::string local_error;
  const bool ok = SaveSessionSnapshot(table_, path, &snap, &local_error);
  ResumeScoring();
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (ok) {
      ++snapshots_written_;
      has_snapshot_ = true;
      last_snapshot_ = std::chrono::steady_clock::now();
    } else {
      ++snapshot_failures_;
    }
  }
  if (!ok && error != nullptr) *error = local_error;
  return ok;
}

bool InferenceService::SaveSnapshot(std::string* error) {
  ELDA_CHECK(!config_.snapshot_path.empty())
      << "SaveSnapshot without ServeConfig::snapshot_path";
  return SaveSnapshotTo(config_.snapshot_path, error);
}

bool InferenceService::RestoreSnapshot(const std::string& path,
                                       std::string* error) {
  std::lock_guard<std::mutex> op_lock(table_op_mu_);
  PauseScoring();
  SnapshotStats snap;
  const bool ok = RestoreSessionSnapshot(&table_, path, &snap, error);
  ResumeScoring();
  if (ok) {
    std::lock_guard<std::mutex> lock(snap_mu_);
    quarantined_total_ += snap.quarantined;
  }
  return ok;
}

int64_t InferenceService::SweepIdle() {
  if (config_.idle_ttl <= 0) return 0;
  // EvictIdle quiesces via the table's hooks only when it actually sheds
  // sessions; no extra pause here, just the op serialisation.
  std::lock_guard<std::mutex> op_lock(table_op_mu_);
  return table_.EvictIdle(config_.idle_ttl);
}

void InferenceService::MaintenanceLoop() {
  const bool periodic_snapshot =
      !config_.snapshot_path.empty() && config_.snapshot_every_ms > 0;
  const bool idle_sweep = config_.idle_ttl > 0 &&
                          config_.eviction != EvictionPolicy::kRejectAdmits;
  // Wake at the snapshot period, or a short sweep cadence when only the
  // idle sweep is on (the sweep itself is cheap: one pass over the table).
  int64_t period_ms = periodic_snapshot ? config_.snapshot_every_ms : 50;
  if (periodic_snapshot && idle_sweep) {
    period_ms = std::min<int64_t>(period_ms, 50);
  }
  auto next_snapshot = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.snapshot_every_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maint_mu_);
      maint_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                         [this] { return maint_stop_; });
      if (maint_stop_) return;
    }
    if (idle_sweep) SweepIdle();
    if (periodic_snapshot &&
        std::chrono::steady_clock::now() >= next_snapshot) {
      std::string error;
      if (!SaveSnapshot(&error)) {
        // A dropped/failed periodic snapshot is an operational event, not
        // a service failure: the previous file is intact, the failure
        // counter ticks, and the next period retries.
        std::fprintf(stderr, "[elda::serve] periodic snapshot failed: %s\n",
                     error.c_str());
      }
      next_snapshot = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(config_.snapshot_every_ms);
    }
  }
}

MicroBatcher::Stats InferenceService::batcher_stats() const {
  MicroBatcher::Stats total;
  for (const auto& batcher : batchers_) {
    const MicroBatcher::Stats s = batcher->stats();
    total.observations += s.observations;
    total.batches += s.batches;
    total.queue_depth += s.queue_depth;
    total.rejected += s.rejected;
    total.expired += s.expired;
  }
  total.mean_batch_size =
      total.batches == 0
          ? 0.0
          : static_cast<double>(total.observations) / total.batches;
  return total;
}

ServiceStats InferenceService::stats() const {
  ServiceStats s;
  s.resident_sessions = table_.size();
  s.max_idle_age = table_.MaxIdleAge();
  s.evicted = table_.evicted_total();
  s.parked = table_.parked_count();
  s.rehydrated = table_.rehydrated_total();
  const MicroBatcher::Stats b = batcher_stats();
  s.queue_depth = b.queue_depth;
  s.rejected = b.rejected;
  s.expired = b.expired;
  s.observations = b.observations;
  s.batches = b.batches;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    s.snapshots_written = snapshots_written_;
    s.snapshot_failures = snapshot_failures_;
    s.quarantined_total = quarantined_total_;
    if (has_snapshot_) {
      s.snapshot_age_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - last_snapshot_)
              .count();
    }
  }
  return s;
}

std::vector<float> StreamDecompensation(InferenceService* service,
                                        SessionId id,
                                        const data::PreparedSample& sample,
                                        int64_t num_steps) {
  ELDA_CHECK(service != nullptr);
  const int64_t features = sample.x.shape(1);
  const int64_t steps =
      num_steps < 0 ? sample.x.shape(0)
                    : std::min<int64_t>(num_steps, sample.x.shape(0));
  std::vector<float> risks;
  risks.reserve(steps);
  for (int64_t t = 0; t < steps; ++t) {
    Observation obs;
    obs.x.assign(sample.x.data() + t * features,
                 sample.x.data() + (t + 1) * features);
    obs.mask.assign(sample.mask.data() + t * features,
                    sample.mask.data() + (t + 1) * features);
    obs.delta.assign(sample.delta.data() + t * features,
                     sample.delta.data() + (t + 1) * features);
    const StepResult result = service->Observe(id, std::move(obs));
    if (!result.ok) break;
    risks.push_back(result.risk);
  }
  return risks;
}

}  // namespace serve
}  // namespace elda
