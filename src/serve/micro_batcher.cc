#include "serve/micro_batcher.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "autograd/variable.h"
#include "health/health.h"
#include "par/par.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace elda {
namespace serve {

namespace {

StepResult FailedResult(StepStatus status) {
  StepResult result;
  result.ok = false;
  result.status = status;
  return result;
}

}  // namespace

MicroBatcher::MicroBatcher(const train::SequenceModel* model,
                           const train::InferenceOptions& options,
                           int64_t max_delay_us, int64_t worker_index,
                           int64_t max_queue, bool block_when_full)
    : model_(model),
      options_(options),
      max_delay_us_(max_delay_us),
      worker_index_(worker_index),
      max_queue_(max_queue),
      block_when_full_(block_when_full) {
  ELDA_CHECK(model != nullptr);
  ELDA_CHECK_GE(options.batch_size, 1);
  ELDA_CHECK_GE(max_delay_us, 0);
  ELDA_CHECK_GE(worker_index, 0);
  ELDA_CHECK_GE(max_queue, 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

MicroBatcher::~MicroBatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
  worker_.join();
}

std::future<StepResult> MicroBatcher::Submit(std::shared_ptr<Session> session,
                                             Observation obs,
                                             nn::CaptureSink* capture,
                                             Deadline deadline) {
  ELDA_CHECK(session != nullptr);
  if (!ValidObservation(obs, model_->num_features())) {
    std::promise<StepResult> invalid;
    invalid.set_value(FailedResult(StepStatus::kInvalidInput));
    return invalid.get_future();
  }
  Request request;
  request.session = std::move(session);
  request.obs = std::move(obs);
  request.capture = capture;
  request.deadline = deadline;
  std::future<StepResult> future = request.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    ELDA_CHECK(!stopping_) << "Submit after MicroBatcher shutdown";
    if (max_queue_ > 0 &&
        static_cast<int64_t>(queue_.size()) >= max_queue_) {
      if (!block_when_full_) {
        ++rejected_;
        request.promise.set_value(FailedResult(StepStatus::kRejected));
        return future;
      }
      space_cv_.wait(lock, [this] {
        return stopping_ ||
               static_cast<int64_t>(queue_.size()) < max_queue_;
      });
      if (stopping_) {
        ++rejected_;
        request.promise.set_value(FailedResult(StepStatus::kRejected));
        return future;
      }
    }
    queue_.push_back(std::move(request));
  }
  cv_.notify_one();
  return future;
}

void MicroBatcher::Pause() {
  std::unique_lock<std::mutex> lock(mu_);
  ++pause_depth_;
  // A worker lingering in its coalesce wait must wake and re-check the
  // pause before it assembles a batch; kick it now so the quiescence this
  // Pause establishes is not outrun by a linger timeout.
  cv_.notify_all();
  quiesce_cv_.wait(lock, [this] { return !worker_busy_; });
}

void MicroBatcher::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ELDA_CHECK_GT(pause_depth_, 0) << "Resume without matching Pause";
    if (--pause_depth_ > 0) return;  // an outer quiesce window still holds
  }
  cv_.notify_all();
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.observations = observations_;
  s.batches = batches_;
  s.mean_batch_size =
      batches_ == 0 ? 0.0
                    : static_cast<double>(observations_) / batches_;
  s.queue_depth = static_cast<int64_t>(queue_.size());
  s.rejected = rejected_;
  s.expired = expired_;
  return s;
}

void MicroBatcher::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch;
    int64_t captured_in_batch = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      worker_busy_ = false;
      quiesce_cv_.notify_all();
      // stopping_ overrides the pause so destruction always drains.
      cv_.wait(lock, [this] {
        return stopping_ || (pause_depth_ == 0 && !queue_.empty());
      });
      if (queue_.empty() && stopping_) return;
      // Linger briefly for arrivals to coalesce — a full batch, a pause,
      // or shutdown proceeds immediately.
      if (max_delay_us_ > 0 && !stopping_ &&
          static_cast<int64_t>(queue_.size()) < options_.batch_size) {
        cv_.wait_for(lock, std::chrono::microseconds(max_delay_us_),
                     [this] {
                       return stopping_ || pause_depth_ > 0 ||
                              static_cast<int64_t>(queue_.size()) >=
                                  options_.batch_size;
                     });
      }
      // A Pause may have landed (and returned — worker_busy_ is false)
      // while the mutex was released inside the linger wait. Assembling a
      // batch now would score concurrently with whatever the pause holder
      // is doing to session states, so park again instead.
      if (pause_depth_ > 0 && !stopping_) continue;
      // Take up to batch_size requests for distinct sessions; a second
      // request for a session already in this batch stays queued (FIFO),
      // preserving its per-session order. Requests past their deadline
      // resolve as expired here, without advancing their session; requests
      // for a session the table evicted while they queued resolve as
      // unknown — the evicted state must not advance past its parked
      // bytes (eviction is quiesced, so the flag is always set before
      // this assembly runs).
      const Deadline now = std::chrono::steady_clock::now();
      std::unordered_set<SessionId> in_batch;
      std::deque<Request> deferred;
      while (!queue_.empty() &&
             static_cast<int64_t>(batch.size()) < options_.batch_size) {
        Request r = std::move(queue_.front());
        queue_.pop_front();
        if (r.session->retired.load(std::memory_order_acquire)) {
          r.promise.set_value(FailedResult(StepStatus::kUnknownSession));
        } else if (r.deadline != kNoDeadline && now >= r.deadline) {
          ++expired_;
          r.promise.set_value(FailedResult(StepStatus::kExpired));
        } else if (in_batch.count(r.session->id) > 0) {
          deferred.push_back(std::move(r));
        } else {
          in_batch.insert(r.session->id);
          if (r.capture != nullptr) ++captured_in_batch;
          batch.push_back(std::move(r));
        }
      }
      while (!deferred.empty()) {
        queue_.push_front(std::move(deferred.back()));
        deferred.pop_back();
      }
      if (!batch.empty()) {
        // Account before fulfilling any promise: a caller who observed
        // its future resolve must find its observation already counted.
        // Each capture-carrying request scores as its own B = 1 call.
        observations_ += static_cast<int64_t>(batch.size());
        batches_ += captured_in_batch;
        if (static_cast<int64_t>(batch.size()) > captured_in_batch) {
          ++batches_;
        }
        worker_busy_ = true;
      }
    }
    space_cv_.notify_all();
    if (!batch.empty()) {
      RunBatch(&batch);
    }
  }
}

void MicroBatcher::RunBatch(std::vector<Request>* batch) {
  // A fault-planned slow worker drags every batch it scores; the service
  // around it must stay correct (ordering, stats, shutdown), just slower.
  if (const int64_t delay_us =
          health::GlobalFaultInjector()->SlowWorkerDelayUs(worker_index_);
      delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  // Capture-carrying requests cannot share one forward context (a
  // CaptureSink is single-threaded, last-writer-wins), so partition:
  // sink-less requests coalesce into one call, each captured request
  // scores alone with its sink. Row independence makes both paths
  // bitwise-identical for every request.
  const auto mid = std::stable_partition(
      batch->begin(), batch->end(),
      [](const Request& r) { return r.capture == nullptr; });
  const size_t plain = static_cast<size_t>(mid - batch->begin());
  if (plain > 0) ScoreSlice(batch, 0, plain, options_.capture);
  for (size_t i = plain; i < batch->size(); ++i) {
    ScoreSlice(batch, i, i + 1, (*batch)[i].capture);
  }
}

void MicroBatcher::ScoreSlice(std::vector<Request>* batch, size_t begin,
                              size_t end, nn::CaptureSink* sink) {
  const int64_t n = static_cast<int64_t>(end - begin);
  const int64_t cols = static_cast<int64_t>((*batch)[begin].obs.x.size());
  train::StepBatch sb;
  sb.x = Tensor::Empty({n, cols});
  sb.mask = Tensor::Empty({n, cols});
  sb.delta = Tensor::Empty({n, cols});
  std::vector<nn::StepState*> states(static_cast<size_t>(n));
  for (int64_t b = 0; b < n; ++b) {
    const Observation& obs = (*batch)[begin + static_cast<size_t>(b)].obs;
    ELDA_CHECK_EQ(static_cast<int64_t>(obs.x.size()), cols);
    std::memcpy(sb.x.data() + b * cols, obs.x.data(),
                static_cast<size_t>(cols) * sizeof(float));
    std::memcpy(sb.mask.data() + b * cols, obs.mask.data(),
                static_cast<size_t>(cols) * sizeof(float));
    std::memcpy(sb.delta.data() + b * cols, obs.delta.data(),
                static_cast<size_t>(cols) * sizeof(float));
    states[static_cast<size_t>(b)] =
        (*batch)[begin + static_cast<size_t>(b)].session->state.get();
  }
  par::ScopedNumThreads scoped_threads(options_.num_threads);
  ag::NoGradScope no_grad;
  nn::ForwardContext ctx;
  ctx.capture = sink;
  ag::Variable logits = model_->StepForward(sb, states, &ctx);
  // The same sigmoid kernel Trainer::Predict applies, so a streamed risk
  // equals the batch-scored risk for the same window bitwise.
  Tensor probs = Sigmoid(logits.value());
  for (int64_t b = 0; b < n; ++b) {
    Request& r = (*batch)[begin + static_cast<size_t>(b)];
    StepResult result;
    result.risk = probs[b];
    result.scored = !std::isnan(result.risk);
    result.step = states[static_cast<size_t>(b)]->steps_seen;
    r.session->observations.store(result.step, std::memory_order_relaxed);
    if (result.scored) {
      r.session->last_risk.store(result.risk, std::memory_order_relaxed);
      r.session->ever_scored.store(true, std::memory_order_relaxed);
    }
    r.promise.set_value(result);
  }
}

}  // namespace serve
}  // namespace elda
