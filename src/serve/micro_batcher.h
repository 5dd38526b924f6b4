// Dynamic micro-batcher: coalesces concurrent single-patient scoring
// requests into one batched StepForward call.
//
// Clients submit (session, observation) pairs from any thread and get a
// future; a single worker thread drains the queue, groups up to
// `max_batch` requests for *distinct* sessions into one StepBatch, runs
// the model once under ag::NoGradScope, and fulfils the futures. Because
// every kernel on the step path computes output rows independently, a
// coalesced batch scores each session bitwise-identically to a serial
// B=1 call — batching is purely a throughput optimisation.
//
// Two requests for the same session are never placed in one batch (a
// session advances one step per call); the later one stays queued in FIFO
// order, so per-session observation order equals submission order.
//
// Overload handling (see DESIGN.md "Serving path"):
//
//  * Bounded queue. With `max_queue > 0` a Submit that finds the queue
//    full either resolves immediately with StepStatus::kRejected
//    (explicit backpressure the caller can act on) or, with
//    `block_when_full`, parks the caller until the worker drains space.
//  * Deadlines. A request carrying a deadline that passes while it sits
//    in the queue resolves with StepStatus::kExpired at batch assembly;
//    the session does NOT advance, so an expired observation can be
//    resubmitted.
//  * Pause/Resume. Pause() parks the worker between batches and returns
//    once scoring is quiesced — the window in which the snapshot writer
//    may read resident session states.
//
// Per-request capture: a Submit carrying a CaptureSink scores as its own
// B = 1 StepForward with that sink wired into the forward context (row
// independence keeps the score bitwise-identical to the coalesced path);
// sink-less requests keep coalescing with the batcher-level capture from
// InferenceOptions. The sink must stay alive until the future resolves.

#ifndef ELDA_SERVE_MICRO_BATCHER_H_
#define ELDA_SERVE_MICRO_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "nn/forward_context.h"
#include "serve/session.h"
#include "train/trainer.h"

namespace elda {
namespace serve {

// Deadline type for Submit; kNoDeadline means "never expires".
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

class MicroBatcher {
 public:
  // `options.batch_size` caps the coalesced batch; `options.num_threads`
  // bounds the elda::par kernels inside the batched call. `max_delay_us`
  // is the linger: how long the worker waits for more requests to coalesce
  // before scoring a non-full batch (0 = score whatever is queued).
  // `worker_index` identifies this batcher in a sharded fleet — it is the
  // target the slow_worker fault plan addresses. `max_queue` bounds the
  // request queue (0 = unbounded); `block_when_full` picks blocking over
  // rejection when the bound is hit.
  MicroBatcher(const train::SequenceModel* model,
               const train::InferenceOptions& options, int64_t max_delay_us,
               int64_t worker_index = 0, int64_t max_queue = 0,
               bool block_when_full = false);
  ~MicroBatcher();  // drains the queue, then joins the worker

  // Enqueues one observation for `session`. An observation that is not a
  // well-formed row of the model's width (ValidObservation) resolves
  // kInvalidInput at once and never reaches the session. Thread-safe.
  // `capture`, when non-null, receives this request's attention /
  // interpretation surfaces (the request scores as its own B = 1 call). A
  // request still queued at `deadline` resolves with kExpired instead of
  // scoring.
  std::future<StepResult> Submit(std::shared_ptr<Session> session,
                                 Observation obs,
                                 nn::CaptureSink* capture = nullptr,
                                 Deadline deadline = kNoDeadline);

  // Parks the worker between batches; returns once no batch is in flight,
  // so resident session states are safe to read until Resume(). Queued
  // requests wait (Submit stays open, subject to the queue bound).
  // Pause/Resume nest (a depth count, not a flag): overlapping quiesce
  // windows — a snapshot inside an eviction sweep, say — each stay in
  // force until their own Resume, so one window's end cannot un-pause
  // another still reading session states.
  void Pause();
  void Resume();

  struct Stats {
    int64_t observations = 0;  // requests scored
    int64_t batches = 0;       // StepForward calls issued
    double mean_batch_size = 0.0;
    int64_t queue_depth = 0;   // requests waiting right now
    int64_t rejected = 0;      // bounced by the full-queue bound
    int64_t expired = 0;       // dropped at assembly past their deadline
  };
  Stats stats() const;

  int64_t worker_index() const { return worker_index_; }

 private:
  struct Request {
    std::shared_ptr<Session> session;
    Observation obs;
    std::promise<StepResult> promise;
    nn::CaptureSink* capture = nullptr;
    Deadline deadline = kNoDeadline;
  };

  void WorkerLoop();
  void RunBatch(std::vector<Request>* batch);
  // Scores `batch` rows [begin, end) as one StepForward call with `sink`
  // wired into the context, and resolves their promises.
  void ScoreSlice(std::vector<Request>* batch, size_t begin, size_t end,
                  nn::CaptureSink* sink);

  const train::SequenceModel* model_;
  const train::InferenceOptions options_;
  const int64_t max_delay_us_;
  const int64_t worker_index_;
  const int64_t max_queue_;
  const bool block_when_full_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // worker wake-up
  std::condition_variable space_cv_;  // blocked Submits wait for drain
  std::condition_variable quiesce_cv_;  // Pause waits for batch-in-flight
  std::deque<Request> queue_;
  bool stopping_ = false;
  int64_t pause_depth_ = 0;   // > 0: worker parked between batches
  bool worker_busy_ = false;  // a batch is being scored outside mu_
  int64_t observations_ = 0;
  int64_t batches_ = 0;
  int64_t rejected_ = 0;
  int64_t expired_ = 0;

  std::thread worker_;
};

}  // namespace serve
}  // namespace elda

#endif  // ELDA_SERVE_MICRO_BATCHER_H_
