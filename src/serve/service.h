// elda::serve::InferenceService — the streaming inference front door.
//
// Wraps a trained SequenceModel behind an admit / observe / discharge API:
// each admitted patient carries resident step state (allocated via the
// model's MakeStepState), every new observation advances it one step via
// StepForward — O(1) per observation for incremental models instead of an
// O(T) window replay — and concurrent observations coalesce through the
// micro-batcher into batched no-grad calls. See DESIGN.md "Serving path".
//
// Fleet hardening on top of the PR-6 core:
//
//  * Sharded scoring. `num_workers` micro-batchers score in parallel;
//    session-affine routing (id mod N) keeps every session on one worker,
//    so per-session FIFO order — and therefore bitwise reproducibility —
//    survives the fan-out. N workers score exactly what 1 worker would.
//  * Checkpoint/restore. SaveSnapshot() quiesces scoring and persists the
//    whole session table (resident + parked states) through the
//    CRC-checksummed container; RestoreSnapshot() rebuilds it so
//    post-restore scores are bitwise-identical to the uninterrupted
//    stream. A maintenance thread snapshots periodically.
//  * Idle eviction. Sessions idle past `idle_ttl` logical ticks are swept
//    per the table's EvictionPolicy (evict cold, or park their serialized
//    state so re-admission under the same tag resumes mid-stream).
//  * Backpressure. Bounded per-worker queues reject (or block) overload
//    explicitly; per-request deadlines expire work that queued too long.
//    stats() surfaces queue depth, evictions, snapshot age, and reject/
//    expire counts so saturation is visible, not silent.

#ifndef ELDA_SERVE_SERVICE_H_
#define ELDA_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "train/trainer.h"

namespace elda {
namespace serve {

struct ServeConfig {
  // Shared inference knobs (train/trainer.h): batch_size caps the
  // micro-batch, num_threads bounds the kernels, capture taps attention
  // surfaces. `parallel` is ignored here (the workers are the threads).
  train::InferenceOptions infer;
  // Bound on any per-session history (replay windows, attention
  // histories). Stays beyond it score on the retained suffix window.
  int64_t window_capacity = 64;
  // Admission capacity of the session table.
  int64_t max_sessions = 1 << 20;
  // Micro-batcher linger before scoring a non-full batch.
  int64_t max_delay_us = 200;
  // true: requests queue through micro-batcher worker threads
  // (thread-safe, coalescing). false: Observe scores inline on the caller
  // thread under a service mutex — lower fixed latency for
  // single-threaded callers, no coalescing.
  bool async = true;

  // Scoring workers (async mode). Sessions shard by id mod num_workers.
  int64_t num_workers = 1;
  // Per-worker queue bound; 0 = unbounded. When full, Submit rejects with
  // StepStatus::kRejected, or blocks if block_when_full.
  int64_t max_queue = 0;
  bool block_when_full = false;
  // Default per-request deadline, microseconds from submission; 0 = none.
  // A request still queued past it resolves kExpired without advancing
  // its session (an explicit ObserveAsync deadline overrides this).
  int64_t deadline_us = 0;

  // What the table does at capacity and on idle sweeps.
  EvictionPolicy eviction = EvictionPolicy::kRejectAdmits;
  // Sessions idle more than this many logical ticks (one tick per
  // admission/observation fleet-wide) are swept by the maintenance
  // thread; 0 disables the sweep. Ignored under kRejectAdmits.
  int64_t idle_ttl = 0;

  // Periodic session snapshots: every `snapshot_every_ms` the maintenance
  // thread writes the table to `snapshot_path`. Empty path or 0 period
  // disables; SaveSnapshotTo() always works regardless.
  std::string snapshot_path;
  int64_t snapshot_every_ms = 0;
};

// Operational counters for dashboards and tests. All values are
// point-in-time reads; the service keeps running while you look.
struct ServiceStats {
  int64_t resident_sessions = 0;
  // Ticks since the least-recently-observed resident session last scored
  // — a pinned stale admission shows up here even with eviction disabled.
  int64_t max_idle_age = 0;
  int64_t evicted = 0;
  int64_t parked = 0;
  int64_t rehydrated = 0;
  int64_t queue_depth = 0;  // summed over workers
  int64_t rejected = 0;     // backpressure bounces, summed over workers
  int64_t expired = 0;      // deadline drops, summed over workers
  int64_t observations = 0;
  int64_t batches = 0;
  int64_t snapshots_written = 0;
  int64_t snapshot_failures = 0;
  // Milliseconds since the last successful snapshot; -1 before the first.
  double snapshot_age_ms = -1.0;
  int64_t quarantined_total = 0;  // corrupt records quarantined on restore
};

class InferenceService {
 public:
  InferenceService(const train::SequenceModel* model, ServeConfig config);
  ~InferenceService();

  // Admission: allocates resident state (or rehydrates a parked session
  // under the same tag). kInvalidSession when the table is full and the
  // policy rejects.
  SessionId Admit(std::string tag = std::string());

  // Discharge: evicts the session; its memory is freed once in-flight
  // requests drain. Later Observe calls on the id fail (ok = false).
  bool Discharge(SessionId id);

  // Scores one new observation for an admitted patient (blocking).
  // `capture`, when non-null, receives this request's attention surfaces
  // (the caller owns the sink; one per thread). A malformed observation
  // (see ValidObservation) resolves kInvalidInput and leaves the session
  // untouched.
  StepResult Observe(SessionId id, Observation obs,
                     nn::CaptureSink* capture = nullptr);

  // As Observe, without blocking the caller. In sync mode (async = false)
  // the future is already resolved on return. `deadline` defaults to the
  // config's deadline_us (kNoDeadline + deadline_us == 0 means none).
  std::future<StepResult> ObserveAsync(SessionId id, Observation obs,
                                       nn::CaptureSink* capture = nullptr,
                                       Deadline deadline = kNoDeadline);

  // -- Checkpoint/restore ----------------------------------------------------

  // Quiesces scoring, writes the session table to `path`, resumes.
  // Returns false with `error` set on failure (including an injected
  // drop_snapshot fault); the previous file stays intact.
  bool SaveSnapshotTo(const std::string& path, std::string* error = nullptr);

  // SaveSnapshotTo(config.snapshot_path) — what the maintenance thread
  // calls on its period.
  bool SaveSnapshot(std::string* error = nullptr);

  // Restores `path` into this service's (empty) session table. Corrupt
  // session records quarantine instead of failing the restore.
  bool RestoreSnapshot(const std::string& path,
                       std::string* error = nullptr);

  // Parks every scoring worker between batches (async) or locks out
  // inline scoring (sync); Resume undoes it. Pause/Resume nest: scoring
  // restarts only when every outstanding Pause has been Resumed, so
  // overlapping quiesce windows (a user pause over the maintenance
  // thread's snapshot, an eviction inside a sweep) cannot cancel each
  // other. Exposed for tests and external sweeps; SaveSnapshotTo and the
  // eviction paths pause internally.
  void PauseScoring();
  void ResumeScoring();

  // Runs one idle sweep immediately (quiesced), returning the number of
  // sessions evicted. The maintenance thread calls this on its period
  // when idle_ttl > 0.
  int64_t SweepIdle();

  const SessionTable& sessions() const { return table_; }
  MicroBatcher::Stats batcher_stats() const;  // summed over workers
  ServiceStats stats() const;
  const ServeConfig& config() const { return config_; }

 private:
  StepResult ObserveInline(const std::shared_ptr<Session>& session,
                           const Observation& obs, nn::CaptureSink* capture);
  MicroBatcher* ShardFor(SessionId id) const;
  void MaintenanceLoop();

  const train::SequenceModel* model_;
  const ServeConfig config_;
  SessionTable table_;
  std::vector<std::unique_ptr<MicroBatcher>> batchers_;  // async mode only
  // Sync-mode serialisation: inline scoring holds inline_mu_ for the whole
  // call and waits out inline_pause_depth_, so PauseScoring's increment
  // under the lock guarantees quiescence (refcounted, like the batcher's).
  std::mutex inline_mu_;
  std::condition_variable inline_cv_;
  int64_t inline_pause_depth_ = 0;
  // Serialises the whole-table operations (SaveSnapshotTo/RestoreSnapshot/
  // SweepIdle) against each other: each is a multi-step read-or-rebuild of
  // the table, and interleaving two of them — even fully quiesced — could
  // observe the table mid-rebuild.
  std::mutex table_op_mu_;

  // Snapshot bookkeeping (guarded by snap_mu_).
  mutable std::mutex snap_mu_;
  int64_t snapshots_written_ = 0;
  int64_t snapshot_failures_ = 0;
  int64_t quarantined_total_ = 0;
  bool has_snapshot_ = false;
  std::chrono::steady_clock::time_point last_snapshot_;

  // Maintenance thread (periodic snapshot + idle sweep).
  std::thread maintenance_;
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
};

// -- Decompensation routing --------------------------------------------------
//
// Streamed per-step decompensation rides the existing StepForward path: the
// batch DecompensationHead (train/task_head.h) scores step t of row b as the
// model's readout over the prefix encoding — exactly what StepForward emits
// for the same window. This helper replays one prepared sample's first
// `num_steps` rows (its full grid when num_steps < 0) through an admitted
// session and returns the per-step risk trajectory [T]: entry t is
// bitwise-equal to the sigmoid of the batch head's (b, t) logit, with quiet
// NaN on warm-up steps below min_steps_to_score(), provided the stay fits
// the session's window capacity (past it, replay models score the retained
// suffix). Scores through Observe, so it works in sync and async modes and
// respects backpressure; a non-kOk step aborts and returns the risks so far.
std::vector<float> StreamDecompensation(InferenceService* service,
                                        SessionId id,
                                        const data::PreparedSample& sample,
                                        int64_t num_steps = -1);

}  // namespace serve
}  // namespace elda

#endif  // ELDA_SERVE_SERVICE_H_
