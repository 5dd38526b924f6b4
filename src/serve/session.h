// Per-patient session lifecycle for the streaming inference service.
//
// A Session owns the resident StepState one admitted patient carries
// between observations; the SessionTable maps admissions to sessions,
// enforces a capacity bound, and frees state on discharge. Sessions are
// handed out as shared_ptrs so an in-flight scoring request finishes
// safely even if the patient is discharged concurrently — discharge
// removes the table entry (new requests fail), the last holder frees it.
//
// Fleet hardening (see DESIGN.md "Serving path"):
//
//  * Logical clock. The table carries a monotonic tick advanced on every
//    admission and observation; each session records the tick it last
//    scored at. `clock - last_observed` is a session's idle age — the
//    signal both the TTL sweep and the at-capacity LRU eviction use, and
//    a stat operators can watch even with eviction disabled (a pinned
//    stale admission shows up as an ever-growing max idle age).
//  * Eviction policy. At capacity (or on an idle sweep) the table either
//    rejects new admissions (the PR-6 behavior), evicts the
//    least-recently-observed session outright, or parks its serialized
//    StepState first so a later re-admission under the same tag
//    rehydrates mid-stream instead of starting cold.
//  * Snapshot plumbing. Resident() / RestoreSession() / parked-state
//    accessors expose exactly what serve/snapshot.cc needs to persist the
//    whole table through the CRC-checksummed checkpoint container.

#ifndef ELDA_SERVE_SESSION_H_
#define ELDA_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "train/sequence_model.h"

namespace elda {
namespace serve {

using SessionId = int64_t;
inline constexpr SessionId kInvalidSession = -1;

// One prepared observation row (C entries per slab): standardized LOCF
// value, observation mask, steps since last observation — the same
// semantics as one timestep of a data::Batch. StreamingImputer produces
// these from raw monitor readings.
struct Observation {
  std::vector<float> x;
  std::vector<float> mask;
  std::vector<float> delta;
};

// Fine-grained outcome of one scoring request.
enum class StepStatus {
  kOk = 0,
  kUnknownSession,  // id never admitted, discharged, or evicted
  kRejected,        // bounded queue full and the batcher rejects overload
  kExpired,         // request's deadline passed while it sat in the queue
  kInvalidInput,    // malformed observation; see ValidObservation
};

const char* StepStatusName(StepStatus status);

// True when `obs` is a well-formed row for a model reading `num_features`
// features: all three slabs that wide, x finite, mask exactly 0 or 1, delta
// finite and >= 0. The serving front doors turn anything else away with
// kInvalidInput before it can reach a session.
bool ValidObservation(const Observation& obs, int64_t num_features);

// Outcome of scoring one observation.
struct StepResult {
  // Sigmoid risk probability; quiet NaN while the model cannot score yet.
  float risk = 0.0f;
  // False while the session has fewer observations than the model's
  // minimum scorable window.
  bool scored = false;
  // 1-based observation count after this update.
  int64_t step = 0;
  // False when the request did not score at all — see `status` for why
  // (risk/step are meaningless then).
  bool ok = true;
  StepStatus status = StepStatus::kOk;
};

struct Session {
  SessionId id = kInvalidSession;
  std::string tag;  // caller-supplied patient identifier, for display
  std::unique_ptr<nn::StepState> state;
  // Monitoring mirrors of the state, readable without touching `state`
  // (which only the scoring thread may access).
  std::atomic<int64_t> observations{0};
  std::atomic<float> last_risk{0.0f};
  std::atomic<bool> ever_scored{false};
  // Logical-clock tick of the last admission/observation touch; the
  // eviction sweep and the idle-age stats read it.
  std::atomic<int64_t> last_observed{0};
  // Set when the table evicts this session. A queued request that still
  // holds the shared_ptr resolves kUnknownSession at batch assembly
  // instead of scoring — an evicted session's state must never advance
  // past its parked bytes. (Discharge does NOT set this: an in-flight
  // request for a discharged patient finishes normally, as documented.)
  std::atomic<bool> retired{false};
};

// What the table does when it must shed a session: at-capacity admission
// and the idle-TTL sweep both consult this.
enum class EvictionPolicy {
  // Admissions beyond max_sessions fail; the idle sweep is a no-op. A
  // stale admission pins its state until explicitly discharged (its idle
  // age stays visible in the stats).
  kRejectAdmits,
  // The least-recently-observed (or TTL-expired) session is discharged
  // and its state dropped; re-admission starts cold.
  kEvict,
  // As kEvict, but the session's serialized StepState is parked first;
  // re-admission under the same tag rehydrates it mid-stream.
  kCheckpointThenEvict,
};

const char* EvictionPolicyName(EvictionPolicy policy);

// A parked (checkpoint-then-evicted) session: everything needed to
// rehydrate it on re-admission, keyed by tag in the table. The monitoring
// mirrors (last_risk/ever_scored) ride along so a rehydrated session's
// stats resume where the evicted one left off.
struct ParkedSession {
  SessionId id = kInvalidSession;
  int64_t last_observed = 0;
  std::string state;  // StepState::Save payload of the evicted state
  float last_risk = 0.0f;
  bool ever_scored = false;
};

// Thread-safe admission/discharge registry with bounded occupancy.
class SessionTable {
 public:
  // `model` supplies MakeStepState for admissions; `window_capacity` is
  // passed through to it; `max_sessions` bounds resident memory; `policy`
  // decides what happens at the bound and on idle sweeps.
  SessionTable(const train::SequenceModel* model, int64_t window_capacity,
               int64_t max_sessions,
               EvictionPolicy policy = EvictionPolicy::kRejectAdmits);

  // Registers the pause/resume pair the table invokes around any eviction
  // that serializes live state (at-capacity admission, TTL sweep), so an
  // evicted session's StepState is never Save()d while a scoring worker
  // may be writing it. The hooks must be nestable (refcounted pause): an
  // eviction can fire inside an already-quiesced window. Call once, before
  // any concurrent use of the table.
  void SetQuiesceHooks(std::function<void()> pause,
                       std::function<void()> resume);

  // Admits a patient and allocates (or rehydrates) their resident state.
  // A non-empty tag matching a parked session resumes it: same id, same
  // serialized mid-stream state. At capacity, kRejectAdmits returns
  // nullptr; the eviction policies shed the least-recently-observed
  // session to make room (under the quiesce hooks, when registered).
  std::shared_ptr<Session> Admit(std::string tag);

  // nullptr when unknown, discharged, or evicted.
  std::shared_ptr<Session> Get(SessionId id) const;

  // Removes the session; its state memory is freed once in-flight requests
  // drain. Returns false when unknown. Also drops any parked state under
  // the session's tag.
  bool Discharge(SessionId id);

  // Advances the logical clock by one tick and returns the new value.
  // The service calls this once per observation submission (and per
  // admission) and stores the tick into the session's last_observed.
  int64_t Tick();
  int64_t clock() const;

  // Evicts every session idle for more than `ttl` ticks, per the table's
  // policy (no-op under kRejectAdmits). Returns the number evicted.
  // Evictions run under the quiesce hooks; without hooks the caller must
  // guarantee no in-flight scoring touches the evicted sessions' states.
  int64_t EvictIdle(int64_t ttl);

  // Largest idle age (clock - last_observed) over resident sessions; 0
  // when the table is empty. A monotonically growing value under load is
  // a pinned stale admission.
  int64_t MaxIdleAge() const;

  int64_t size() const;
  int64_t max_sessions() const { return max_sessions_; }
  EvictionPolicy policy() const { return policy_; }
  const train::SequenceModel* model() const { return model_; }
  int64_t window_capacity() const { return window_capacity_; }
  int64_t admitted_total() const;
  int64_t discharged_total() const;
  int64_t evicted_total() const;
  int64_t rehydrated_total() const;
  int64_t parked_count() const;
  int64_t high_water() const;

  // -- Snapshot/restore plumbing (serve/snapshot.cc) -------------------------

  // All resident sessions, in ascending id order (deterministic snapshot
  // record numbering). The states behind the pointers are only safe to
  // read while scoring is quiesced.
  std::vector<std::shared_ptr<Session>> Resident() const;

  // Copy of the parked-state map (tag -> ParkedSession).
  std::unordered_map<std::string, ParkedSession> Parked() const;

  // Everything the snapshot writer needs, copied under ONE lock hold so a
  // concurrent eviction cannot leave a session both resident and parked
  // in the same snapshot.
  struct View {
    std::vector<std::shared_ptr<Session>> resident;  // ascending id
    std::unordered_map<std::string, ParkedSession> parked;
    SessionId next_id = 1;
    int64_t clock = 0;
  };
  View SnapshotView() const;

  // Inserts a fully-built session during restore. CHECK-fails on a
  // duplicate id; the caller (snapshot restore) guarantees an empty table.
  void RestoreSession(std::shared_ptr<Session> session);

  // Re-parks a serialized state during restore.
  void RestoreParked(std::string tag, ParkedSession parked);

  SessionId next_id() const;
  void set_next_id(SessionId id);
  void set_clock(int64_t clock);

 private:
  // Sheds the least-recently-observed session under an eviction policy.
  // Returns false when the table is empty. mu_ must be held.
  bool EvictLruLocked();
  void EvictLocked(SessionId id);
  // Sorted copy of sessions_. mu_ must be held.
  std::vector<std::shared_ptr<Session>> ResidentLocked() const;

  const train::SequenceModel* model_;
  const int64_t window_capacity_;
  const int64_t max_sessions_;
  const EvictionPolicy policy_;
  // Invoked (while mu_ is held; the hooks must not re-enter the table)
  // around state-serializing evictions. Empty hooks mean the caller
  // guarantees quiescence itself.
  std::function<void()> quiesce_pause_;
  std::function<void()> quiesce_resume_;
  mutable std::mutex mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  std::unordered_map<std::string, ParkedSession> parked_;
  std::atomic<int64_t> clock_{0};
  SessionId next_id_ = 1;
  int64_t admitted_ = 0;
  int64_t discharged_ = 0;
  int64_t evicted_ = 0;
  int64_t rehydrated_ = 0;
  int64_t high_water_ = 0;
};

}  // namespace serve
}  // namespace elda

#endif  // ELDA_SERVE_SESSION_H_
