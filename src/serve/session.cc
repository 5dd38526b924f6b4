#include "serve/session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "nn/step_state.h"
#include "util/logging.h"

namespace elda {
namespace serve {

const char* StepStatusName(StepStatus status) {
  switch (status) {
    case StepStatus::kOk: return "ok";
    case StepStatus::kUnknownSession: return "unknown-session";
    case StepStatus::kRejected: return "rejected";
    case StepStatus::kExpired: return "expired";
    case StepStatus::kInvalidInput: return "invalid-input";
  }
  return "unknown";
}

bool ValidObservation(const Observation& obs, int64_t num_features) {
  const size_t width = static_cast<size_t>(num_features);
  if (obs.x.size() != width || obs.mask.size() != width ||
      obs.delta.size() != width) {
    return false;
  }
  for (size_t c = 0; c < width; ++c) {
    if (!std::isfinite(obs.x[c])) return false;
    if (obs.mask[c] != 0.0f && obs.mask[c] != 1.0f) return false;
    if (!std::isfinite(obs.delta[c]) || obs.delta[c] < 0.0f) return false;
  }
  return true;
}

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kRejectAdmits: return "reject-admits";
    case EvictionPolicy::kEvict: return "evict";
    case EvictionPolicy::kCheckpointThenEvict: return "checkpoint-then-evict";
  }
  return "unknown";
}

SessionTable::SessionTable(const train::SequenceModel* model,
                           int64_t window_capacity, int64_t max_sessions,
                           EvictionPolicy policy)
    : model_(model),
      window_capacity_(window_capacity),
      max_sessions_(max_sessions),
      policy_(policy) {
  ELDA_CHECK(model != nullptr);
  ELDA_CHECK_GE(window_capacity, 1);
  ELDA_CHECK_GE(max_sessions, 1);
}

void SessionTable::SetQuiesceHooks(std::function<void()> pause,
                                   std::function<void()> resume) {
  ELDA_CHECK(static_cast<bool>(pause) == static_cast<bool>(resume));
  std::lock_guard<std::mutex> lock(mu_);
  quiesce_pause_ = std::move(pause);
  quiesce_resume_ = std::move(resume);
}

std::shared_ptr<Session> SessionTable::Admit(std::string tag) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int64_t>(sessions_.size()) >= max_sessions_) {
    if (policy_ == EvictionPolicy::kRejectAdmits) return nullptr;
    // The shed session's state may be mid-StepForward on a worker (Admit
    // does not pause the fleet on its own), so quiesce scoring around the
    // eviction — EvictLocked serializes live state under
    // kCheckpointThenEvict, and retiring the session must not race the
    // batch that still holds it.
    if (quiesce_pause_) quiesce_pause_();
    const bool made_room = EvictLruLocked();
    if (quiesce_resume_) quiesce_resume_();
    if (!made_room) return nullptr;
  }
  auto session = std::make_shared<Session>();
  session->tag = std::move(tag);
  session->state = model_->MakeStepState(window_capacity_);
  // A tag matching a parked (checkpoint-then-evicted) session resumes it
  // mid-stream: same id, state rehydrated from the parked bytes.
  bool rehydrated = false;
  if (!session->tag.empty()) {
    auto parked_it = parked_.find(session->tag);
    if (parked_it != parked_.end()) {
      // Same strictness as snapshot restore: the payload must decode AND
      // consume every byte — trailing garbage means the bytes are not the
      // state that was parked.
      util::ByteReader reader(parked_it->second.state);
      if (session->state->Load(&reader) && reader.AtEnd()) {
        session->id = parked_it->second.id;
        session->observations.store(session->state->steps_seen,
                                    std::memory_order_relaxed);
        session->last_risk.store(parked_it->second.last_risk,
                                 std::memory_order_relaxed);
        session->ever_scored.store(parked_it->second.ever_scored,
                                   std::memory_order_relaxed);
        rehydrated = true;
      } else {
        // Unreadable parked bytes: fall through to a cold admission
        // rather than refusing the patient.
        session->state = model_->MakeStepState(window_capacity_);
      }
      parked_.erase(parked_it);
    }
  }
  if (!rehydrated) {
    session->id = next_id_++;
  }
  session->last_observed.store(clock_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  sessions_.emplace(session->id, session);
  ++admitted_;
  if (rehydrated) ++rehydrated_;
  high_water_ =
      std::max(high_water_, static_cast<int64_t>(sessions_.size()));
  return session;
}

std::shared_ptr<Session> SessionTable::Get(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionTable::Discharge(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  if (!it->second->tag.empty()) parked_.erase(it->second->tag);
  sessions_.erase(it);
  ++discharged_;
  return true;
}

int64_t SessionTable::Tick() {
  return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

int64_t SessionTable::clock() const {
  return clock_.load(std::memory_order_relaxed);
}

bool SessionTable::EvictLruLocked() {
  if (sessions_.empty()) return false;
  SessionId lru = kInvalidSession;
  int64_t oldest = std::numeric_limits<int64_t>::max();
  for (const auto& [id, session] : sessions_) {
    const int64_t seen =
        session->last_observed.load(std::memory_order_relaxed);
    if (seen < oldest || (seen == oldest && id < lru)) {
      oldest = seen;
      lru = id;
    }
  }
  EvictLocked(lru);
  return true;
}

void SessionTable::EvictLocked(SessionId id) {
  auto it = sessions_.find(id);
  ELDA_CHECK(it != sessions_.end());
  Session& session = *it->second;
  if (policy_ == EvictionPolicy::kCheckpointThenEvict &&
      !session.tag.empty()) {
    util::ByteWriter writer;
    session.state->Save(&writer);
    ParkedSession parked;
    parked.id = session.id;
    parked.last_observed =
        session.last_observed.load(std::memory_order_relaxed);
    parked.state = writer.Take();
    parked.last_risk = session.last_risk.load(std::memory_order_relaxed);
    parked.ever_scored =
        session.ever_scored.load(std::memory_order_relaxed);
    parked_[session.tag] = std::move(parked);
  }
  // Requests already queued for this session still hold its shared_ptr;
  // retiring it makes them resolve kUnknownSession at batch assembly
  // instead of advancing a state that was just parked (or dropped).
  session.retired.store(true, std::memory_order_release);
  sessions_.erase(it);
  ++evicted_;
}

int64_t SessionTable::EvictIdle(int64_t ttl) {
  std::lock_guard<std::mutex> lock(mu_);
  if (policy_ == EvictionPolicy::kRejectAdmits) return 0;
  const int64_t now = clock_.load(std::memory_order_relaxed);
  std::vector<SessionId> expired;
  for (const auto& [id, session] : sessions_) {
    const int64_t seen =
        session->last_observed.load(std::memory_order_relaxed);
    if (now - seen > ttl) expired.push_back(id);
  }
  if (expired.empty()) return 0;
  if (quiesce_pause_) quiesce_pause_();
  for (SessionId id : expired) EvictLocked(id);
  if (quiesce_resume_) quiesce_resume_();
  return static_cast<int64_t>(expired.size());
}

int64_t SessionTable::MaxIdleAge() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = clock_.load(std::memory_order_relaxed);
  int64_t max_age = 0;
  for (const auto& [id, session] : sessions_) {
    (void)id;
    const int64_t age =
        now - session->last_observed.load(std::memory_order_relaxed);
    max_age = std::max(max_age, age);
  }
  return max_age;
}

int64_t SessionTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

int64_t SessionTable::admitted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

int64_t SessionTable::discharged_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discharged_;
}

int64_t SessionTable::evicted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

int64_t SessionTable::rehydrated_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rehydrated_;
}

int64_t SessionTable::parked_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(parked_.size());
}

int64_t SessionTable::high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

std::vector<std::shared_ptr<Session>> SessionTable::ResidentLocked() const {
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    (void)id;
    out.push_back(session);
  }
  std::sort(out.begin(), out.end(),
            [](const std::shared_ptr<Session>& a,
               const std::shared_ptr<Session>& b) { return a->id < b->id; });
  return out;
}

std::vector<std::shared_ptr<Session>> SessionTable::Resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ResidentLocked();
}

std::unordered_map<std::string, ParkedSession> SessionTable::Parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

SessionTable::View SessionTable::SnapshotView() const {
  std::lock_guard<std::mutex> lock(mu_);
  View view;
  view.resident = ResidentLocked();
  view.parked = parked_;
  view.next_id = next_id_;
  view.clock = clock_.load(std::memory_order_relaxed);
  return view;
}

void SessionTable::RestoreSession(std::shared_ptr<Session> session) {
  ELDA_CHECK(session != nullptr);
  ELDA_CHECK(session->state != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const SessionId id = session->id;
  ELDA_CHECK(sessions_.find(id) == sessions_.end())
      << "duplicate session id " << id << " during restore";
  sessions_.emplace(id, std::move(session));
  high_water_ =
      std::max(high_water_, static_cast<int64_t>(sessions_.size()));
}

void SessionTable::RestoreParked(std::string tag, ParkedSession parked) {
  std::lock_guard<std::mutex> lock(mu_);
  parked_[std::move(tag)] = std::move(parked);
}

SessionId SessionTable::next_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

void SessionTable::set_next_id(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  next_id_ = id;
}

void SessionTable::set_clock(int64_t clock) {
  clock_.store(clock, std::memory_order_relaxed);
}

}  // namespace serve
}  // namespace elda
