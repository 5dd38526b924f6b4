#include "serve/snapshot.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "health/ckpt_io.h"
#include "health/crc32.h"
#include "health/health.h"
#include "nn/step_state.h"
#include "util/byte_codec.h"
#include "util/logging.h"

namespace elda {
namespace serve {

namespace {

using util::Fail;

constexpr const char kMetaSection[] = "serve_meta";
constexpr const char kSessionsSection[] = "serve_sessions";
constexpr const char kParkedSection[] = "serve_parked";

// One serialized state payload with its own CRC: length, bytes, crc32.
// `record` numbers sessions for the poison_state fault, which flips a byte
// AFTER the CRC is computed — the mismatch is what restore must catch.
void PutStateRecord(util::ByteWriter* out, std::string state, int64_t record) {
  const uint32_t crc = health::Crc32(state);
  if (record >= 0 &&
      health::GlobalFaultInjector()->ConsumePoisonState(record) &&
      !state.empty()) {
    state[state.size() / 2] ^= 0x40;
  }
  out->PutString<int64_t>(state);
  out->Put(crc);
}

// Reads a state record and verifies its CRC; `*intact` reports whether the
// bytes survived.
bool GetStateRecord(util::ByteReader* reader, std::string* state,
                    bool* intact) {
  uint32_t crc = 0;
  if (!reader->GetString<int64_t>(state) || !reader->Get(&crc)) return false;
  *intact = health::Crc32(*state) == crc;
  return true;
}

}  // namespace

bool SaveSessionSnapshot(const SessionTable& table, const std::string& path,
                         SnapshotStats* stats, std::string* error) {
  if (health::GlobalFaultInjector()->ConsumeDropSnapshot()) {
    return Fail(error, "fault-injected snapshot drop (drop_snapshot)");
  }
  // One-lock copy: a concurrent eviction can move a session from resident
  // to parked, and separate Resident()/Parked() reads could catch it in
  // both lists (or neither). The view is the point-in-time truth.
  const SessionTable::View view = table.SnapshotView();
  const std::vector<std::shared_ptr<Session>>& resident = view.resident;
  const std::unordered_map<std::string, ParkedSession>& parked =
      view.parked;

  util::ByteWriter meta;
  meta.PutString<int64_t>(table.model()->name());
  meta.Put<int64_t>(table.window_capacity());
  meta.Put<int64_t>(view.next_id);
  meta.Put<int64_t>(view.clock);

  util::ByteWriter sessions;
  sessions.Put(static_cast<int64_t>(resident.size()));
  int64_t record = 0;
  for (const std::shared_ptr<Session>& session : resident) {
    sessions.Put<int64_t>(session->id);
    sessions.PutString<int64_t>(session->tag);
    sessions.Put<int64_t>(
        session->last_observed.load(std::memory_order_relaxed));
    sessions.Put<int64_t>(
        session->observations.load(std::memory_order_relaxed));
    sessions.Put<float>(session->last_risk.load(std::memory_order_relaxed));
    sessions.Put<int64_t>(
        session->ever_scored.load(std::memory_order_relaxed) ? 1 : 0);
    util::ByteWriter state;
    session->state->Save(&state);
    PutStateRecord(&sessions, state.Take(), record++);
  }

  // Parked states already passed through Save at eviction; persist them so
  // a restored service still rehydrates returning patients.
  util::ByteWriter parked_payload;
  parked_payload.Put(static_cast<int64_t>(parked.size()));
  for (const auto& [tag, park] : parked) {
    parked_payload.PutString<int64_t>(tag);
    parked_payload.Put<int64_t>(park.id);
    parked_payload.Put<int64_t>(park.last_observed);
    parked_payload.Put<float>(park.last_risk);
    parked_payload.Put<int64_t>(park.ever_scored ? 1 : 0);
    PutStateRecord(&parked_payload, park.state, -1);
  }

  std::vector<health::Section> sections;
  sections.push_back({kMetaSection, meta.Take()});
  sections.push_back({kSessionsSection, sessions.Take()});
  sections.push_back({kParkedSection, parked_payload.Take()});
  if (!health::WriteSectionedFile(path, sections, error)) return false;
  if (stats != nullptr) {
    stats->sessions = static_cast<int64_t>(resident.size());
    stats->parked = static_cast<int64_t>(parked.size());
    stats->quarantined = 0;
  }
  return true;
}

bool RestoreSessionSnapshot(SessionTable* table, const std::string& path,
                            SnapshotStats* stats, std::string* error) {
  ELDA_CHECK(table != nullptr);
  if (table->size() != 0) {
    return Fail(error, "snapshot restore requires an empty session table");
  }
  std::vector<health::Section> sections;
  if (!health::ReadSectionedFile(path, &sections, error)) return false;
  const health::Section* meta = health::FindSection(sections, kMetaSection);
  const health::Section* sess =
      health::FindSection(sections, kSessionsSection);
  const health::Section* park =
      health::FindSection(sections, kParkedSection);
  if (meta == nullptr || sess == nullptr || park == nullptr) {
    return Fail(error, "snapshot is missing a serve section");
  }

  util::ByteReader meta_reader(meta->payload);
  std::string model_name;
  int64_t window_capacity = 0;
  int64_t next_id = 0;
  int64_t clock = 0;
  meta_reader.GetString<int64_t>(&model_name);
  meta_reader.Get(&window_capacity);
  meta_reader.Get(&next_id);
  meta_reader.Get(&clock);
  if (!meta_reader.AtEnd()) {
    return Fail(error, "snapshot meta section is malformed");
  }
  if (model_name != table->model()->name()) {
    return Fail(error, "snapshot was written by model '" + model_name +
                           "', table serves '" + table->model()->name() +
                           "'");
  }
  if (window_capacity != table->window_capacity()) {
    return Fail(error, "snapshot window capacity mismatch");
  }

  SnapshotStats local;
  util::ByteReader reader(sess->payload);
  int64_t count = 0;
  if (!reader.Get(&count) || count < 0) {
    return Fail(error, "snapshot sessions section is malformed");
  }
  if (count > table->max_sessions()) {
    // Restoring past the bound would silently overshoot capacity — and
    // the next Admit under an eviction policy would immediately shed
    // freshly-restored sessions. Make the mismatch explicit instead.
    return Fail(error, "snapshot holds " + std::to_string(count) +
                           " sessions, table capacity is " +
                           std::to_string(table->max_sessions()));
  }
  for (int64_t i = 0; i < count; ++i) {
    auto session = std::make_shared<Session>();
    int64_t last_observed = 0;
    int64_t observations = 0;
    float last_risk = 0.0f;
    int64_t ever_scored = 0;
    std::string state_bytes;
    bool intact = false;
    reader.Get(&session->id);
    reader.GetString<int64_t>(&session->tag);
    reader.Get(&last_observed);
    reader.Get(&observations);
    reader.Get(&last_risk);
    reader.Get(&ever_scored);
    if (!GetStateRecord(&reader, &state_bytes, &intact)) {
      return Fail(error, "snapshot sessions section is truncated");
    }
    session->state = table->model()->MakeStepState(window_capacity);
    bool loaded = false;
    if (intact) {
      util::ByteReader state(state_bytes);
      loaded = session->state->Load(&state) && state.AtEnd();
    }
    if (loaded) {
      session->observations.store(observations, std::memory_order_relaxed);
      session->last_risk.store(last_risk, std::memory_order_relaxed);
      session->ever_scored.store(ever_scored != 0,
                                 std::memory_order_relaxed);
    } else {
      // Quarantine: the record failed its CRC (or decoded inconsistently).
      // The patient stays admitted under the same id/tag but scores from
      // fresh state — a cold restart for one session, not a poisoned
      // fleet and not an aborted restore.
      session->state = table->model()->MakeStepState(window_capacity);
      ++local.quarantined;
    }
    session->last_observed.store(last_observed, std::memory_order_relaxed);
    table->RestoreSession(std::move(session));
    ++local.sessions;
  }
  if (!reader.AtEnd()) {
    return Fail(error, "snapshot sessions section has trailing bytes");
  }

  util::ByteReader park_reader(park->payload);
  int64_t park_count = 0;
  if (!park_reader.Get(&park_count) || park_count < 0) {
    return Fail(error, "snapshot parked section is malformed");
  }
  for (int64_t i = 0; i < park_count; ++i) {
    std::string tag;
    ParkedSession parked;
    int64_t ever_scored = 0;
    bool intact = false;
    park_reader.GetString<int64_t>(&tag);
    park_reader.Get(&parked.id);
    park_reader.Get(&parked.last_observed);
    park_reader.Get(&parked.last_risk);
    park_reader.Get(&ever_scored);
    if (!GetStateRecord(&park_reader, &parked.state, &intact)) {
      return Fail(error, "snapshot parked section is truncated");
    }
    parked.ever_scored = ever_scored != 0;
    // A rotten parked record is simply dropped: its patient re-admits cold,
    // the same outcome Admit falls back to on unreadable parked bytes.
    if (!intact) {
      ++local.quarantined;
      continue;
    }
    table->RestoreParked(std::move(tag), std::move(parked));
    ++local.parked;
  }
  if (!park_reader.AtEnd()) {
    return Fail(error, "snapshot parked section has trailing bytes");
  }

  table->set_next_id(next_id);
  table->set_clock(clock);
  if (stats != nullptr) *stats = local;
  return true;
}

}  // namespace serve
}  // namespace elda
