// Wire-format pins and a decoder sweep for every on-disk and state format.
//
// Part one pins the bytes: each encoder runs on fixed inputs and the CRC32
// and size of what it writes are compared with constants. A change to any
// format (field order, width, a length prefix) fails here, so files written
// by an earlier build keep loading.
//
// Part two sweeps the decoders: every proper prefix of each valid payload,
// and each of its length/count fields set to 0, -1, 2^31 and 2^62, must be
// rejected cleanly -- a false return, never an abort or an allocation
// driven by the corrupt field. Section payloads are rewritten through the
// sectioned container with fresh CRCs so the edits reach the inner
// decoders instead of stopping at the checksum.
//
// Only public encode/decode entry points are used, so the test pins the
// behaviour that files and snapshots depend on, not any helper type.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "baselines/baselines.h"
#include "data/pipeline.h"
#include "data/shard_io.h"
#include "data/sharded_loader.h"
#include "gtest/gtest.h"
#include "health/ckpt_io.h"
#include "health/crc32.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "train/checkpoint.h"
#include "util/rng.h"

namespace elda {
namespace {

constexpr int64_t kFeatures = 5;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/wire_format_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectPinned(const std::string& bytes, uint32_t crc, size_t size,
                  const std::string& what) {
  EXPECT_EQ(bytes.size(), size) << what << " size changed";
  EXPECT_EQ(health::Crc32(bytes), crc)
      << what << " bytes changed (crc 0x" << std::hex
      << health::Crc32(bytes) << std::dec << ")";
}

// Copies of `bytes` with the T-wide field at `offset` set to 0, -1, 2^31
// and 2^62 (truncated to the field's width); edits that leave the bytes
// unchanged are dropped.
template <typename T>
std::vector<std::string> FieldEdits(const std::string& bytes, size_t offset) {
  EXPECT_LE(offset + sizeof(T), bytes.size());
  std::vector<std::string> edits;
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1} << 31,
                    int64_t{1} << 62}) {
    std::string edited = bytes;
    const T value = static_cast<T>(v);
    std::memcpy(edited.data() + offset, &value, sizeof(T));
    if (edited != bytes) edits.push_back(std::move(edited));
  }
  return edits;
}

// Writes `sections` to `out_path` with `name`'s payload replaced; the
// container recomputes every CRC.
void RewriteSection(const std::vector<health::Section>& sections,
                    const std::string& name, const std::string& payload,
                    const std::string& out_path) {
  std::vector<health::Section> edited = sections;
  for (health::Section& section : edited) {
    if (section.name == name) section.payload = payload;
  }
  std::string error;
  ASSERT_TRUE(health::WriteSectionedFile(out_path, edited, &error)) << error;
}

std::vector<health::Section> ReadSections(const std::string& path) {
  std::vector<health::Section> sections;
  std::string error;
  EXPECT_TRUE(health::ReadSectionedFile(path, &sections, &error)) << error;
  return sections;
}

// -- Fixtures ---------------------------------------------------------------

// A small module with fixed parameter values (independent of init).
struct TinyModule {
  Rng rng{7};
  nn::Linear linear{3, 2, /*use_bias=*/true, &rng};
  TinyModule() {
    int64_t k = 0;
    for (auto& [name, var] : linear.NamedParameters()) {
      Tensor* value = var.mutable_value();
      for (int64_t i = 0; i < value->size(); ++i) {
        value->data()[i] = 0.25f * static_cast<float>(k++) - 1.0f;
      }
    }
  }
};

Tensor Filled(std::vector<int64_t> shape, float start) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = start + 0.5f * static_cast<float>(i);
  }
  return t;
}

train::TrainCheckpoint MakeTrainCheckpoint() {
  train::TrainCheckpoint ckpt;
  ckpt.next_epoch = 3;
  ckpt.epochs_run = 3;
  ckpt.best_epoch = 2;
  ckpt.epochs_without_improvement = 1;
  ckpt.total_batches = 12;
  ckpt.recoveries = 1;
  ckpt.skipped_batches = 2;
  ckpt.best_val_auc_pr = 0.625;
  ckpt.best_val.bce = 0.5;
  ckpt.best_val.auc_roc = 0.75;
  ckpt.best_val.auc_pr = 0.625;
  ckpt.total_batch_seconds = 1.5;
  TinyModule module;
  ckpt.params_blob = nn::EncodeParameters(module.linear);
  ckpt.adam.step_count = 12;
  ckpt.adam.lr = 0.001f;
  ckpt.adam.m = {Filled({3, 2}, 0.0f), Filled({2}, 1.0f)};
  ckpt.adam.v = {Filled({3, 2}, 2.0f), Filled({2}, 3.0f)};
  Rng rng(11);
  rng.Next();
  ckpt.rng = rng.SaveState();
  ckpt.rng.cached_normal = 0.375;
  ckpt.rng.has_cached_normal = true;
  ckpt.batch_order = {3, 1, 2, 0};
  ckpt.best_params = {Filled({3, 2}, -1.0f), Filled({2}, -2.0f)};
  ckpt.source_state = "source-cursor";
  return ckpt;
}

std::vector<data::EmrSample> ShardSamples() {
  data::EmrSample a(3, 2);
  a.length = 2;
  a.mortality_label = 1.0f;
  a.los_gt7_label = 0.0f;
  a.patient_id = 17;
  a.condition = 2;
  for (size_t i = 0; i < a.values.size(); ++i) {
    a.values[i] = 0.5f * static_cast<float>(i) - 1.0f;
    a.observed[i] = static_cast<uint8_t>(i % 2);
  }
  a.decomp_labels = {0.0f, 0.0f, 1.0f};
  a.phenotype_labels.assign(static_cast<size_t>(data::kNumPhenotypes), 0.0f);
  a.phenotype_labels[3] = 1.0f;

  data::EmrSample b(2, 2);
  b.mortality_label = 0.0f;
  b.los_gt7_label = 1.0f;
  b.patient_id = 18;
  b.condition = 0;
  for (size_t i = 0; i < b.values.size(); ++i) {
    b.values[i] = 2.0f + static_cast<float>(i);
    b.observed[i] = 1;
  }
  return {a, b};
}

bool SameSample(const data::EmrSample& a, const data::EmrSample& b) {
  return a.num_steps == b.num_steps && a.num_features == b.num_features &&
         a.length == b.length && a.mortality_label == b.mortality_label &&
         a.los_gt7_label == b.los_gt7_label && a.patient_id == b.patient_id &&
         a.condition == b.condition && a.values == b.values &&
         a.observed == b.observed && a.decomp_labels == b.decomp_labels &&
         a.phenotype_labels == b.phenotype_labels;
}

std::string WriteShard(const std::string& path) {
  data::ShardWriter writer(path, {"hr", "sbp"});
  for (const data::EmrSample& s : ShardSamples()) writer.Append(s);
  EXPECT_TRUE(writer.Close());
  return ReadFile(path);
}

// Byte layout of the fixed shard (see data/shard_io.h).
constexpr size_t kShardHeader = 28;
constexpr size_t kMetaPayload = kShardHeader + 8;  // count | len "hr" | ...
constexpr size_t kMetaPayloadSize = 4 + 4 + 2 + 4 + 3;
constexpr size_t kRecordFrame = kMetaPayload + kMetaPayloadSize + 4;
constexpr size_t kRecordPayload = kRecordFrame + 8;
// Record 0: 3 steps x 2 features.
constexpr size_t kRecordGridsEnd = 36 + 6 * 4 + 6;
constexpr size_t kRecordPayloadSize = kRecordGridsEnd + 4 + 3 * 4 + 4 + 40;

// Returns `shard` with the payload at [payload, payload + size) replaced by
// `payload_bytes` (same size) and its frame CRC recomputed.
std::string ReframeShard(const std::string& shard, size_t payload, size_t size,
                         const std::string& payload_bytes) {
  std::string out = shard;
  std::memcpy(out.data() + payload, payload_bytes.data(), size);
  const uint32_t crc = health::Crc32(payload_bytes.data(), size);
  std::memcpy(out.data() + payload + size, &crc, sizeof(crc));
  return out;
}

// True when the shard at `path` does not hand back record 0 intact.
bool ShardRecordRejected(const std::string& path) {
  data::ShardReader reader(path);
  if (!reader.ok() || reader.size() == 0) return true;
  data::EmrSample sample;
  if (!reader.Read(0, &sample)) return true;
  return !SameSample(sample, ShardSamples()[0]);
}

// Both loader entry points must report a shard set that holds a bad shard:
// FitStandardizerFromShards with an unfitted result and a reason, the
// ShardedLoader (given a standardizer fitted elsewhere, so it opens the bad
// shard itself) with !ok() and no batches. Neither may abort.
void ExpectLoaderRejects(const std::vector<std::string>& paths,
                         const char* what) {
  SCOPED_TRACE(what);
  std::string error;
  const data::Standardizer fitted =
      data::FitStandardizerFromShards(paths, 1, {0}, true, &error);
  EXPECT_FALSE(fitted.fitted());
  EXPECT_FALSE(error.empty());
  data::Standardizer standardizer;
  standardizer.Restore({0.0f, 0.0f}, {1.0f, 1.0f}, true);
  data::ShardedLoaderOptions options;
  options.prefetch = false;
  data::ShardedLoader loader(paths, &standardizer, options);
  EXPECT_FALSE(loader.ok());
  EXPECT_FALSE(loader.error().empty());
  EXPECT_EQ(loader.NumBatchesPerEpoch(), 0);
  loader.StartEpoch();
  data::Batch batch;
  EXPECT_FALSE(loader.Next(&batch));
  // The unfitted standardizer a rejected fit returns is refused the same way.
  data::ShardedLoader unfitted({paths.front()}, &fitted, options);
  EXPECT_FALSE(unfitted.ok());
}

std::vector<std::string> AllRegistryNames() {
  std::vector<std::string> names = baselines::AllModelNames();
  names.push_back("ELDA-Net-Fbi*");
  names.push_back("ELDA-Net-Ffm*");
  return names;
}

// Streams `steps` fixed observations into `state`.
void StepInto(const train::SequenceModel& model, nn::StepState* state,
              int64_t steps, uint64_t seed) {
  ag::NoGradScope no_grad;
  Rng rng(seed);
  for (int64_t t = 0; t < steps; ++t) {
    train::StepBatch sb;
    sb.x = Tensor::Empty({1, kFeatures});
    sb.mask = Tensor::Empty({1, kFeatures});
    sb.delta = Tensor::Empty({1, kFeatures});
    for (int64_t c = 0; c < kFeatures; ++c) {
      sb.x.data()[c] = static_cast<float>(rng.UniformInt(17)) * 0.125f - 1.0f;
      sb.mask.data()[c] = rng.UniformInt(2) == 0 ? 0.0f : 1.0f;
      sb.delta.data()[c] = static_cast<float>(rng.UniformInt(4));
    }
    model.StepForward(sb, {state}, nullptr);
  }
}

// The Save payload of a state that has absorbed five observations, taken
// through a checkpoint-then-evict park (the public route to state bytes).
std::string MidStreamStateBytes(const train::SequenceModel& model) {
  serve::SessionTable table(&model, /*window_capacity=*/8, /*max_sessions=*/1,
                            serve::EvictionPolicy::kCheckpointThenEvict);
  std::shared_ptr<serve::Session> session = table.Admit("a");
  StepInto(model, session->state.get(), 5, 29);
  table.Admit("b");  // evicts and parks "a"
  const auto parked = table.Parked();
  EXPECT_EQ(parked.count("a"), 1u);
  return parked.count("a") ? parked.at("a").state : std::string();
}

// True when `bytes` rehydrates a parked session (its Load succeeded and
// consumed every byte).
bool StateBytesAccepted(const train::SequenceModel& model,
                        const std::string& bytes) {
  serve::SessionTable table(&model, /*window_capacity=*/8, /*max_sessions=*/1,
                            serve::EvictionPolicy::kCheckpointThenEvict);
  serve::ParkedSession parked;
  parked.id = 7;
  parked.state = bytes;
  table.RestoreParked("x", parked);
  table.Admit("x");
  return table.rehydrated_total() == 1;
}

// -- Sectioned container -----------------------------------------------------

TEST(WireFormatTest, SectionedFilePinnedAndDecoderSweep) {
  std::vector<health::Section> sections = {{"alpha", "abc"},
                                           {"beta", std::string(64, 'q')}};
  for (size_t i = 0; i < sections[1].payload.size(); ++i) {
    sections[1].payload[i] = static_cast<char>(i * 7);
  }
  const std::string path = TempPath("sectioned");
  std::string error;
  ASSERT_TRUE(health::WriteSectionedFile(path, sections, &error)) << error;
  const std::string bytes = ReadFile(path);
  ExpectPinned(bytes, 0xf6f19dceu, 120, "sectioned file");

  const std::string probe = TempPath("sectioned_probe");
  std::vector<health::Section> out;
  for (size_t n = 0; n < bytes.size(); ++n) {
    WriteFile(probe, bytes.substr(0, n));
    EXPECT_FALSE(health::ReadSectionedFile(probe, &out, &error))
        << "prefix " << n;
  }
  std::vector<std::string> edits;
  for (auto& e : FieldEdits<uint32_t>(bytes, 8)) edits.push_back(e);
  for (auto& e : FieldEdits<uint32_t>(bytes, 12)) edits.push_back(e);
  for (auto& e : FieldEdits<uint64_t>(bytes, 21)) edits.push_back(e);
  for (auto& e : FieldEdits<uint32_t>(bytes, 36)) edits.push_back(e);
  for (auto& e : FieldEdits<uint64_t>(bytes, 44)) edits.push_back(e);
  for (size_t i = 0; i < edits.size(); ++i) {
    WriteFile(probe, edits[i]);
    EXPECT_FALSE(health::ReadSectionedFile(probe, &out, &error))
        << "edit " << i;
  }
  std::remove(path.c_str());
  std::remove(probe.c_str());
}

// -- Parameter blob ----------------------------------------------------------

TEST(WireFormatTest, ParamsBlobPinnedAndDecoderSweep) {
  TinyModule module;
  const std::string blob = nn::EncodeParameters(module.linear);
  ExpectPinned(blob, 0xcffc39bdu, 90, "params blob");
  const std::string path = TempPath("params");
  ASSERT_TRUE(nn::SaveParameters(module.linear, path));
  ExpectPinned(ReadFile(path), 0x9b9f12e4u, 124, "params file");

  TinyModule target;
  std::string error;
  for (size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(nn::DecodeParameters(&target.linear, blob.substr(0, n),
                                      &error))
        << "prefix " << n;
  }
  const size_t name_len = module.linear.NamedParameters()[0].first.size();
  std::vector<std::string> edits;
  for (auto& e : FieldEdits<uint64_t>(blob, 0)) edits.push_back(e);
  for (auto& e : FieldEdits<uint32_t>(blob, 8)) edits.push_back(e);
  for (auto& e : FieldEdits<uint32_t>(blob, 12 + name_len)) edits.push_back(e);
  for (auto& e : FieldEdits<int64_t>(blob, 16 + name_len)) edits.push_back(e);
  for (size_t i = 0; i < edits.size(); ++i) {
    EXPECT_FALSE(nn::DecodeParameters(&target.linear, edits[i], &error))
        << "edit " << i;
  }
  std::remove(path.c_str());
}

// -- Train checkpoint --------------------------------------------------------

TEST(WireFormatTest, TrainCheckpointPinnedAndDecoderSweep) {
  const std::string path = TempPath("train.ckpt");
  std::string error;
  ASSERT_TRUE(train::SaveTrainCheckpoint(path, MakeTrainCheckpoint(), &error))
      << error;
  ExpectPinned(ReadFile(path), 0x647bf05au, 669, "train checkpoint file");
  const std::vector<health::Section> sections = ReadSections(path);
  const std::map<std::string, std::pair<uint32_t, size_t>> pins = {
      {"progress", {0x08780f01u, 96}}, {"model", {0xcffc39bdu, 90}},
      {"adam", {0xe784e687u, 156}},     {"rng", {0x5d663ec2u, 41}},
      {"batcher", {0xf6f73695u, 40}},  {"best", {0x3d9c8821u, 72}},
      {"source", {0x08778e6au, 13}}};
  ASSERT_EQ(sections.size(), pins.size());
  for (const health::Section& section : sections) {
    ASSERT_EQ(pins.count(section.name), 1u) << section.name;
    const auto& [crc, size] = pins.at(section.name);
    ExpectPinned(section.payload, crc, size, "section " + section.name);
  }

  const std::string probe = TempPath("train_probe.ckpt");
  train::TrainCheckpoint loaded;
  for (const char* name : {"progress", "adam", "rng", "batcher", "best"}) {
    const std::string payload = health::FindSection(sections, name)->payload;
    for (size_t n = 0; n < payload.size(); ++n) {
      RewriteSection(sections, name, payload.substr(0, n), probe);
      EXPECT_FALSE(train::LoadTrainCheckpoint(probe, &loaded, &error))
          << name << " prefix " << n;
    }
  }
  // adam: step i64 | lr f32 | m count u64 | m[0] rank u32 | m[0] dim0 i64
  // batcher: count u64; best: count u64 | rank u32 | dim0 i64.
  const std::vector<std::pair<const char*, std::vector<std::string>>> edits =
      {{"adam", FieldEdits<uint64_t>(
                    health::FindSection(sections, "adam")->payload, 12)},
       {"adam", FieldEdits<uint32_t>(
                    health::FindSection(sections, "adam")->payload, 20)},
       {"adam", FieldEdits<int64_t>(
                    health::FindSection(sections, "adam")->payload, 24)},
       {"batcher", FieldEdits<uint64_t>(
                       health::FindSection(sections, "batcher")->payload, 0)},
       {"best", FieldEdits<uint64_t>(
                    health::FindSection(sections, "best")->payload, 0)},
       {"best", FieldEdits<uint32_t>(
                    health::FindSection(sections, "best")->payload, 8)},
       {"best", FieldEdits<int64_t>(
                    health::FindSection(sections, "best")->payload, 12)}};
  for (const auto& [name, payloads] : edits) {
    for (size_t i = 0; i < payloads.size(); ++i) {
      RewriteSection(sections, name, payloads[i], probe);
      EXPECT_FALSE(train::LoadTrainCheckpoint(probe, &loaded, &error))
          << name << " edit " << i;
    }
  }
  std::remove(path.c_str());
  std::remove(probe.c_str());
}

// -- Shard -------------------------------------------------------------------

TEST(WireFormatTest, ShardPinnedAndDecoderSweep) {
  const std::string path = TempPath("pin.elds");
  const std::string shard = WriteShard(path);
  ExpectPinned(shard, 0xc38e483cu, 271, "shard");
  ASSERT_EQ(shard.size(), kRecordPayload + kRecordPayloadSize + 4 + 8 +
                              (36 + 4 * 4 + 4 + 4 + 4) + 4);
  {
    data::ShardReader reader(path);
    ASSERT_TRUE(reader.ok());
    data::EmrSample sample;
    ASSERT_TRUE(reader.Read(0, &sample));
    ASSERT_TRUE(SameSample(sample, ShardSamples()[0]));
  }

  // A prefix keeps only the complete frames, each decoding intact.
  const std::string probe = TempPath("probe.elds");
  const std::vector<data::EmrSample> samples = ShardSamples();
  for (size_t n = 0; n < shard.size(); ++n) {
    WriteFile(probe, shard.substr(0, n));
    data::ShardReader reader(probe);
    if (!reader.ok()) continue;
    const int64_t whole = n >= kRecordPayload + kRecordPayloadSize + 4 ? 1 : 0;
    EXPECT_LE(reader.size(), whole) << "prefix " << n;
    for (int64_t i = 0; i < reader.size(); ++i) {
      data::EmrSample sample;
      if (reader.Read(i, &sample)) {
        EXPECT_TRUE(SameSample(sample, samples[static_cast<size_t>(i)]))
            << "prefix " << n << " record " << i;
      }
    }
  }

  // Count fields of record 0, re-framed with a valid CRC: num_steps,
  // num_features, num_decomp, num_pheno.
  const std::string payload = shard.substr(kRecordPayload, kRecordPayloadSize);
  for (size_t field : {size_t{4}, size_t{8}, kRecordGridsEnd,
                       kRecordGridsEnd + 4 + 12}) {
    for (const std::string& edit : FieldEdits<uint32_t>(payload, field)) {
      WriteFile(probe,
                ReframeShard(shard, kRecordPayload, kRecordPayloadSize, edit));
      EXPECT_TRUE(ShardRecordRejected(probe)) << "record field " << field;
    }
  }
  // The record frame's payload_size.
  for (const std::string& edit : FieldEdits<uint32_t>(shard, kRecordFrame + 4)) {
    WriteFile(probe, edit);
    EXPECT_TRUE(ShardRecordRejected(probe)) << "frame size";
  }
  // Meta frame: name count and the first name's length, re-framed with a
  // valid CRC. The names are the shard's schema, so every edit fails the
  // reader, and both loader entry points report it instead of aborting.
  const std::string meta = shard.substr(kMetaPayload, kMetaPayloadSize);
  for (size_t field : {size_t{0}, size_t{4}}) {
    for (const std::string& edit : FieldEdits<uint32_t>(meta, field)) {
      WriteFile(probe,
                ReframeShard(shard, kMetaPayload, kMetaPayloadSize, edit));
      data::ShardReader reader(probe);
      EXPECT_FALSE(reader.ok()) << "meta field " << field;
      ExpectLoaderRejects({path, probe}, "meta field");
    }
  }
  // One name too few, consistently framed: the meta frame parses but names
  // one column where the header says two.
  {
    std::string one_name(kMetaPayloadSize, '\0');
    const uint32_t count = 1, length = kMetaPayloadSize - 8;
    std::memcpy(one_name.data(), &count, 4);
    std::memcpy(one_name.data() + 4, &length, 4);
    WriteFile(probe,
              ReframeShard(shard, kMetaPayload, kMetaPayloadSize, one_name));
    EXPECT_FALSE(data::ShardReader(probe).ok());
    ExpectLoaderRejects({path, probe}, "one name");
  }
  // A meta frame that fails its CRC, and a shard cut inside its meta frame.
  {
    std::string bad_crc = shard;
    bad_crc[kMetaPayload] ^= 1;
    WriteFile(probe, bad_crc);
    EXPECT_FALSE(data::ShardReader(probe).ok());
    ExpectLoaderRejects({probe}, "meta CRC");
    WriteFile(probe, shard.substr(0, kMetaPayload + 2));
    EXPECT_FALSE(data::ShardReader(probe).ok());
    ExpectLoaderRejects({probe}, "cut meta");
  }
  std::remove(path.c_str());
  std::remove(probe.c_str());
}

// -- Batch-source state ------------------------------------------------------

TEST(WireFormatTest, BatcherStatePinnedAndDecoderSweep) {
  const std::vector<data::PreparedSample> prepared;
  std::vector<int64_t> indices(10);
  for (int64_t i = 0; i < 10; ++i) indices[static_cast<size_t>(i)] = i;
  Rng rng(5);
  data::Batcher batcher(&prepared, indices, 4, data::Task::kMortality, &rng);
  batcher.StartEpoch();
  const std::string state = batcher.ExportState();
  ExpectPinned(state, 0x3b0cfc95u, 100, "batcher state");

  Rng other(6);
  data::Batcher target(&prepared, indices, 4, data::Task::kMortality, &other);
  ASSERT_TRUE(target.RestoreState(state));
  for (size_t n = 0; n < state.size(); ++n) {
    EXPECT_FALSE(target.RestoreState(state.substr(0, n))) << "prefix " << n;
  }
  for (const std::string& edit : FieldEdits<uint64_t>(state, 4)) {
    EXPECT_FALSE(target.RestoreState(edit));
  }
}

TEST(WireFormatTest, ShardedLoaderStatePinnedAndDecoderSweep) {
  const std::string path = TempPath("loader-00000.elds");
  WriteShard(path);
  const data::Standardizer standardizer =
      data::FitStandardizerFromShards({path});
  data::ShardedLoaderOptions options;
  options.batch_size = 1;
  options.num_buckets = 1;
  options.prefetch = false;
  options.seed = 21;
  data::ShardedLoader loader({path}, &standardizer, options);
  loader.StartEpoch();
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));
  const std::string state = loader.ExportState();
  ExpectPinned(state, 0xecbbd116u, 62, "sharded loader state");

  data::ShardedLoader target({path}, &standardizer, options);
  ASSERT_TRUE(target.RestoreState(state));
  for (size_t n = 0; n < state.size(); ++n) {
    EXPECT_FALSE(target.RestoreState(state.substr(0, n))) << "prefix " << n;
  }
  // magic u32 | active u8 | rng 4 x u64 | f64 | u8 | cursor i64 | entries i64
  for (const std::string& edit : FieldEdits<int64_t>(state, 4 + 1 + 32 + 9 + 8)) {
    EXPECT_FALSE(target.RestoreState(edit));
  }
  std::remove(path.c_str());
}

// -- StepState payloads ------------------------------------------------------

TEST(WireFormatTest, StepStatePayloadsPinnedAndPrefixesRejected) {
  const std::map<std::string, std::pair<uint32_t, size_t>> pins = {
      {"LR", {0xf2ee42bfu, 356}},
      {"FM", {0xf2ee42bfu, 356}},
      {"AFM", {0xf2ee42bfu, 356}},
      {"SAnD", {0xf2ee42bfu, 356}},
      {"GRU", {0xb7726f11u, 272}},
      {"RETAIN", {0xf2ee42bfu, 356}},
      {"Dipole-l", {0xf2ee42bfu, 356}},
      {"Dipole-g", {0xf2ee42bfu, 356}},
      {"Dipole-c", {0xf2ee42bfu, 356}},
      {"StageNet", {0x78d83c17u, 1336}},
      {"GRU-D", {0xeef23559u, 272}},
      {"ConCare", {0x4c7bbe89u, 336}},
      {"ELDA-Net-T", {0x3e6efd06u, 1352}},
      {"ELDA-Net-Fbi", {0xb5884a7bu, 1557}},
      {"ELDA-Net-Ffm", {0x73a893a2u, 1352}},
      {"ELDA-Net", {0xb5884a7bu, 1557}},
      {"ELDA-Net-Fbi*", {0x86a369f5u, 1557}},
      {"ELDA-Net-Ffm*", {0xc882d1e6u, 1352}},
  };
  for (const std::string& name : AllRegistryNames()) {
    SCOPED_TRACE(name);
    auto model = baselines::MakeModel(name, kFeatures, /*seed=*/3);
    const std::string bytes = MidStreamStateBytes(*model);
    ASSERT_FALSE(bytes.empty());
    ASSERT_EQ(pins.count(name), 1u);
    ExpectPinned(bytes, pins.at(name).first, pins.at(name).second,
                 name + " state");
    ASSERT_TRUE(StateBytesAccepted(*model, bytes));
    for (size_t n = 0; n < bytes.size(); ++n) {
      if (StateBytesAccepted(*model, bytes.substr(0, n))) {
        ADD_FAILURE() << "prefix " << n << " of " << bytes.size()
                      << " accepted";
        break;
      }
    }
  }
}

// -- Serve snapshot ----------------------------------------------------------

TEST(WireFormatTest, SnapshotSectionsPinnedAndDecoderSweep) {
  auto model = baselines::MakeModel("GRU", kFeatures, /*seed=*/3);
  serve::SessionTable table(model.get(), /*window_capacity=*/8,
                            /*max_sessions=*/2,
                            serve::EvictionPolicy::kCheckpointThenEvict);
  for (const char* tag : {"p1", "p2", "p3"}) {
    std::shared_ptr<serve::Session> session = table.Admit(tag);
    ASSERT_NE(session, nullptr);
    StepInto(*model, session->state.get(), 3, tag[1]);
    session->observations.store(3);
    session->last_risk.store(0.25f);
    session->ever_scored.store(true);
    session->last_observed.store(table.Tick());
  }
  const std::string path = TempPath("serve.snap");
  std::string error;
  serve::SnapshotStats stats;
  ASSERT_TRUE(serve::SaveSessionSnapshot(table, path, &stats, &error))
      << error;
  ASSERT_EQ(stats.sessions, 2);
  ASSERT_EQ(stats.parked, 1);
  ExpectPinned(ReadFile(path), 0x8a15c21bu, 1129, "snapshot file");
  const std::vector<health::Section> sections = ReadSections(path);
  const std::map<std::string, std::pair<uint32_t, size_t>> pins = {
      {"serve_meta", {0xbc20e231u, 35}},
      {"serve_sessions", {0x9c38e15du, 668}},
      {"serve_parked", {0xf537fd60u, 330}}};
  ASSERT_EQ(sections.size(), pins.size());
  for (const health::Section& section : sections) {
    ASSERT_EQ(pins.count(section.name), 1u) << section.name;
    const auto& [crc, size] = pins.at(section.name);
    ExpectPinned(section.payload, crc, size, "section " + section.name);
  }

  auto restore = [&](const std::string& file) {
    serve::SessionTable fresh(model.get(), 8, 2,
                              serve::EvictionPolicy::kCheckpointThenEvict);
    std::string err;
    return serve::RestoreSessionSnapshot(&fresh, file, nullptr, &err);
  };
  ASSERT_TRUE(restore(path));
  const std::string probe = TempPath("serve_probe.snap");
  for (const health::Section& section : sections) {
    for (size_t n = 0; n < section.payload.size(); ++n) {
      RewriteSection(sections, section.name, section.payload.substr(0, n),
                     probe);
      EXPECT_FALSE(restore(probe)) << section.name << " prefix " << n;
    }
  }
  // meta: name length i64. sessions: count i64 | id i64 | tag length i64 |
  // tag "p2" | last_observed | observations | risk f32 | ever_scored |
  // state length i64. parked: count i64 | tag length i64.
  const std::string& sessions =
      health::FindSection(sections, "serve_sessions")->payload;
  const std::string& parked =
      health::FindSection(sections, "serve_parked")->payload;
  const std::vector<std::pair<const char*, std::vector<std::string>>> edits =
      {{"serve_meta", FieldEdits<int64_t>(
                          health::FindSection(sections, "serve_meta")->payload,
                          0)},
       {"serve_sessions", FieldEdits<int64_t>(sessions, 0)},
       {"serve_sessions", FieldEdits<int64_t>(sessions, 16)},
       {"serve_sessions", FieldEdits<int64_t>(sessions, 24 + 2 + 28)},
       {"serve_parked", FieldEdits<int64_t>(parked, 0)},
       {"serve_parked", FieldEdits<int64_t>(parked, 8)}};
  for (const auto& [name, payloads] : edits) {
    for (size_t i = 0; i < payloads.size(); ++i) {
      RewriteSection(sections, name, payloads[i], probe);
      EXPECT_FALSE(restore(probe)) << name << " edit " << i;
    }
  }
  std::remove(path.c_str());
  std::remove(probe.c_str());
}

}  // namespace
}  // namespace elda
