#include "train/checkpoint.h"

#include "health/ckpt_io.h"
#include "nn/serialize.h"
#include "util/byte_codec.h"

namespace elda {
namespace train {
namespace {

using util::Fail;

constexpr uint64_t kMaxListEntries = 1 << 20;

void PutTensorList(util::ByteWriter* writer,
                   const std::vector<Tensor>& tensors) {
  writer->Put(static_cast<uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) nn::PutShapedTensor(writer, t);
}

bool GetTensorList(util::ByteReader* reader, std::vector<Tensor>* tensors,
                   std::string* error, const std::string& what) {
  uint64_t count = 0;
  if (!reader->Get(&count) || count > kMaxListEntries) {
    return Fail(error, "corrupt tensor count in " + what);
  }
  std::vector<Tensor> parsed;
  for (uint64_t i = 0; i < count; ++i) {
    Tensor t;
    if (!nn::GetShapedTensor(reader, &t, what, error)) return false;
    parsed.push_back(std::move(t));
  }
  *tensors = std::move(parsed);
  return true;
}

const health::Section* RequireSection(
    const std::vector<health::Section>& sections, const std::string& name,
    std::string* error) {
  const health::Section* section = health::FindSection(sections, name);
  if (section == nullptr) {
    Fail(error, "checkpoint is missing section '" + name + "'");
  }
  return section;
}

}  // namespace

bool SaveTrainCheckpoint(const std::string& path, const TrainCheckpoint& ckpt,
                         std::string* error) {
  std::vector<health::Section> sections;

  util::ByteWriter progress;
  progress.Put(ckpt.next_epoch);
  progress.Put(ckpt.epochs_run);
  progress.Put(ckpt.best_epoch);
  progress.Put(ckpt.epochs_without_improvement);
  progress.Put(ckpt.total_batches);
  progress.Put(ckpt.recoveries);
  progress.Put(ckpt.skipped_batches);
  progress.Put(ckpt.best_val_auc_pr);
  progress.Put(ckpt.best_val.bce);
  progress.Put(ckpt.best_val.auc_roc);
  progress.Put(ckpt.best_val.auc_pr);
  progress.Put(ckpt.total_batch_seconds);
  sections.push_back({"progress", progress.Take()});

  sections.push_back({"model", ckpt.params_blob});

  util::ByteWriter adam;
  adam.Put(ckpt.adam.step_count);
  adam.Put(ckpt.adam.lr);
  PutTensorList(&adam, ckpt.adam.m);
  PutTensorList(&adam, ckpt.adam.v);
  sections.push_back({"adam", adam.Take()});

  util::ByteWriter rng;
  PutRngState(&rng, ckpt.rng);
  sections.push_back({"rng", rng.Take()});

  util::ByteWriter batcher;
  batcher.Put(static_cast<uint64_t>(ckpt.batch_order.size()));
  batcher.PutArray(ckpt.batch_order.data(), ckpt.batch_order.size());
  sections.push_back({"batcher", batcher.Take()});

  util::ByteWriter best;
  PutTensorList(&best, ckpt.best_params);
  sections.push_back({"best", best.Take()});

  if (!ckpt.source_state.empty()) {
    sections.push_back({"source", ckpt.source_state});
  }

  return health::WriteSectionedFile(path, sections, error);
}

bool LoadTrainCheckpoint(const std::string& path, TrainCheckpoint* ckpt,
                         std::string* error) {
  ELDA_CHECK(ckpt != nullptr);
  std::vector<health::Section> sections;
  if (!health::ReadSectionedFile(path, &sections, error)) return false;

  TrainCheckpoint parsed;
  const health::Section* progress =
      RequireSection(sections, "progress", error);
  if (progress == nullptr) return false;
  {
    util::ByteReader reader(progress->payload);
    reader.Get(&parsed.next_epoch);
    reader.Get(&parsed.epochs_run);
    reader.Get(&parsed.best_epoch);
    reader.Get(&parsed.epochs_without_improvement);
    reader.Get(&parsed.total_batches);
    reader.Get(&parsed.recoveries);
    reader.Get(&parsed.skipped_batches);
    reader.Get(&parsed.best_val_auc_pr);
    reader.Get(&parsed.best_val.bce);
    reader.Get(&parsed.best_val.auc_roc);
    reader.Get(&parsed.best_val.auc_pr);
    reader.Get(&parsed.total_batch_seconds);
    if (!reader.AtEnd()) {
      return Fail(error, "corrupt 'progress' section in " + path);
    }
    if (parsed.next_epoch < 0 || parsed.total_batches < 0) {
      return Fail(error, "implausible progress counters in " + path);
    }
  }

  const health::Section* model = RequireSection(sections, "model", error);
  if (model == nullptr) return false;
  parsed.params_blob = model->payload;

  const health::Section* adam = RequireSection(sections, "adam", error);
  if (adam == nullptr) return false;
  {
    util::ByteReader reader(adam->payload);
    if (!reader.Get(&parsed.adam.step_count) ||
        !reader.Get(&parsed.adam.lr) ||
        !GetTensorList(&reader, &parsed.adam.m, error, "'adam' (m)") ||
        !GetTensorList(&reader, &parsed.adam.v, error, "'adam' (v)") ||
        !reader.AtEnd()) {
      if (error != nullptr && error->empty()) {
        *error = "corrupt 'adam' section in " + path;
      }
      return false;
    }
  }

  const health::Section* rng = RequireSection(sections, "rng", error);
  if (rng == nullptr) return false;
  {
    util::ByteReader reader(rng->payload);
    if (!GetRngState(&reader, &parsed.rng) || !reader.AtEnd()) {
      return Fail(error, "corrupt 'rng' section in " + path);
    }
  }

  const health::Section* batcher = RequireSection(sections, "batcher", error);
  if (batcher == nullptr) return false;
  {
    util::ByteReader reader(batcher->payload);
    uint64_t count = 0;
    if (!reader.Get(&count) || count > kMaxListEntries ||
        !reader.GetArray(&parsed.batch_order, count) || !reader.AtEnd()) {
      return Fail(error, "corrupt 'batcher' section in " + path);
    }
  }

  const health::Section* best = RequireSection(sections, "best", error);
  if (best == nullptr) return false;
  {
    util::ByteReader reader(best->payload);
    if (!GetTensorList(&reader, &parsed.best_params, error, "'best'") ||
        !reader.AtEnd()) {
      if (error != nullptr && error->empty()) {
        *error = "corrupt 'best' section in " + path;
      }
      return false;
    }
  }

  // Optional: batch-source cursor state (absent in older checkpoints).
  const health::Section* source = health::FindSection(sections, "source");
  if (source != nullptr) parsed.source_state = source->payload;

  *ckpt = std::move(parsed);
  return true;
}

}  // namespace train
}  // namespace elda
