#include "train/checkpoint.h"

#include <cstring>

#include "health/ckpt_io.h"

namespace elda {
namespace train {
namespace {

constexpr int64_t kMaxTensorElements = int64_t{1} << 28;
constexpr uint64_t kMaxListEntries = 1 << 20;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

class BlobReader {
 public:
  explicit BlobReader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  bool Pod(T* value) {
    if (pos_ + sizeof(T) > bytes_.size()) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool Floats(float* dst, int64_t count) {
    const size_t n = static_cast<size_t>(count) * sizeof(float);
    if (pos_ + n > bytes_.size()) return false;
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool Done() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

void AppendTensorList(std::string* out, const std::vector<Tensor>& tensors) {
  AppendPod(out, static_cast<uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    AppendPod(out, static_cast<uint32_t>(t.dim()));
    for (int64_t d : t.shape()) AppendPod(out, d);
    out->append(reinterpret_cast<const char*>(t.data()),
                static_cast<size_t>(t.size()) * sizeof(float));
  }
}

bool ReadTensorList(BlobReader* reader, std::vector<Tensor>* tensors,
                    std::string* error, const std::string& what) {
  uint64_t count = 0;
  if (!reader->Pod(&count) || count > kMaxListEntries) {
    return Fail(error, "corrupt tensor count in " + what);
  }
  std::vector<Tensor> parsed;
  parsed.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t rank = 0;
    if (!reader->Pod(&rank) || rank > 8) {
      return Fail(error, "corrupt tensor header in " + what);
    }
    std::vector<int64_t> shape(rank);
    int64_t volume = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      if (!reader->Pod(&shape[d]) || shape[d] <= 0 ||
          volume > kMaxTensorElements / shape[d]) {
        return Fail(error, "rejected tensor dimensions in " + what);
      }
      volume *= shape[d];
    }
    Tensor t(shape);
    if (!reader->Floats(t.data(), volume)) {
      return Fail(error, "truncated tensor data in " + what);
    }
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

  std::string progress;
  AppendPod(&progress, ckpt.next_epoch);
  AppendPod(&progress, ckpt.epochs_run);
  AppendPod(&progress, ckpt.best_epoch);
  AppendPod(&progress, ckpt.epochs_without_improvement);
  AppendPod(&progress, ckpt.total_batches);
  AppendPod(&progress, ckpt.recoveries);
  AppendPod(&progress, ckpt.skipped_batches);
  AppendPod(&progress, ckpt.best_val_auc_pr);
  AppendPod(&progress, ckpt.best_val.bce);
  AppendPod(&progress, ckpt.best_val.auc_roc);
  AppendPod(&progress, ckpt.best_val.auc_pr);
  AppendPod(&progress, ckpt.total_batch_seconds);
  sections.push_back({"progress", std::move(progress)});

  sections.push_back({"model", ckpt.params_blob});

  std::string adam;
  AppendPod(&adam, ckpt.adam.step_count);
  AppendPod(&adam, ckpt.adam.lr);
  AppendTensorList(&adam, ckpt.adam.m);
  AppendTensorList(&adam, ckpt.adam.v);
  sections.push_back({"adam", std::move(adam)});

  std::string rng;
  for (uint64_t s : ckpt.rng.s) AppendPod(&rng, s);
  AppendPod(&rng, ckpt.rng.cached_normal);
  AppendPod(&rng, static_cast<uint8_t>(ckpt.rng.has_cached_normal ? 1 : 0));
  sections.push_back({"rng", std::move(rng)});

  std::string batcher;
  AppendPod(&batcher, static_cast<uint64_t>(ckpt.batch_order.size()));
  for (int64_t idx : ckpt.batch_order) AppendPod(&batcher, idx);
  sections.push_back({"batcher", std::move(batcher)});

  std::string best;
  AppendTensorList(&best, ckpt.best_params);
  sections.push_back({"best", std::move(best)});

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
    BlobReader reader(progress->payload);
    const bool ok = reader.Pod(&parsed.next_epoch) &&
                 reader.Pod(&parsed.epochs_run) &&
                 reader.Pod(&parsed.best_epoch) &&
                 reader.Pod(&parsed.epochs_without_improvement) &&
                 reader.Pod(&parsed.total_batches) &&
                 reader.Pod(&parsed.recoveries) &&
                 reader.Pod(&parsed.skipped_batches) &&
                 reader.Pod(&parsed.best_val_auc_pr) &&
                 reader.Pod(&parsed.best_val.bce) &&
                 reader.Pod(&parsed.best_val.auc_roc) &&
                 reader.Pod(&parsed.best_val.auc_pr) &&
                 reader.Pod(&parsed.total_batch_seconds);
    if (!ok || !reader.Done()) {
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
    BlobReader reader(adam->payload);
    if (!reader.Pod(&parsed.adam.step_count) ||
        !reader.Pod(&parsed.adam.lr) ||
        !ReadTensorList(&reader, &parsed.adam.m, error, "'adam' (m)") ||
        !ReadTensorList(&reader, &parsed.adam.v, error, "'adam' (v)") ||
        !reader.Done()) {
      if (error != nullptr && error->empty()) {
        *error = "corrupt 'adam' section in " + path;
      }
      return false;
    }
  }

  const health::Section* rng = RequireSection(sections, "rng", error);
  if (rng == nullptr) return false;
  {
    BlobReader reader(rng->payload);
    uint8_t has_cached = 0;
    bool ok = true;
    for (uint64_t& s : parsed.rng.s) ok = ok && reader.Pod(&s);
    ok = ok && reader.Pod(&parsed.rng.cached_normal) &&
         reader.Pod(&has_cached) && reader.Done();
    if (!ok) return Fail(error, "corrupt 'rng' section in " + path);
    parsed.rng.has_cached_normal = has_cached != 0;
  }

  const health::Section* batcher = RequireSection(sections, "batcher", error);
  if (batcher == nullptr) return false;
  {
    BlobReader reader(batcher->payload);
    uint64_t count = 0;
    if (!reader.Pod(&count) || count > kMaxListEntries) {
      return Fail(error, "corrupt 'batcher' section in " + path);
    }
    parsed.batch_order.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      if (!reader.Pod(&parsed.batch_order[i])) {
        return Fail(error, "truncated 'batcher' section in " + path);
      }
    }
    if (!reader.Done()) {
      return Fail(error, "trailing bytes in 'batcher' section of " + path);
    }
  }

  const health::Section* best = RequireSection(sections, "best", error);
  if (best == nullptr) return false;
  {
    BlobReader reader(best->payload);
    if (!ReadTensorList(&reader, &parsed.best_params, error, "'best'") ||
        !reader.Done()) {
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
