#include "data/pipeline.h"

#include <algorithm>
#include <cmath>

#include "util/byte_codec.h"

namespace elda {
namespace data {
namespace {

constexpr uint32_t kBatcherStateMagic = 0x42435253;  // "SRCB"

}  // namespace

void Standardizer::Fit(const EmrDataset& dataset,
                       const std::vector<int64_t>& train_indices,
                       bool clean_negative) {
  clean_negative_ = clean_negative;
  const int64_t num_features = dataset.num_features();
  mean_.assign(num_features, 0.0f);
  std_.assign(num_features, 1.0f);
  std::vector<double> sum(num_features, 0.0);
  std::vector<double> sum_sq(num_features, 0.0);
  std::vector<int64_t> count(num_features, 0);
  for (int64_t idx : train_indices) {
    const EmrSample& s = dataset.sample(idx);
    for (int64_t t = 0; t < s.num_steps; ++t) {
      for (int64_t c = 0; c < num_features; ++c) {
        if (!s.is_observed(t, c)) continue;
        const float v = s.value(t, c);
        if (clean_negative_ && v < 0.0f) continue;
        sum[c] += v;
        sum_sq[c] += static_cast<double>(v) * v;
        ++count[c];
      }
    }
  }
  for (int64_t c = 0; c < num_features; ++c) {
    if (count[c] == 0) continue;  // never-observed feature keeps (0, 1)
    mean_[c] = static_cast<float>(sum[c] / count[c]);
    const double var =
        sum_sq[c] / count[c] - static_cast<double>(mean_[c]) * mean_[c];
    std_[c] = static_cast<float>(std::sqrt(std::max(var, 1e-8)));
  }
}

void Standardizer::Apply(EmrSample* sample) const {
  ELDA_CHECK(fitted());
  ELDA_CHECK_EQ(sample->num_features, static_cast<int64_t>(mean_.size()));
  for (int64_t t = 0; t < sample->num_steps; ++t) {
    for (int64_t c = 0; c < sample->num_features; ++c) {
      if (!sample->is_observed(t, c)) {
        sample->value(t, c) = 0.0f;
        continue;
      }
      const float v = sample->value(t, c);
      if (clean_negative_ && v < 0.0f) {
        // Recording error: drop the observation entirely.
        sample->set_observed(t, c, false);
        sample->value(t, c) = 0.0f;
        continue;
      }
      sample->value(t, c) = (v - mean_[c]) / std_[c];
    }
  }
}

void Standardizer::Restore(std::vector<float> means,
                           std::vector<float> stddevs, bool clean_negative) {
  ELDA_CHECK_EQ(means.size(), stddevs.size());
  ELDA_CHECK(!means.empty());
  for (float s : stddevs) ELDA_CHECK_GT(s, 0.0f);
  mean_ = std::move(means);
  std_ = std::move(stddevs);
  clean_negative_ = clean_negative;
}

PreparedSample PrepareOne(const EmrSample& sample,
                          const Standardizer& standardizer) {
  ELDA_CHECK(standardizer.fitted());
  EmrSample s = sample;  // copy; standardisation mutates
  standardizer.Apply(&s);
  const int64_t num_steps = s.num_steps;
  const int64_t num_features = s.num_features;
  PreparedSample p;
  p.x = Tensor({num_steps, num_features});
  p.mask = Tensor({num_steps, num_features});
  p.delta = Tensor({num_steps, num_features});
  p.length = s.length;
  for (int64_t c = 0; c < num_features; ++c) {
    float last_value = 0.0f;  // global mean in standardised space
    float steps_since = 0.0f;
    bool seen = false;
    for (int64_t t = 0; t < num_steps; ++t) {
      const bool obs = s.is_observed(t, c);
      if (obs) {
        last_value = s.value(t, c);
        steps_since = 0.0f;
        seen = true;
      } else if (seen || t > 0) {
        steps_since += 1.0f;
      }
      p.x.at({t, c}) = obs ? s.value(t, c) : last_value;
      p.mask.at({t, c}) = obs ? 1.0f : 0.0f;
      p.delta.at({t, c}) = steps_since;
    }
  }
  p.mortality_label = s.mortality_label;
  p.los_gt7_label = s.los_gt7_label;
  p.decomp_labels = s.decomp_labels;
  p.phenotype_labels = s.phenotype_labels;
  p.condition = s.condition;
  return p;
}

std::vector<PreparedSample> PrepareDataset(const EmrDataset& dataset,
                                           const Standardizer& standardizer) {
  ELDA_CHECK(standardizer.fitted());
  std::vector<PreparedSample> prepared;
  prepared.reserve(dataset.size());
  for (int64_t i = 0; i < dataset.size(); ++i) {
    PreparedSample p = PrepareOne(dataset.sample(i), standardizer);
    p.source_index = i;
    prepared.push_back(std::move(p));
  }
  return prepared;
}

bool Batch::UniformLength() const {
  if (lengths.empty()) return true;
  const int64_t steps = x.shape(1);
  for (int64_t len : lengths) {
    if (len != steps) return false;
  }
  return true;
}

const std::vector<int64_t>* Batch::LengthsOrNull() const {
  return UniformLength() ? nullptr : &lengths;
}

Batch MakeBatch(const std::vector<PreparedSample>& prepared,
                const std::vector<int64_t>& indices, Task task) {
  ELDA_CHECK(!indices.empty());
  const int64_t features = prepared[indices[0]].x.shape(1);
  const int64_t batch = static_cast<int64_t>(indices.size());
  // Batch T is the longest grid present; shorter samples pad with zeros.
  // Uniform cohorts hit the exact pre-ragged layout (full-grid copies over a
  // zero-initialised tensor), so the dense path is bitwise unchanged.
  int64_t steps = 0;
  for (int64_t idx : indices) {
    steps = std::max(steps, prepared[idx].x.shape(0));
  }
  Batch out;
  out.x = Tensor({batch, steps, features});
  out.mask = Tensor({batch, steps, features});
  out.delta = Tensor({batch, steps, features});
  out.y = Tensor({batch});
  out.y_los = Tensor({batch});
  out.sample_indices = indices;
  out.lengths.resize(batch);
  // Multi-task slabs materialize only when every selected sample carries
  // them (a mixed batch means a legacy source; heads must not train on it).
  bool multitask = true;
  for (int64_t idx : indices) {
    const PreparedSample& p = prepared[idx];
    multitask = multitask && !p.decomp_labels.empty() &&
                static_cast<int64_t>(p.phenotype_labels.size()) ==
                    kNumPhenotypes;
  }
  if (multitask) {
    out.y_decomp = Tensor({batch, steps});
    out.y_pheno = Tensor({batch, kNumPhenotypes});
  }
  const int64_t grid = steps * features;
  bool ragged = false;
  for (int64_t b = 0; b < batch; ++b) {
    const PreparedSample& p = prepared[indices[b]];
    ELDA_CHECK_EQ(p.x.shape(1), features);
    const int64_t row_grid = p.x.shape(0) * features;
    std::copy(p.x.data(), p.x.data() + row_grid, out.x.data() + b * grid);
    std::copy(p.mask.data(), p.mask.data() + row_grid,
              out.mask.data() + b * grid);
    std::copy(p.delta.data(), p.delta.data() + row_grid,
              out.delta.data() + b * grid);
    out.y[b] =
        task == Task::kMortality ? p.mortality_label : p.los_gt7_label;
    out.y_los[b] = p.los_gt7_label;
    if (multitask) {
      const int64_t row_steps =
          std::min(steps, static_cast<int64_t>(p.decomp_labels.size()));
      std::copy(p.decomp_labels.data(), p.decomp_labels.data() + row_steps,
                out.y_decomp.data() + b * steps);
      std::copy(p.phenotype_labels.data(),
                p.phenotype_labels.data() + kNumPhenotypes,
                out.y_pheno.data() + b * kNumPhenotypes);
    }
    out.lengths[b] = p.length;
    ragged = ragged || p.length != steps;
  }
  if (ragged) {
    out.step_mask = Tensor({batch, steps});
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < out.lengths[b]; ++t) {
        out.step_mask.at({b, t}) = 1.0f;
      }
    }
  }
  return out;
}

Batcher::Batcher(const std::vector<PreparedSample>* prepared,
                 std::vector<int64_t> indices, int64_t batch_size, Task task,
                 Rng* rng)
    : prepared_(prepared),
      indices_(std::move(indices)),
      batch_size_(batch_size),
      task_(task),
      rng_(rng) {
  ELDA_CHECK(prepared_ != nullptr);
  ELDA_CHECK_GT(batch_size_, 0);
}

void Batcher::StartEpoch() {
  rng_->Shuffle(&indices_);
  cursor_ = 0;
}

bool Batcher::Next(Batch* batch) {
  if (cursor_ >= static_cast<int64_t>(indices_.size())) return false;
  const int64_t end = std::min(cursor_ + batch_size_,
                               static_cast<int64_t>(indices_.size()));
  std::vector<int64_t> selection(indices_.begin() + cursor_,
                                 indices_.begin() + end);
  *batch = MakeBatch(*prepared_, selection, task_);
  cursor_ = end;
  return true;
}

std::string Batcher::ExportState() const {
  util::ByteWriter state;
  state.Put<uint32_t>(kBatcherStateMagic);
  state.Put<uint64_t>(indices_.size());
  state.PutArray(indices_.data(), indices_.size());
  state.Put<int64_t>(cursor_);
  return state.Take();
}

bool Batcher::RestoreState(const std::string& state) {
  util::ByteReader reader(state);
  uint32_t magic = 0;
  uint64_t n = 0;
  std::vector<int64_t> order;
  int64_t cursor = 0;
  reader.Get(&magic);
  reader.Get(&n);
  if (magic != kBatcherStateMagic || n != indices_.size() ||
      !reader.GetArray(&order, n) || !reader.Get(&cursor) || !reader.AtEnd()) {
    return false;
  }
  {
    std::vector<int64_t> a = indices_, b = order;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  if (cursor < 0 || cursor > static_cast<int64_t>(n)) return false;
  indices_ = std::move(order);
  cursor_ = cursor;
  return true;
}

int64_t Batcher::NumBatchesPerEpoch() const {
  return (static_cast<int64_t>(indices_.size()) + batch_size_ - 1) /
         batch_size_;
}

}  // namespace data
}  // namespace elda
