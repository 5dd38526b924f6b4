#include "train/sequence_model.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "autograd/ops.h"
#include "util/logging.h"

namespace elda {
namespace train {
namespace {

// Default resident state: a bounded rolling window of the raw prepared
// observation rows, replayed through Forward() on every step. Correct for
// any model (the window is exactly the prefix a batch-mode caller would
// score) at O(window) cost per observation.
struct WindowReplayState : nn::StepState {
  WindowReplayState(int64_t capacity, int64_t width)
      : x(capacity, width), mask(capacity, width), delta(capacity, width) {}

  void Save(util::ByteWriter* w) const override {
    nn::StepState::Save(w);
    nn::PutWindow(w, x);
    nn::PutWindow(w, mask);
    nn::PutWindow(w, delta);
  }

  bool Load(util::ByteReader* r) override {
    return nn::StepState::Load(r) && nn::GetWindow(r, &x) &&
           nn::GetWindow(r, &mask) && nn::GetWindow(r, &delta);
  }

  nn::RollingWindow x;
  nn::RollingWindow mask;
  nn::RollingWindow delta;
};

}  // namespace

ag::Variable SequenceModel::EncodeSteps(const data::Batch& batch,
                                        nn::ForwardContext* ctx) const {
  ELDA_CHECK(has_step_encoding())
      << name() << " exposes a terminal-only encoding (no per-step state)";
  const int64_t b = batch.x.shape(0);
  const int64_t t_total = batch.x.shape(1);
  const int64_t c = batch.x.shape(2);
  const int64_t h = encoding_dim();
  const int64_t min_steps = min_steps_to_score();
  // Prefix replay: encoding t is EncodeTerminal over the first t+1 steps —
  // exactly the window a streaming client's state has absorbed at step t, so
  // Readout over these rows is bitwise-equal to the StepForward risk stream.
  std::vector<ag::Variable> per_step;
  per_step.reserve(static_cast<size_t>(t_total));
  for (int64_t t = 0; t < t_total; ++t) {
    const int64_t len = t + 1;
    if (len < min_steps) {
      per_step.push_back(ag::Constant(
          Tensor::Full({b, h}, std::numeric_limits<float>::quiet_NaN())));
      continue;
    }
    data::Batch prefix;
    prefix.x = Tensor::Empty({b, len, c});
    prefix.mask = Tensor::Empty({b, len, c});
    prefix.delta = Tensor::Empty({b, len, c});
    prefix.y = Tensor::Zeros({b});
    prefix.lengths.resize(static_cast<size_t>(b));
    const size_t bytes = static_cast<size_t>(len * c) * sizeof(float);
    for (int64_t row = 0; row < b; ++row) {
      const int64_t src = row * t_total * c;
      std::memcpy(prefix.x.data() + row * len * c, batch.x.data() + src,
                  bytes);
      std::memcpy(prefix.mask.data() + row * len * c, batch.mask.data() + src,
                  bytes);
      std::memcpy(prefix.delta.data() + row * len * c,
                  batch.delta.data() + src, bytes);
      const int64_t full = batch.lengths.empty()
                               ? t_total
                               : batch.lengths[static_cast<size_t>(row)];
      prefix.lengths[static_cast<size_t>(row)] = std::min(full, len);
    }
    per_step.push_back(EncodeTerminal(prefix, ctx));
  }
  return ag::Transpose01(ag::Stack0(per_step));  // [T, B, H] -> [B, T, H]
}

std::unique_ptr<nn::StepState> SequenceModel::MakeStepState(
    int64_t window_capacity) const {
  ELDA_CHECK_GE(window_capacity, 1);
  return std::make_unique<WindowReplayState>(window_capacity, num_features());
}

ag::Variable SequenceModel::StepForward(
    const StepBatch& obs, const std::vector<nn::StepState*>& states,
    nn::ForwardContext* ctx) const {
  const int64_t n = static_cast<int64_t>(states.size());
  ELDA_CHECK_EQ(obs.x.shape(0), n);
  ELDA_CHECK_EQ(obs.mask.shape(0), n);
  ELDA_CHECK_EQ(obs.delta.shape(0), n);
  const int64_t cols = obs.x.shape(1);

  std::vector<WindowReplayState*> ws(static_cast<size_t>(n));
  for (int64_t b = 0; b < n; ++b) {
    ws[b] = dynamic_cast<WindowReplayState*>(states[b]);
    ELDA_CHECK(ws[b] != nullptr)
        << "StepForward given a state not made by this model's MakeStepState";
    ws[b]->x.Append(obs.x.data() + b * cols, cols);
    ws[b]->mask.Append(obs.mask.data() + b * cols, cols);
    ws[b]->delta.Append(obs.delta.data() + b * cols, cols);
    ++ws[b]->steps_seen;
  }

  Tensor logits =
      Tensor::Full({n}, std::numeric_limits<float>::quiet_NaN());
  // Group sequences by current window length so each length replays as one
  // batched Forward call. Rows of a batch are computed independently, so
  // grouping does not change any value.
  std::map<int64_t, std::vector<int64_t>> by_len;
  const int64_t min_steps = min_steps_to_score();
  for (int64_t b = 0; b < n; ++b) {
    if (ws[b]->x.size() >= min_steps) by_len[ws[b]->x.size()].push_back(b);
  }
  for (const auto& [len, group] : by_len) {
    const int64_t g = static_cast<int64_t>(group.size());
    data::Batch batch;
    batch.x = Tensor::Empty({g, len, cols});
    batch.mask = Tensor::Empty({g, len, cols});
    batch.delta = Tensor::Empty({g, len, cols});
    batch.y = Tensor::Zeros({g});
    // Every row in this group has exactly `len` real steps, so the replayed
    // batch is uniform; filling lengths keeps length-aware Forward
    // implementations on their dense path explicitly.
    batch.lengths.assign(static_cast<size_t>(g), len);
    for (int64_t gi = 0; gi < g; ++gi) {
      WindowReplayState* w = ws[group[gi]];
      w->x.CopyInto(batch.x.data() + gi * len * cols);
      w->mask.CopyInto(batch.mask.data() + gi * len * cols);
      w->delta.CopyInto(batch.delta.data() + gi * len * cols);
    }
    ag::Variable out = Forward(batch, ctx);
    ELDA_CHECK_EQ(out.value().size(), g);
    const float* src = out.value().data();
    for (int64_t gi = 0; gi < g; ++gi) logits.data()[group[gi]] = src[gi];
  }
  return ag::Constant(logits);
}

}  // namespace train
}  // namespace elda
