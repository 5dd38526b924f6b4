#include "baselines/concare.h"

#include <cmath>
#include <cstring>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace elda {
namespace baselines {
namespace {

struct ConCareStreamState : nn::StepState {
  void Save(util::ByteWriter* w) const override {
    nn::StepState::Save(w);
    nn::PutTensorData(w, h);
  }
  bool Load(util::ByteReader* r) override {
    return nn::StepState::Load(r) && nn::GetTensorData(r, &h);
  }

  Tensor h;  // [C, u] — feature c's GRU state in row c
};

}  // namespace

ConCare::ConCare(int64_t num_features, int64_t per_feature_hidden,
                 uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      hidden_(per_feature_hidden),
      wq_(per_feature_hidden, per_feature_hidden, /*use_bias=*/false, &rng_),
      wk_(per_feature_hidden, per_feature_hidden, false, &rng_),
      wv_(per_feature_hidden, per_feature_hidden, false, &rng_),
      out_(num_features * per_feature_hidden, 1, true, &rng_) {
  feature_grus_.reserve(num_features);
  for (int64_t c = 0; c < num_features; ++c) {
    feature_grus_.push_back(
        std::make_unique<nn::Gru>(1, per_feature_hidden, &rng_));
    RegisterSubmodule("gru" + std::to_string(c), feature_grus_[c].get());
  }
  RegisterSubmodule("wq", &wq_);
  RegisterSubmodule("wk", &wk_);
  RegisterSubmodule("wv", &wv_);
  RegisterSubmodule("out", &out_);
}

ag::Variable ConCare::EncodeTerminal(const data::Batch& batch,
                                     nn::ForwardContext*) const {
  const int64_t batch_size = batch.x.shape(0);
  const int64_t steps = batch.x.shape(1);
  ag::Variable x = ag::Constant(batch.x);
  // Per-feature GRU encoders; keep each feature's final state.
  std::vector<ag::Variable> summaries;
  summaries.reserve(num_features());
  for (int64_t c = 0; c < num_features(); ++c) {
    ag::Variable series = ag::Reshape(ag::Slice(x, 2, c, 1),
                                      {batch_size, steps, 1});
    std::vector<ag::Variable> states =
        feature_grus_[c]->ForwardSteps(series);
    summaries.push_back(
        ag::Reshape(states.back(), {batch_size, 1, hidden_}));
  }
  ag::Variable features = ag::Concat(summaries, 1);  // [B, C, u]

  // Cross-feature self-attention (single head).
  ag::Variable q = wq_.Forward(features);
  ag::Variable k = wk_.Forward(features);
  ag::Variable v = wv_.Forward(features);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hidden_));
  ag::Variable attention = ag::Softmax(
      ag::MulScalar(ag::MatMul(q, ag::TransposeLast2(k)), scale));
  ag::Variable mixed = ag::MatMul(attention, v);  // [B, C, u]
  // Residual connection keeps each feature's own evidence.
  ag::Variable rep = ag::AddTanh(features, mixed);
  return ag::Reshape(rep, {batch_size, num_features() * hidden_});
}

ag::Variable ConCare::Readout(const ag::Variable& rep,
                              nn::ForwardContext*) const {
  return ag::Reshape(out_.Forward(rep), {rep.value().shape(0)});
}

std::unique_ptr<nn::StepState> ConCare::MakeStepState(
    int64_t /*window_capacity*/) const {
  auto state = std::make_unique<ConCareStreamState>();
  state->h = Tensor::Zeros({num_features(), hidden_});
  return state;
}

ag::Variable ConCare::StepForward(const train::StepBatch& obs,
                                  const std::vector<nn::StepState*>& states,
                                  nn::ForwardContext*) const {
  const int64_t n = static_cast<int64_t>(states.size());
  ELDA_CHECK_EQ(obs.x.shape(0), n);
  ELDA_CHECK_EQ(obs.x.shape(1), num_features());
  std::vector<ConCareStreamState*> ss(static_cast<size_t>(n));
  for (int64_t b = 0; b < n; ++b) {
    ss[b] = dynamic_cast<ConCareStreamState*>(states[b]);
    ELDA_CHECK(ss[b] != nullptr);
  }

  // Advance every feature's cell by one step — the same PrecomputeInput /
  // Step kernels the per-feature sweeps run, on this step's scalar column.
  Tensor col = Tensor::Empty({n, 1});
  Tensor h_prev = Tensor::Empty({n, hidden_});
  for (int64_t c = 0; c < num_features(); ++c) {
    for (int64_t b = 0; b < n; ++b) {
      col.data()[b] = obs.x.data()[b * num_features() + c];
      std::memcpy(h_prev.data() + b * hidden_,
                  ss[b]->h.data() + c * hidden_,
                  static_cast<size_t>(hidden_) * sizeof(float));
    }
    const nn::GruCell& cell = feature_grus_[c]->cell();
    ag::Variable xw = cell.PrecomputeInput(ag::Constant(col));
    ag::Variable h = cell.Step(xw, ag::Constant(h_prev));
    for (int64_t b = 0; b < n; ++b) {
      std::memcpy(ss[b]->h.data() + c * hidden_,
                  h.value().data() + b * hidden_,
                  static_cast<size_t>(hidden_) * sizeof(float));
    }
  }

  // Cross-feature attention over the updated summaries. Each session's
  // state slab is already the [C, u] features slice Forward would build.
  Tensor feat = Tensor::Empty({n, num_features(), hidden_});
  for (int64_t b = 0; b < n; ++b) {
    std::memcpy(feat.data() + b * num_features() * hidden_, ss[b]->h.data(),
                static_cast<size_t>(num_features() * hidden_) * sizeof(float));
    ++ss[b]->steps_seen;
  }
  ag::Variable features = ag::Constant(feat);
  ag::Variable q = wq_.Forward(features);
  ag::Variable k = wk_.Forward(features);
  ag::Variable v = wv_.Forward(features);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hidden_));
  ag::Variable attention = ag::Softmax(
      ag::MulScalar(ag::MatMul(q, ag::TransposeLast2(k)), scale));
  ag::Variable mixed = ag::MatMul(attention, v);
  ag::Variable rep = ag::AddTanh(features, mixed);
  ag::Variable flat = ag::Reshape(rep, {n, num_features() * hidden_});
  return ag::Reshape(out_.Forward(flat), {n});
}

}  // namespace baselines
}  // namespace elda
