#include "baselines/gru_classifier.h"

#include <cstring>

#include "autograd/ops.h"
#include "util/logging.h"

namespace elda {
namespace baselines {
namespace {

struct GruStreamState : nn::StepState {
  void Save(util::ByteWriter* w) const override {
    nn::StepState::Save(w);
    nn::PutTensorData(w, h);
  }
  bool Load(util::ByteReader* r) override {
    return nn::StepState::Load(r) && nn::GetTensorData(r, &h);
  }

  Tensor h;  // [hidden]
};

}  // namespace

GruClassifier::GruClassifier(int64_t num_features, int64_t hidden_dim,
                             uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      gru_(num_features, hidden_dim, &rng_),
      head_(hidden_dim, 1, /*use_bias=*/true, &rng_) {
  RegisterSubmodule("gru", &gru_);
  RegisterSubmodule("head", &head_);
}

ag::Variable GruClassifier::EncodeTerminal(const data::Batch& batch,
                                           nn::ForwardContext*) const {
  // Ragged batches freeze each row past its length, so steps.back() row b
  // is that stay's true final state (LengthsOrNull() is null when uniform).
  std::vector<ag::Variable> steps =
      gru_.ForwardSteps(ag::Constant(batch.x), batch.LengthsOrNull());
  return steps.back();
}

ag::Variable GruClassifier::Readout(const ag::Variable& rep,
                                    nn::ForwardContext*) const {
  return ag::Reshape(head_.Forward(rep), {rep.value().shape(0)});
}

int64_t GruClassifier::encoding_dim() const {
  return gru_.cell().hidden_size();
}

ag::Variable GruClassifier::EncodeSteps(const data::Batch& batch,
                                        nn::ForwardContext*) const {
  // One sweep; state t is bitwise the prefix-replay encoding because the
  // recurrence is causal and every kernel computes rows independently.
  std::vector<ag::Variable> steps =
      gru_.ForwardSteps(ag::Constant(batch.x), batch.LengthsOrNull());
  return ag::Transpose01(ag::Stack0(steps));  // [B, T, H]
}

std::unique_ptr<nn::StepState> GruClassifier::MakeStepState(
    int64_t /*window_capacity*/) const {
  auto state = std::make_unique<GruStreamState>();
  state->h = Tensor::Zeros({gru_.cell().hidden_size()});
  return state;
}

ag::Variable GruClassifier::StepForward(
    const train::StepBatch& obs, const std::vector<nn::StepState*>& states,
    nn::ForwardContext*) const {
  const int64_t n = static_cast<int64_t>(states.size());
  ELDA_CHECK_EQ(obs.x.shape(0), n);
  const int64_t hidden = gru_.cell().hidden_size();
  Tensor h_prev = Tensor::Empty({n, hidden});
  std::vector<GruStreamState*> ss(static_cast<size_t>(n));
  for (int64_t b = 0; b < n; ++b) {
    ss[b] = dynamic_cast<GruStreamState*>(states[b]);
    ELDA_CHECK(ss[b] != nullptr);
    std::memcpy(h_prev.data() + b * hidden, ss[b]->h.data(),
                static_cast<size_t>(hidden) * sizeof(float));
  }
  // One observation is one sweep step: the same fused PrecomputeInput /
  // Step kernels as GruSweep, applied to this step's rows, so row b matches
  // the batched sweep over the full window bitwise.
  ag::Variable xw = gru_.cell().PrecomputeInput(ag::Constant(obs.x));
  ag::Variable h = gru_.cell().Step(xw, ag::Constant(h_prev));
  for (int64_t b = 0; b < n; ++b) {
    std::memcpy(ss[b]->h.data(), h.value().data() + b * hidden,
                static_cast<size_t>(hidden) * sizeof(float));
    ++ss[b]->steps_seen;
  }
  return ag::Reshape(head_.Forward(h), {n});
}

}  // namespace baselines
}  // namespace elda
