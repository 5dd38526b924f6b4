#include "baselines/dipole.h"

#include "nn/init.h"
#include "nn/recurrent_sweep.h"

namespace elda {
namespace baselines {
namespace {
constexpr int64_t kConcatAttentionDim = 32;
}  // namespace

Dipole::Dipole(int64_t num_features, int64_t hidden_dim,
               DipoleAttention attention, uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      attention_(attention),
      hidden_dim_(hidden_dim),
      forward_gru_(num_features, hidden_dim, &rng_),
      backward_gru_(num_features, hidden_dim, &rng_),
      combine_(4 * hidden_dim, 2 * hidden_dim, /*use_bias=*/true, &rng_),
      out_(2 * hidden_dim, 1, true, &rng_) {
  RegisterSubmodule("forward_gru", &forward_gru_);
  RegisterSubmodule("backward_gru", &backward_gru_);
  RegisterSubmodule("combine", &combine_);
  RegisterSubmodule("out", &out_);
  const int64_t state = 2 * hidden_dim;
  switch (attention_) {
    case DipoleAttention::kLocation:
      loc_w_ = RegisterParameter("loc_w",
                                 nn::XavierUniform2d(state, 1, &rng_));
      loc_b_ = RegisterParameter("loc_b", Tensor::Zeros({1}));
      break;
    case DipoleAttention::kGeneral:
      general_w_ = RegisterParameter(
          "general_w", nn::XavierUniform2d(state, state, &rng_));
      break;
    case DipoleAttention::kConcat:
      concat_w_ = RegisterParameter(
          "concat_w",
          nn::XavierUniform2d(2 * state, kConcatAttentionDim, &rng_));
      concat_v_ = RegisterParameter(
          "concat_v", nn::XavierUniform2d(kConcatAttentionDim, 1, &rng_));
      break;
  }
}

std::string Dipole::name() const {
  switch (attention_) {
    case DipoleAttention::kLocation:
      return "Dipole-l";
    case DipoleAttention::kGeneral:
      return "Dipole-g";
    case DipoleAttention::kConcat:
      return "Dipole-c";
  }
  return "Dipole";
}

ag::Variable Dipole::EncodeTerminal(const data::Batch& batch,
                                    nn::ForwardContext* ctx) const {
  const int64_t batch_size = batch.x.shape(0);
  const int64_t steps = batch.x.shape(1);
  const int64_t state = 2 * hidden_dim_;
  ag::Variable x = ag::Constant(batch.x);
  nn::SweepOptions fwd_opts;
  fwd_opts.label = "Dipole/forward-gru";
  nn::SweepOptions bwd_opts;
  bwd_opts.reversed = true;
  bwd_opts.label = "Dipole/backward-gru";
  nn::SweepResult fwd = nn::GruSweep(forward_gru_.cell(), x, fwd_opts);
  nn::SweepResult bwd = nn::GruSweep(backward_gru_.cell(), x, bwd_opts);
  ag::Variable h =
      ag::Concat({fwd.Stacked(), bwd.Stacked()}, /*axis=*/2);  // [B, T, 2H]

  // Both sweeps file states chronologically, so index T-1 is the forward
  // sweep's final state and the backward sweep's first-computed one.
  ag::Variable h_last =
      ag::Concat({fwd.steps.back(), bwd.steps.back()}, /*axis=*/1);
  ag::Variable h_prev = ag::Slice(h, 1, 0, steps - 1);  // [B, T-1, 2H]

  ag::Variable scores;  // [B, T-1]
  switch (attention_) {
    case DipoleAttention::kLocation:
      scores = ag::Reshape(ag::Add(ag::MatMul(h_prev, loc_w_), loc_b_),
                           {batch_size, steps - 1});
      break;
    case DipoleAttention::kGeneral: {
      // a_t = h_T W h_t: project h_T once, then batch dot with h_prev.
      ag::Variable query = ag::MatMul(h_last, general_w_);  // [B, 2H]
      scores = ag::Reshape(
          ag::MatMul(h_prev, ag::Reshape(query, {batch_size, state, 1})),
          {batch_size, steps - 1});
      break;
    }
    case DipoleAttention::kConcat: {
      // a_t = v . tanh(W [h_t ; h_T]).
      ag::Variable tiled = ag::Add(
          ag::Reshape(h_last, {batch_size, 1, state}),
          ag::Constant(Tensor::Zeros({batch_size, steps - 1, state})));
      ag::Variable cat = ag::Concat({h_prev, tiled}, 2);  // [B, T-1, 4H]
      ag::Variable hidden = ag::Tanh(ag::MatMul(cat, concat_w_));
      scores = ag::Reshape(ag::MatMul(hidden, concat_v_),
                           {batch_size, steps - 1});
      break;
    }
  }
  ag::Variable alpha = ag::Softmax(scores);  // [B, T-1]
  if (ctx != nullptr) ctx->Capture("time_attention", alpha.value());
  ag::Variable context = ag::Reshape(
      ag::MatMul(ag::Reshape(alpha, {batch_size, 1, steps - 1}), h_prev),
      {batch_size, state});
  ag::Variable combined =
      ag::Tanh(combine_.Forward(ag::Concat({context, h_last}, 1)));
  return combined;  // [B, 2H]
}

ag::Variable Dipole::Readout(const ag::Variable& rep,
                             nn::ForwardContext*) const {
  return ag::Reshape(out_.Forward(rep), {rep.value().shape(0)});
}

}  // namespace baselines
}  // namespace elda
