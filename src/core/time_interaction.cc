#include "core/time_interaction.h"

#include "nn/init.h"
#include "nn/recurrent_sweep.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {

TimeInteraction::TimeInteraction(int64_t input_dim, int64_t hidden_dim,
                                 Rng* rng)
    : hidden_dim_(hidden_dim), gru_(input_dim, hidden_dim, rng) {
  RegisterSubmodule("gru", &gru_);
  w_beta_ = RegisterParameter(
      "w_beta", nn::XavierUniform(hidden_dim, 1, {hidden_dim, 1}, rng));
  b_beta_ = RegisterParameter("b_beta", Tensor::Zeros({1}));
}

ag::Variable TimeInteraction::Forward(const ag::Variable& x,
                                      const nn::ForwardContext* ctx) const {
  const int64_t steps = x.value().shape(1);
  ELDA_CHECK_GE(steps, 2);

  nn::SweepOptions opts;
  opts.label = "TimeInteraction/gru";
  nn::SweepResult sweep = nn::GruSweep(gru_.cell(), x, opts);
  // The attention below needs the final state and the earlier states as
  // separate tensors; taking them straight from the sweep avoids stacking
  // all T states only to slice them apart again.
  ag::Variable h_last = sweep.steps.back();  // [B, H]
  std::vector<ag::Variable> prev(sweep.steps.begin(),
                                 sweep.steps.end() - 1);
  ag::Variable h_prev =
      ag::Transpose01(ag::Stack0(prev));  // [B, T-1, H]
  return ScoreFromStates(h_prev, h_last, ctx);
}

ag::Variable TimeInteraction::ScoreFromStates(
    const ag::Variable& h_prev, const ag::Variable& h_last,
    const nn::ForwardContext* ctx) const {
  const int64_t batch = h_prev.value().shape(0);
  const int64_t prev_steps = h_prev.value().shape(1);
  ELDA_CHECK_GE(prev_steps, 1);

  // s_i = h_i ⊙ h_T  (Eq. 8).
  ag::Variable s =
      ag::Mul(h_prev, ag::Reshape(h_last, {batch, 1, hidden_dim_}));

  // beta = softmax_i(w_beta . s_i + b_beta)  (Eqs. 9-10).
  ag::Variable logits = ag::Add(ag::MatMul(s, w_beta_), b_beta_);
  ag::Variable beta = ag::Softmax(ag::Reshape(logits, {batch, prev_steps}));
  if (ctx != nullptr) ctx->Capture("time_attention", beta.value());

  // g_T = sum_i beta_i s_i  (Eq. 11), as a [B,1,P] x [B,P,H] matmul.
  ag::Variable g = ag::Reshape(
      ag::MatMul(ag::Reshape(beta, {batch, 1, prev_steps}), s),
      {batch, hidden_dim_});

  return ag::Concat({h_last, g}, /*axis=*/1);  // [B, 2H]
}

}  // namespace core
}  // namespace elda
