#include "baselines/retain.h"

#include "nn/recurrent_sweep.h"

namespace elda {
namespace baselines {

Retain::Retain(int64_t num_features, int64_t embed_dim, uint64_t seed)
    : train::SequenceModel(num_features),
      rng_(seed),
      embed_dim_(embed_dim),
      embed_(num_features, embed_dim, /*use_bias=*/true, &rng_),
      alpha_gru_(embed_dim, embed_dim, &rng_),
      beta_gru_(embed_dim, embed_dim, &rng_),
      alpha_head_(embed_dim, 1, true, &rng_),
      beta_head_(embed_dim, embed_dim, true, &rng_),
      out_(embed_dim, 1, true, &rng_) {
  RegisterSubmodule("embed", &embed_);
  RegisterSubmodule("alpha_gru", &alpha_gru_);
  RegisterSubmodule("beta_gru", &beta_gru_);
  RegisterSubmodule("alpha_head", &alpha_head_);
  RegisterSubmodule("beta_head", &beta_head_);
  RegisterSubmodule("out", &out_);
}

ag::Variable Retain::EncodeTerminal(const data::Batch& batch,
                                    nn::ForwardContext*) const {
  const int64_t batch_size = batch.x.shape(0);
  const int64_t steps = batch.x.shape(1);
  ag::Variable v = embed_.Forward(ag::Constant(batch.x));  // [B, T, m]
  // Reverse-time recurrences. A reversed sweep walks t = T-1 .. 0 and files
  // each state chronologically, so no ReverseTime copies are needed on
  // either side of the GRUs.
  nn::SweepOptions reversed;
  reversed.reversed = true;
  reversed.label = "Retain/reversed-gru";
  ag::Variable g =
      nn::GruSweep(alpha_gru_.cell(), v, reversed).Stacked();  // [B, T, m]
  ag::Variable h =
      nn::GruSweep(beta_gru_.cell(), v, reversed).Stacked();   // [B, T, m]
  ag::Variable alpha =
      ag::Softmax(ag::Reshape(alpha_head_.Forward(g), {batch_size, steps}));
  ag::Variable beta = ag::Tanh(beta_head_.Forward(h));  // [B, T, m]
  // context = sum_t alpha_t * beta_t ⊙ v_t.
  ag::Variable gated = ag::Mul(beta, v);                // [B, T, m]
  ag::Variable context = ag::Reshape(
      ag::MatMul(ag::Reshape(alpha, {batch_size, 1, steps}), gated),
      {batch_size, embed_dim_});
  return context;
}

ag::Variable Retain::Readout(const ag::Variable& rep,
                             nn::ForwardContext*) const {
  return ag::Reshape(out_.Forward(rep), {rep.value().shape(0)});
}

}  // namespace baselines
}  // namespace elda
