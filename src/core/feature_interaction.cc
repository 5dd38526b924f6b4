#include "core/feature_interaction.h"

#include "nn/init.h"

namespace elda {
namespace core {

FeatureInteraction::FeatureInteraction(int64_t num_features,
                                       int64_t embed_dim,
                                       int64_t compression, Rng* rng)
    : num_features_(num_features),
      embed_dim_(embed_dim),
      compression_(compression) {
  // A wider-than-Xavier init keeps the attention logits sensitive to the
  // embedding magnitudes from the first epoch: abnormal values (large |e|)
  // then visibly reshape the softmax even before W is trained, which is the
  // behaviour the paper's interpretability study exhibits.
  w_alpha_ = RegisterParameter(
      "w_alpha",
      Tensor::Uniform({num_features, embed_dim}, -0.8f, 0.8f, rng));
  b_alpha_ = RegisterParameter("b_alpha", Tensor::Zeros({num_features}));
  p_ = RegisterParameter(
      "p", nn::XavierUniform(2 * embed_dim, compression,
                             {2 * embed_dim, compression}, rng));
}

ag::Variable FeatureInteraction::Forward(const ag::Variable& e,
                                         const nn::ForwardContext* ctx) const {
  const Tensor& ev = e.value();
  ELDA_CHECK_EQ(ev.dim(), 4);
  ELDA_CHECK_EQ(ev.shape(2), num_features_);
  ELDA_CHECK_EQ(ev.shape(3), embed_dim_);
  const bool capture = ctx != nullptr && ctx->capture != nullptr;
  Tensor alpha;  // [B, T, C, C], written only for a capture sink
  ag::Variable f = ag::FeatureInteractionTile(e, w_alpha_, b_alpha_, p_,
                                              capture ? &alpha : nullptr);
  if (capture) ctx->Capture("feature_attention", alpha);
  return f;  // [B, T, C*d]
}

}  // namespace core
}  // namespace elda
