#include "core/embedding.h"

#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {

std::string EmbeddingVariantName(EmbeddingVariant variant) {
  switch (variant) {
    case EmbeddingVariant::kBiDirectional:
      return "bi";
    case EmbeddingVariant::kBiDirectionalStar:
      return "bi*";
    case EmbeddingVariant::kFmLinear:
      return "fm";
    case EmbeddingVariant::kFmLinearStar:
      return "fm*";
  }
  return "?";
}

BiDirectionalEmbedding::BiDirectionalEmbedding(int64_t num_features,
                                               int64_t embed_dim,
                                               EmbeddingVariant variant,
                                               float lower, float upper,
                                               bool use_missing_embedding,
                                               Rng* rng)
    : num_features_(num_features),
      embed_dim_(embed_dim),
      variant_(variant),
      lower_(lower),
      upper_(upper),
      use_missing_embedding_(use_missing_embedding) {
  ELDA_CHECK_LT(lower_, upper_);
  // Embedding tables use a unit-ish per-element scale rather than a
  // Xavier fan over [C, E]: the attention logits of the downstream
  // interaction module are *products* of two embeddings, so anchor vectors
  // that are too small collapse every softmax toward uniform and starve the
  // attention pathway of gradient.
  const float kEmbedInitRange = 0.7f;
  auto embed_init = [&] {
    return Tensor::Uniform({num_features, embed_dim}, -kEmbedInitRange,
                           kEmbedInitRange, rng);
  };
  const bool bi = variant_ == EmbeddingVariant::kBiDirectional ||
                  variant_ == EmbeddingVariant::kBiDirectionalStar;
  if (bi) {
    // Anti-symmetric anchor initialisation: V_b starts close to -V_a, so the
    // embedding's value-dependent component ((b-a)/2-scaled x' along
    // V_a - V_b) dominates its constant component ((V_a + V_b)/2) from the
    // first step. Downstream attention logits are inner products of
    // embeddings, so this makes the attention *value-sensitive* — abnormal
    // measurements reshape the softmax — which is the trained behaviour the
    // paper's interpretability study reports. A fresh noise term keeps the
    // constant component non-zero, preserving the module's defining property
    // that a standardised zero still maps to an informative vector.
    Tensor lower = embed_init();
    Tensor upper = embed_init();
    for (int64_t i = 0; i < upper.size(); ++i) {
      upper[i] = -0.55f * lower[i] + 0.45f * upper[i];
    }
    v_lower_ = RegisterParameter("v_lower", lower);
    v_upper_ = RegisterParameter("v_upper", upper);
  } else {
    v_linear_ = RegisterParameter("v_linear", embed_init());
  }
  if (use_missing_embedding_) {
    v_missing_ = RegisterParameter("v_missing", embed_init());
  }
}

ag::Variable BiDirectionalEmbedding::Forward(const ag::Variable& x,
                                             const Tensor& mask) const {
  const Tensor& xv = x.value();
  ELDA_CHECK_EQ(xv.dim(), 3);
  const int64_t batch = xv.shape(0);
  const int64_t steps = xv.shape(1);
  Tensor never;
  // Never-observed features use the learned V_m instead (paper's third
  // category of missing data). "Never" is a whole-window property of the
  // mask, computed here and applied in ForwardWithNever.
  if (use_missing_embedding_) {
    never = Tensor({batch, 1, num_features_, 1});
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t c = 0; c < num_features_; ++c) {
        bool seen = false;
        for (int64_t t = 0; t < steps && !seen; ++t) {
          seen = mask.at({b, t, c}) != 0.0f;
        }
        never.at({b, 0, c, 0}) = seen ? 0.0f : 1.0f;
      }
    }
  }
  return ForwardWithNever(x, never);
}

ag::Variable BiDirectionalEmbedding::ForwardWithNever(
    const ag::Variable& x, const Tensor& never) const {
  ELDA_CHECK(!x.requires_grad()) << "the embedding input is a constant";
  const Tensor& xv = x.value();
  ELDA_CHECK_EQ(xv.dim(), 3);
  ELDA_CHECK_EQ(xv.shape(2), num_features_);
  if (use_missing_embedding_) ELDA_CHECK(never.defined());
  // One fused op (ag::BiDirectionalEmbedding): Eq. 2's interpolation (or
  // the FM product), the star variants' all-ones vector at a standardised
  // zero (a value-dependent routing whose selector is not differentiated),
  // then V_m for never-observed features.
  EmbeddingSpec spec;
  spec.bi = variant_ == EmbeddingVariant::kBiDirectional ||
            variant_ == EmbeddingVariant::kBiDirectionalStar;
  spec.star = variant_ == EmbeddingVariant::kBiDirectionalStar ||
              variant_ == EmbeddingVariant::kFmLinearStar;
  spec.lower = lower_;
  spec.upper = upper_;
  return ag::BiDirectionalEmbedding(
      xv, spec.bi ? v_lower_ : v_linear_, v_upper_,
      use_missing_embedding_ ? v_missing_ : ag::Variable(),
      use_missing_embedding_ ? never : Tensor(), spec);
}

}  // namespace core
}  // namespace elda
